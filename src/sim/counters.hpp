// Simulation-wide event counters.
//
// The paper's argument is structural (how many messages, hops, CPU tasks
// are on each critical path), so these counters are first-class outputs:
// tests assert on them and benches report them next to times.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace nvgas::sim {

struct Counters {
  // Network.
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t bytes_delivered = 0;

  // CPU.
  std::uint64_t cpu_tasks = 0;
  std::uint64_t cpu_busy_ns = 0;

  // RMA verbs.
  std::uint64_t rma_puts = 0;
  std::uint64_t rma_gets = 0;
  std::uint64_t rma_atomics = 0;

  // Parcels (two-sided).
  std::uint64_t parcels_sent = 0;
  std::uint64_t parcels_eager = 0;
  std::uint64_t parcels_rendezvous = 0;

  // NIC translation unit (network-managed AGAS).
  std::uint64_t nic_tlb_hits = 0;
  std::uint64_t nic_tlb_misses = 0;
  std::uint64_t nic_forwards = 0;
  std::uint64_t nic_tlb_updates = 0;

  // Software AGAS.
  std::uint64_t sw_cache_hits = 0;
  std::uint64_t sw_cache_misses = 0;
  std::uint64_t sw_cache_invalidations = 0;
  std::uint64_t directory_lookups = 0;
  std::uint64_t directory_nacks = 0;

  // GAS-level operations.
  std::uint64_t gas_memputs = 0;
  std::uint64_t gas_memgets = 0;
  std::uint64_t gas_atomics = 0;
  std::uint64_t migrations = 0;
  std::uint64_t migration_bytes = 0;

  // Wire-fault injection (sim/faults) and the end-to-end reliability
  // layer that survives it (net/reliability). The fault ledger is what
  // conservation checks reconcile against: at quiescence,
  // delivered = sent - faults_injected_drops + faults_injected_dups
  // (and the byte analogue), because every injected frame is either
  // dropped, delivered once, or delivered twice.
  std::uint64_t faults_injected_drops = 0;
  std::uint64_t faults_dropped_bytes = 0;
  std::uint64_t faults_injected_dups = 0;
  std::uint64_t faults_dup_bytes = 0;
  std::uint64_t faults_injected_delays = 0;
  std::uint64_t net_retransmits = 0;    // RTO-fired frame resends
  std::uint64_t net_dup_discards = 0;   // receiver-side dedup hits
  std::uint64_t net_acks = 0;           // pure (non-piggybacked) ack frames

  // Load balancer (src/lb).
  std::uint64_t lb_epochs = 0;
  std::uint64_t lb_migrations = 0;        // issued to the manager
  std::uint64_t lb_rejected_cost = 0;     // plan entries failing the cost gate
  std::uint64_t lb_throttled = 0;         // plan entries over max_inflight
  std::uint64_t lb_bounced = 0;           // completions that missed their dst

  void reset() { *this = Counters{}; }

  // Stable name→value view for reporting and for test snapshots.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> items() const {
    return {
        {"messages_sent", messages_sent},
        {"bytes_sent", bytes_sent},
        {"messages_delivered", messages_delivered},
        {"bytes_delivered", bytes_delivered},
        {"cpu_tasks", cpu_tasks},
        {"cpu_busy_ns", cpu_busy_ns},
        {"rma_puts", rma_puts},
        {"rma_gets", rma_gets},
        {"rma_atomics", rma_atomics},
        {"parcels_sent", parcels_sent},
        {"parcels_eager", parcels_eager},
        {"parcels_rendezvous", parcels_rendezvous},
        {"nic_tlb_hits", nic_tlb_hits},
        {"nic_tlb_misses", nic_tlb_misses},
        {"nic_forwards", nic_forwards},
        {"nic_tlb_updates", nic_tlb_updates},
        {"sw_cache_hits", sw_cache_hits},
        {"sw_cache_misses", sw_cache_misses},
        {"sw_cache_invalidations", sw_cache_invalidations},
        {"directory_lookups", directory_lookups},
        {"directory_nacks", directory_nacks},
        {"gas_memputs", gas_memputs},
        {"gas_memgets", gas_memgets},
        {"gas_atomics", gas_atomics},
        {"migrations", migrations},
        {"migration_bytes", migration_bytes},
        {"faults_injected_drops", faults_injected_drops},
        {"faults_dropped_bytes", faults_dropped_bytes},
        {"faults_injected_dups", faults_injected_dups},
        {"faults_dup_bytes", faults_dup_bytes},
        {"faults_injected_delays", faults_injected_delays},
        {"net_retransmits", net_retransmits},
        {"net_dup_discards", net_dup_discards},
        {"net_acks", net_acks},
        {"lb_epochs", lb_epochs},
        {"lb_migrations", lb_migrations},
        {"lb_rejected_cost", lb_rejected_cost},
        {"lb_throttled", lb_throttled},
        {"lb_bounced", lb_bounced},
    };
  }
};

}  // namespace nvgas::sim
