// Hardware model parameters for the simulated cluster.
//
// The network follows a LogGP-style decomposition: per-message CPU
// overheads (o), per-message NIC gaps (g), per-byte serialization (G) and
// wire latency (L). Defaults are shaped after a QDR-InfiniBand-era
// commodity cluster — the class of machine the original evaluation ran
// on. Absolute values are configurable; the benchmark conclusions depend
// only on their ordering (CPU overheads ≫ NIC processing ≫ per-byte).
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"
#include "sim/topology.hpp"

namespace nvgas::sim {

struct MachineParams {
  int nodes = 8;
  int workers_per_node = 2;          // schedulable CPU workers per node
  std::size_t mem_bytes_per_node = 64ull << 20;

  // --- topology ---
  TopologyKind topology = TopologyKind::kFlat;
  int dragonfly_group_size = 4;
  Time per_hop_latency_ns = 150;     // extra latency per switch hop past 1

  // --- network (LogGP-ish) ---
  Time wire_latency_ns = 900;        // L: one-way 1-hop latency
  Time wire_jitter_ns = 0;           // uniform [0, jitter) added per message
                                     // (deterministic, seeded; models switch
                                     // arbitration variance for tail studies)
  std::uint64_t jitter_seed = 0x7177e4;
  Time nic_gap_ns = 40;              // g: per-message port occupancy (tx and rx)
  double byte_time_ns = 0.233;       // G: ~4 GiB/s link
  Time cpu_send_overhead_ns = 120;   // o_send: CPU cost to post a descriptor
  Time cpu_recv_overhead_ns = 250;   // o_recv: CPU cost to take a two-sided rx

  // --- NIC processing (one-sided path, no CPU involvement) ---
  Time nic_dma_ns = 100;             // DMA engine setup per RMA op
  Time nic_tlb_ns = 60;              // NIC translation-table lookup
  Time nic_fwd_ns = 80;              // NIC-level forward of a stale-address op
  Time nic_atomic_ns = 150;          // NIC-executed fetch-add / cswap

  // --- local memory system ---
  double membus_byte_ns = 0.0625;    // ~16 GiB/s local copy bandwidth

  [[nodiscard]] Time wire_time(std::uint64_t bytes) const {
    return nic_gap_ns + bytes_time(bytes, byte_time_ns);
  }
  [[nodiscard]] Time copy_time(std::uint64_t bytes) const {
    return bytes_time(bytes, membus_byte_ns);
  }
};

}  // namespace nvgas::sim
