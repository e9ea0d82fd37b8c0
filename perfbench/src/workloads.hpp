// The benchmark's workloads (README.md lists each and why it was chosen).
//
// One call builds a fresh World from the seed, sets it up, runs the timed
// phase and checks the outputs. Every simulated quantity in the result is
// a pure function of (workload, seed); host times are measured around the
// calls into the simulator.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Per-op latencies (simulated ns) of one World.
struct Latencies {
  std::vector<std::int64_t> all;  // every completed op
  std::vector<std::int64_t> get;  // read ops (GET / memget / fetch_add)
  std::vector<std::int64_t> put;  // write ops (PUT / memput / fetch_add)
  std::vector<std::int64_t> lag;  // open loop: issue time - due time
  bool operator==(const Latencies&) const = default;
};

struct Outcome {
  // --- correctness ---
  bool correct = true;
  std::string error;       // first failed check
  std::uint64_t attempted = 0;  // ops (GAS ops or kv requests) issued
  std::uint64_t failed = 0;     // unanswered, torn, refused, or checksum-wrong

  // --- host time (seconds) ---
  double setup_s = 0;  // World construction .. first timed op
  double timed_s = 0;  // timed phase, host wall time
  double run_s = 0;    // host time inside World::run in the timed phase
  // Scaled to the speed probe's reference speed (probe.hpp); empty or 0
  // when no probe was set.
  double setup_ref_s = 0;             // setup_s, scaled
  std::vector<double> ref_ns_per_op;  // per World: timed phase ns per completed op
  std::uint64_t allocs = 0;  // operator new calls in the timed phase

  // --- simulated results of the timed phase ---
  std::uint64_t completed = 0;   // ops answered
  std::uint64_t within_slo = 0;  // answered OK within the latency limit
  std::int64_t sim_ns = 0;       // simulated duration
  std::vector<Latencies> lat;            // one entry per trial (World)
  std::vector<std::int64_t> migrate_ns;  // benchmark-issued migrations
  std::uint64_t backlog_max = 0;         // open loop: peak outstanding requests
  int trials = 1;                        // independent Worlds pooled
  int trials_backlog_grew = 0;           // open loop: see kv_trial()
  std::vector<std::pair<std::string, std::uint64_t>> counters;  // timed-phase delta
  std::uint64_t events = 0;              // engine events in the timed phase
  std::vector<std::uint64_t> busy_ns;    // per node, simulated CPU busy time
  int workers = 1;                       // CPU workers per node
  double cpu_busy_max = 0;               // busiest node's busy fraction
  std::uint64_t trace_hash = 0;          // whole run, setup included

  // Translation-table replay inputs: (issuing node, block key) of every
  // op the timed phase issued, in issue order, and the per-node table
  // capacities the World used.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> block_stream;
  int nodes = 0;
  std::size_t tlb_capacity = 0;
  std::size_t tcache_capacity = 0;

  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    for (const auto& [n, v] : counters) {
      if (n == name) return v;
    }
    return 0;
  }
};

// Latency limit shared by every workload (the kvstore SLO target).
inline constexpr std::int64_t kSloNs = 150'000;

[[nodiscard]] bool known_workload(const std::string& name);
[[nodiscard]] const std::vector<std::string>& workload_names();

// Run one instance of `workload` at `seed`. `kv_rate_scale` multiplies
// kv-net's offered rate (the capacity ladder); other workloads ignore it.
[[nodiscard]] Outcome run_workload(const std::string& workload,
                                   std::uint64_t seed,
                                   double kv_rate_scale = 1.0);

// Nearest-rank quantile of `v` (p in [0, 1]); 0 when empty.
[[nodiscard]] double percentile(std::vector<std::int64_t> v, double p);

// Latency quantile of a run: each trial's p-quantile of the selected
// samples, then the interquartile mean over trials (one trial: its
// quantile).
[[nodiscard]] double trial_quantile(const Outcome& o,
                                    std::vector<std::int64_t> Latencies::*which,
                                    double p);

// kv-net capacity: the highest offered rate (M requests per simulated
// second) on a fixed ladder at which GET p99 stays within kSloNs and the
// backlog does not grow, interpolated to the p99 crossing.
struct Capacity {
  struct Rung {
    double offered_mops = 0;
    double get_p99_us = 0;
    bool answered = true;       // every request answered in time
    bool backlog_grew = false;  // in a quarter or more of the trials
    bool aborted = false;       // the simulator aborted (a panic)
  };
  double mops = 0;
  std::vector<Rung> rungs;  // measured in order, up to the first failure
};
[[nodiscard]] Capacity kv_capacity(std::uint64_t seed);

}  // namespace perfbench
