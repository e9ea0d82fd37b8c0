// nvgas_perfbench: runs one named workload for a fixed host-time budget
// and prints every metric by name and unit, ending with one JSON line:
//
//   nvgas_perfbench --workload gups-net|churn-sw|kv-net --seed N
//                   --seconds S --trace 0|1 [--chrome trace.json]
//
// --trace 0 measures the end-to-end metrics with tracing off. The workload
// is repeated (same seed, fresh World each time) until S seconds have
// passed; host figures are medians over the repetitions after the first,
// and every repetition must reproduce the first one's trace hash and
// results.
//
// --trace 1 alternates untraced and traced repetitions for the per-layer
// metrics: counters, span self times, the translation-table replays, the
// kv-net capacity ladder, and the tracing overhead. The last traced
// repetition's spans are written as Chrome trace-event JSON (--chrome).
//
// The exit code is nonzero when any output check fails.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gas/tcache.hpp"
#include "net/nic_tlb.hpp"
#include "probe.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string chrome;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "nvgas_perfbench: %s\nusage: nvgas_perfbench --workload "
               "gups-net|churn-sw|kv-net --seed N --seconds S --trace 0|1 "
               "[--chrome PATH]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string val;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      val = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      val = argv[++i];
    } else {
      usage(("missing value for " + key).c_str());
    }
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      a.trace = val == "1";
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
    } else if (key == "--chrome") {
      a.chrome = val;
    } else {
      usage(("unknown option " + key).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad number for " + key).c_str());
  }
  if (!known_workload(a.workload)) usage("unknown --workload");
  if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds out of range");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Everything a repetition must reproduce exactly.
bool same_sim(const Outcome& a, const Outcome& b) {
  return a.trace_hash == b.trace_hash && a.completed == b.completed &&
         a.within_slo == b.within_slo && a.sim_ns == b.sim_ns &&
         a.lat == b.lat && a.counters == b.counters &&
         a.events == b.events;
}

// Host ns per lookup of standalone per-node tables replaying the recorded
// (node, block) stream with insert on miss, in the order the simulated
// nodes issued it. Median over passes, at least ~20 ms of passes in total.
template <typename Table, typename Entry>
double replay(const Outcome& o, std::size_t capacity, const char* span) {
  if (o.block_stream.empty()) return 0;
  const Scope s(span);
  std::vector<double> per;
  const std::int64_t t_start = host_ns();
  while (per.size() < 3 || (host_ns() - t_start < 20'000'000 && per.size() < 50)) {
    std::vector<Table> tables;
    tables.reserve(static_cast<std::size_t>(o.nodes));
    for (int n = 0; n < o.nodes; ++n) tables.emplace_back(capacity);
    const std::int64_t t0 = host_ns();
    for (const auto& [node, key] : o.block_stream) {
      Table& table = tables[node];
      if (!table.lookup(key).has_value()) {
        Entry e;
        e.owner = static_cast<int>(node);
        table.insert(key, e);
      }
    }
    per.push_back(static_cast<double>(host_ns() - t0) /
                  static_cast<double>(o.block_stream.size()));
  }
  return median(per);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Report {
 public:
  void add(std::string name, double value, const char* unit) {
    metrics_.push_back({std::move(name), value, unit});
  }
  void print_table() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
  }
  [[nodiscard]] std::string json() const {
    std::string out;
    char buf[256];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(), metrics_[i].value,
                    metrics_[i].unit);
      out += buf;
    }
    return out;
  }

 private:
  std::vector<Metric> metrics_;
};

double us(double ns) { return ns / 1e3; }

void end_to_end(Report& r, const Outcome& o, double setup_s, double ns_per_op,
                double rss_mb) {
  const double sim_s = static_cast<double>(o.sim_ns) / 1e9;
  r.add("setup_s", setup_s, "s");
  r.add("host_ns_per_op", ns_per_op, "ns");
  r.add("peak_rss_mb", rss_mb, "MB");
  r.add("sim_mops", ratio(static_cast<double>(o.completed), sim_s) / 1e6, "Mop/s");
  r.add("op_p50_us", us(trial_quantile(o, &Latencies::all, 0.50)), "us");
  r.add("op_p99_us", us(trial_quantile(o, &Latencies::all, 0.99)), "us");
  r.add("op_p999_us", us(trial_quantile(o, &Latencies::all, 0.999)), "us");
  r.add("get_p99_us", us(trial_quantile(o, &Latencies::get, 0.99)), "us");
  r.add("put_p99_us", us(trial_quantile(o, &Latencies::put, 0.99)), "us");
  r.add("goodput_mops", ratio(static_cast<double>(o.within_slo), sim_s) / 1e6, "Mop/s");
  r.add("slo_attain", ratio(static_cast<double>(o.within_slo),
                            static_cast<double>(o.attempted)),
        "frac");
}

struct TracedStats {
  std::vector<double> ns_per_op;
  std::vector<double> gas_issue_ns;
  std::vector<double> kv_submit_ns;
  std::vector<double> run_self_ns_per_op;
  std::vector<double> world_ctor_s;
};

void per_layer(Report& r, const Outcome& o, const std::vector<double>& run_s,
               const std::vector<double>& events_per_s,
               const std::vector<double>& allocs_per_op, const TracedStats& ts,
               double untraced_ns_per_op, double wall_ns_per_op, double probe_ms,
               double tlb_ns, double tcache_ns, double capacity) {
  const auto ops = static_cast<double>(o.completed);
  auto per_op = [&](const char* c) { return ratio(static_cast<double>(o.counter(c)), ops); };
  auto c = [&](const char* n) { return static_cast<double>(o.counter(n)); };
  r.add("sim.events_per_op", ratio(static_cast<double>(o.events), ops), "events/op");
  r.add("sim.events_per_s", median(events_per_s), "1/s");
  r.add("sim.run_s", median(run_s), "s");
  r.add("sim.msgs_per_op", per_op("messages_sent"), "msgs/op");
  r.add("sim.bytes_per_op", per_op("bytes_sent"), "B/op");
  r.add("sim.cpu_tasks_per_op", per_op("cpu_tasks"), "tasks/op");
  r.add("sim.cpu_busy_max", o.cpu_busy_max, "frac");
  r.add("net.tlb_hit_ratio", ratio(c("nic_tlb_hits"), c("nic_tlb_hits") + c("nic_tlb_misses")),
        "frac");
  r.add("net.tlb_forwards_per_op", per_op("nic_forwards"), "fwd/op");
  r.add("net.tlb_updates", c("nic_tlb_updates"), "count");
  r.add("net.retransmits_per_op", per_op("net_retransmits"), "frames/op");
  r.add("net.acks_per_op", per_op("net_acks"), "frames/op");
  r.add("net.dup_discards", c("net_dup_discards"), "count");
  r.add("net.tlb_ns_per_lookup", tlb_ns, "ns");
  r.add("gas.issue_ns", median(ts.gas_issue_ns), "ns");
  r.add("gas.sw_cache_hit_ratio",
        ratio(c("sw_cache_hits"), c("sw_cache_hits") + c("sw_cache_misses")), "frac");
  r.add("gas.dir_lookups_per_op", per_op("directory_lookups"), "lookups/op");
  r.add("gas.dir_nacks_per_op", per_op("directory_nacks"), "nacks/op");
  r.add("gas.invalidations_per_migration",
        ratio(c("sw_cache_invalidations"), c("migrations")), "inv/mig");
  r.add("gas.migrate_p50_us", us(percentile(o.migrate_ns, 0.50)), "us");
  r.add("gas.migrate_p99_us", us(percentile(o.migrate_ns, 0.99)), "us");
  r.add("gas.tcache_ns_per_lookup", tcache_ns, "ns");
  r.add("rt.parcels_per_op", per_op("parcels_sent"), "parcels/op");
  r.add("rt.rendezvous_frac", ratio(c("parcels_rendezvous"), c("parcels_sent")), "frac");
  r.add("lb.epochs", c("lb_epochs"), "count");
  r.add("lb.migrations", c("lb_migrations"), "count");
  r.add("lb.rejected_cost", c("lb_rejected_cost"), "count");
  r.add("lb.throttled", c("lb_throttled"), "count");
  r.add("lb.bounced", c("lb_bounced"), "count");
  r.add("kv.gen_lag_p99_us", us(trial_quantile(o, &Latencies::lag, 0.99)), "us");
  r.add("kv.backlog_max", static_cast<double>(o.backlog_max), "count");
  r.add("kv.submit_ns", median(ts.kv_submit_ns), "ns");
  r.add("kv.capacity_mops", capacity, "Mop/s");
  r.add("host.allocs_per_op", median(allocs_per_op), "allocs/op");
  r.add("host.wall_ns_per_op", wall_ns_per_op, "ns");
  r.add("host.probe_ms", probe_ms, "ms");
  r.add("trace.overhead", ratio(median(ts.ns_per_op), untraced_ns_per_op), "x");
  r.add("trace.run_self_ns_per_op", median(ts.run_self_ns_per_op), "ns");
  r.add("trace.world_ctor_s", median(ts.world_ctor_s), "s");
  for (const auto& [name, value] : o.counters) {
    r.add("ctr." + name, static_cast<double>(value), "count");
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  std::printf("nvgas_perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("host_cores=%u compiler=\"%s\" build_type=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);

  const std::int64_t t_start = host_ns();
  const auto budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  Outcome first;
  std::vector<double> setup_s, ns_per_op, wall_ns_per_op, run_s, events_per_s, allocs_per_op;
  TracedStats ts;
  Tracer last_trace;
  bool deterministic = true;
  double rss_mb = 0;
  std::optional<SpeedProbe> probe;  // built after the peak memory is read
  int reps = 0;
  int traced_reps = 0;

  while (true) {
    const bool traced = args.trace && reps % 2 == 1;
    Tracer tracer;
    g_tracer = traced ? &tracer : nullptr;
    Outcome o = run_workload(args.workload, args.seed);
    g_tracer = nullptr;
    const double wall_per_op =
        o.timed_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, o.completed));
    // The first repetition only warms the process and is not scaled.
    const double per_op = reps == 0 ? wall_per_op : median(o.ref_ns_per_op);
    if (reps == 0 && !traced) {
      first = std::move(o);
    } else if (!same_sim(first, o)) {
      deterministic = false;
      break;
    }
    const Outcome& cur = reps == 0 && !traced ? first : o;
    // Peak memory of one repetition from a fresh process: later
    // repetitions only add allocator-dependent noise to the high-water
    // mark. Reading it before the speed probe allocates its memory leaves
    // that memory out.
    if (reps == 0) {
      rss_mb = peak_rss_mb();
      probe.emplace().run();
      g_probe = &*probe;
    }
    if (traced) {
      ++traced_reps;
      ts.ns_per_op.insert(ts.ns_per_op.end(), cur.ref_ns_per_op.begin(), cur.ref_ns_per_op.end());
      const auto totals = tracer.totals();
      double gas_ns = 0;
      double gas_n = 0;
      for (const auto& [name, t] : totals) {
        if (name == "gas.fetch_add" || name == "gas.memget" || name == "gas.memput") {
          gas_ns += static_cast<double>(t.total_ns);
          gas_n += static_cast<double>(t.count);
        }
      }
      auto total_of = [&](const char* n) {
        const auto it = totals.find(n);
        return it == totals.end() ? SpanTotals{} : it->second;
      };
      ts.gas_issue_ns.push_back(ratio(gas_ns, gas_n));
      const SpanTotals sub = total_of("kv.submit");
      ts.kv_submit_ns.push_back(ratio(static_cast<double>(sub.total_ns),
                                      static_cast<double>(sub.count)));
      ts.run_self_ns_per_op.push_back(
          ratio(static_cast<double>(total_of("sim.run.timed").self_ns),
                static_cast<double>(cur.completed)));
      ts.world_ctor_s.push_back(static_cast<double>(total_of("world.ctor").total_ns) / 1e9);
      last_trace = std::move(tracer);
    } else if (reps > 0) {
      // The first repetition only warms the process (page faults, allocator
      // growth); host figures come from the later ones.
      setup_s.push_back(cur.setup_ref_s);
      // Per World: kv-net's trials give many samples per repetition.
      ns_per_op.insert(ns_per_op.end(), cur.ref_ns_per_op.begin(), cur.ref_ns_per_op.end());
      wall_ns_per_op.push_back(wall_per_op);
      run_s.push_back(cur.run_s);
      events_per_s.push_back(ratio(static_cast<double>(cur.events), cur.run_s));
      allocs_per_op.push_back(ratio(static_cast<double>(cur.allocs),
                                    static_cast<double>(cur.completed)));
    }
    ++reps;
    std::printf("  rep %d%s: setup %.3f s, timed %.3f s, %.1f wall ns/op, probe %.2f ms, "
                "%.1f host ns/op, trace_hash %016" PRIx64 "\n",
                reps, traced ? " (traced)" : "", cur.setup_s, cur.timed_s, wall_per_op,
                probe->last_ms(), per_op, cur.trace_hash);
    std::fflush(stdout);
    if (!first.correct) break;
    const bool enough = args.trace ? traced_reps >= 2 && reps >= 5 : reps >= 4;
    if (enough && host_ns() - t_start >= budget_ns) break;
  }

  g_probe = nullptr;
  const Outcome& o = first;
  bool correct = o.correct && deterministic;
  std::printf("correct=%s%s%s\n", correct ? "true" : "false",
              o.error.empty() ? "" : " error=", o.error.c_str());
  if (!deterministic) std::printf("error=a repetition diverged from the first (trace hash or results)\n");
  std::printf("trace_hash=%016" PRIx64 " attempted=%" PRIu64 " failed=%" PRIu64
              " fail_frac=%.6g reps=%d\n",
              o.trace_hash, o.attempted, o.failed,
              ratio(static_cast<double>(o.failed), static_cast<double>(o.attempted)), reps);

  Report report;
  if (!args.trace) {
    end_to_end(report, o, median(setup_s), median(ns_per_op), rss_mb);
  } else {
    g_tracer = &last_trace;
    const double tlb_ns = replay<nvgas::net::NicTlb, nvgas::net::TlbEntry>(
        o, o.tlb_capacity, "net.tlb_replay");
    const double tcache_ns = replay<nvgas::gas::TranslationCache, nvgas::gas::CacheEntry>(
        o, o.tcache_capacity, "gas.tcache_replay");
    g_tracer = nullptr;
    double capacity = 0;
    if (args.workload == "kv-net") {
      const Capacity cap = kv_capacity(args.seed);
      capacity = cap.mops;
      for (const Capacity::Rung& r : cap.rungs) {
        if (r.aborted) {
          std::printf("  capacity ladder: offered %.3f Mop/s -> simulator aborted\n",
                      r.offered_mops);
          continue;
        }
        std::printf("  capacity ladder: offered %.3f Mop/s -> GET p99 %.1f us%s%s\n",
                    r.offered_mops, r.get_p99_us,
                    r.answered ? "" : ", requests left unanswered",
                    r.backlog_grew ? ", backlog grows" : "");
      }
      std::printf("  capacity: %.4f Mop/s\n", capacity);
    }
    per_layer(report, o, run_s, events_per_s, allocs_per_op, ts, median(ns_per_op),
              median(wall_ns_per_op), median(probe->runs()),
              tlb_ns, tcache_ns, capacity);
    std::printf("  %-22s %9s %12s %12s   (last traced repetition)\n", "span", "count",
                "total ms", "self ms");
    for (const auto& [name, t] : last_trace.totals()) {
      std::printf("  %-22s %9llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count),
                  static_cast<double>(t.total_ns) / 1e6, static_cast<double>(t.self_ns) / 1e6);
    }
    if (!args.chrome.empty()) {
      if (last_trace.write_chrome(args.chrome)) {
        std::printf("chrome trace: %s (%zu spans)\n", args.chrome.c_str(),
                    last_trace.spans().size());
      } else {
        std::printf("error=cannot write %s\n", args.chrome.c_str());
        correct = false;
      }
    }
  }
  report.print_table();
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", o.attempted, o.failed, report.json().c_str());
  return correct ? 0 : 1;
}
