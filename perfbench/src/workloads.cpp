#include "workloads.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>

#include "core/nvgas.hpp"
#include "kvstore/harness.hpp"
#include "kvstore/server.hpp"
#include "probe.hpp"
#include "spans.hpp"
#include "util/zipf.hpp"

namespace perfbench {
namespace {

using nvgas::Config;
using nvgas::Context;
using nvgas::Fiber;
using nvgas::GasMode;
using nvgas::Gva;
using nvgas::World;
namespace kv = nvgas::apps::kv;

std::int64_t sim_now(Context& ctx) { return static_cast<std::int64_t>(ctx.now()); }

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  return nvgas::util::SplitMix64(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                                 (b * 0xc2b2ae3d27d4eb4fULL))
      .next();
}

// Wraps one of World's GAS awaiters so its issue call (await_suspend, the
// synchronous part of the op) is a span; the caller closes the span's
// simulated interval when the fiber resumes.
template <typename Inner>
struct Traced {
  Inner inner;
  const char* name;
  std::uint64_t op;
  std::int64_t sim_begin;
  std::int32_t* publish = nullptr;  // also receives the span id, if set
  std::int32_t span = -1;

  [[nodiscard]] bool await_ready() const { return false; }
  bool await_suspend(Fiber::Handle h) {
    const Scope s(name, op, sim_begin);
    span = s.id();
    if (publish != nullptr) *publish = span;
    return inner.await_suspend(h);
  }
  decltype(auto) await_resume() { return inner.await_resume(); }
  void close(std::int64_t sim_end) const {
    if (span >= 0) g_tracer->set_sim_end(span, sim_end);
  }
};
template <typename Inner>
Traced(Inner, const char*, std::uint64_t, std::int64_t) -> Traced<Inner>;
template <typename Inner>
Traced(Inner, const char*, std::uint64_t, std::int64_t, std::int32_t*)
    -> Traced<Inner>;

// Everything the timed phase shares between its fibers.
struct Recorder {
  Outcome* out = nullptr;  // null during warm-up
  std::uint64_t next_op = 0;
  std::int64_t last_done = 0;

  void op(std::int64_t issued, std::int64_t done, bool read, bool write) {
    if (out == nullptr) return;
    const std::int64_t lat = done - issued;
    out->completed++;
    Latencies& l = out->lat.back();
    l.all.push_back(lat);
    if (read) l.get.push_back(lat);
    if (write) l.put.push_back(lat);
    if (lat <= kSloNs) out->within_slo++;
    last_done = std::max(last_done, done);
  }
  void block(Context& ctx, Gva a) {
    if (out != nullptr) {
      out->block_stream.emplace_back(static_cast<std::uint32_t>(ctx.rank()),
                                     a.block_key());
    }
  }
};

void fail(Outcome& out, const std::string& why) {
  out.failed++;
  if (out.correct) {
    out.correct = false;
    out.error = why;
  }
}

// A watchdog far above any workload's event count, so a simulation that
// never drains fails the run instead of hanging it.
constexpr std::uint64_t kMaxEvents = 50'000'000;

// Host-timed World::run (or Engine::run_until when `deadline` >= 0);
// returns host seconds. The span name says which phase the run belongs to.
double run_world(World& world, Outcome& out, const char* span = "sim.run.setup",
                 std::int64_t deadline = -1) {
  const Scope s(span);
  const std::int64_t t0 = host_ns();
  if (deadline >= 0) {
    world.engine().run_until(static_cast<nvgas::sim::Time>(deadline));
  } else if (world.run(kMaxEvents) >= kMaxEvents) {
    fail(out, std::string(span) + " did not drain");
  }
  return static_cast<double>(host_ns() - t0) / 1e9;
}

struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::uint64_t> busy;
  std::uint64_t events = 0;
  std::int64_t t = 0;
};

Snapshot snapshot(World& world) {
  const Scope s("sim.counters_total");
  Snapshot snap;
  snap.counters = world.counters_total().items();
  for (int n = 0; n < world.ranks(); ++n) {
    snap.busy.push_back(world.fabric().cpu(n).busy_ns());
  }
  snap.events = world.engine().events_executed();
  snap.t = static_cast<std::int64_t>(world.now());
  return snap;
}

// Fill the Outcome's timed-phase deltas from two snapshots.
void account(World& world, const Snapshot& a, const Snapshot& b, Outcome& out) {
  out.counters = b.counters;
  for (std::size_t i = 0; i < out.counters.size(); ++i) {
    out.counters[i].second -= a.counters[i].second;
  }
  out.events = b.events - a.events;
  out.busy_ns.clear();
  for (std::size_t n = 0; n < a.busy.size(); ++n) {
    out.busy_ns.push_back(b.busy[n] - a.busy[n]);
  }
  out.workers = world.config().machine.workers_per_node;
  out.sim_ns = b.t - a.t;
}

// Busiest node's CPU busy fraction over the measured interval. Call once
// the workload has set sim_ns to that interval.
void set_busy_max(Outcome& out) {
  const double span = static_cast<double>(out.sim_ns) * out.workers;
  for (const std::uint64_t busy : out.busy_ns) {
    out.cpu_busy_max =
        std::max(out.cpu_busy_max, span > 0 ? static_cast<double>(busy) / span : 0.0);
  }
}

// The shared skeleton: construct, set up (allocation + warm-up run), then
// the timed run, then the (untimed) output check. `timed` starts the timed
// phase's fibers and returns the simulated time to run it until, or -1 to
// run until the event queue drains. `verify` spawns read-back fibers and
// returns whether there is anything to run.
template <typename Setup, typename Timed, typename Verify>
void drive(Outcome& out, const Config& cfg, Setup&& setup, Timed&& timed,
           Verify&& verify) {
  const double probe_before = g_probe != nullptr ? g_probe->last_ms() : 0;
  const std::int64_t t_setup = host_ns();
  out.lat.emplace_back();
  std::unique_ptr<World> world;
  {
    const Scope s("setup");
    {
      const Scope w("world.ctor");
      world = std::make_unique<World>(cfg);
    }
    setup(*world);
    run_world(*world, out);
    if (world->runtime().live_fibers() != 0) fail(out, "setup did not drain");
  }
  const Snapshot before = snapshot(*world);
  out.setup_s = static_cast<double>(host_ns() - t_setup) / 1e9;

  AllocCounter::start();
  const std::int64_t t_timed = host_ns();
  {
    const Scope s("timed");
    const std::int64_t deadline = timed(*world);
    out.run_s = run_world(*world, out, "sim.run.timed", deadline);
  }
  out.timed_s = static_cast<double>(host_ns() - t_timed) / 1e9;
  out.allocs = AllocCounter::stop();
  if (g_probe != nullptr) {
    const double scale = g_probe->scale_since(probe_before);
    out.setup_ref_s = out.setup_s * scale;
    out.ref_ns_per_op.push_back(out.timed_s * scale * 1e9 /
                                static_cast<double>(std::max<std::uint64_t>(1, out.completed)));
  }
  if (world->runtime().live_fibers() != 0) fail(out, "timed phase did not drain");
  account(*world, before, snapshot(*world), out);

  if (const Scope s("verify"); verify(*world)) {
    run_world(*world, out, "sim.run.verify");
    if (world->runtime().live_fibers() != 0) fail(out, "verify did not drain");
  }
  out.trace_hash = world->engine().trace_hash();
}

// ---------------------------------------------------------------------------
// gups-net: closed-loop random fetch_add at 128 nodes, stable mappings.
// ---------------------------------------------------------------------------

constexpr int kGupsNodes = 128;
constexpr std::uint32_t kGupsBlocksPerRank = 64;
constexpr std::uint32_t kGupsBlockSize = 4096;
constexpr int kGupsClients = 16;  // window per rank
constexpr int kGupsWarmOps = 2;   // per client
constexpr int kGupsTimedOps = 48;

Fiber gups_client(Context& ctx, Gva table, std::uint64_t words,
                  std::uint64_t seed, int ops, Recorder& rec) {
  nvgas::util::Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    const Gva a = table.advanced(
        static_cast<std::int64_t>(rng.below(words)) * 8, kGupsBlockSize);
    rec.block(ctx, a);
    const std::int64_t t0 = sim_now(ctx);
    Traced op{nvgas::fetch_add(ctx, a, 1), "gas.fetch_add", ++rec.next_op, t0};
    (void)co_await op;
    const std::int64_t t1 = sim_now(ctx);
    op.close(t1);
    rec.op(t0, t1, true, true);
  }
}

Outcome gups_net(std::uint64_t seed) {
  Outcome out;
  Config cfg = Config::with_nodes(kGupsNodes, GasMode::kAgasNet);
  cfg.machine.mem_bytes_per_node = 16u << 20;
  cfg.seed = seed;
  out.nodes = kGupsNodes;
  out.tlb_capacity = cfg.agas_net.tlb_capacity;
  out.tcache_capacity = cfg.gas_costs.sw_cache_capacity;

  const std::uint32_t nblocks = kGupsBlocksPerRank * kGupsNodes;
  const std::uint64_t words = std::uint64_t{nblocks} * kGupsBlockSize / 8;
  Gva table;
  Recorder rec;
  std::int64_t t_begin = 0;

  auto clients = [&](World& world, int ops, std::uint64_t phase) {
    for (int r = 0; r < world.ranks(); ++r) {
      for (int c = 0; c < kGupsClients; ++c) {
        const std::uint64_t s = mix(seed, phase, std::uint64_t(r) * 1024 + c);
        world.spawn(r, [&, s, ops](Context& ctx) {
          return gups_client(ctx, table, words, s, ops, rec);
        });
      }
    }
  };
  std::vector<std::uint64_t> sums(kGupsNodes, 0);

  drive(
      out, cfg,
      [&](World& world) {
        world.spawn(0, [&](Context& ctx) -> Fiber {
          const Scope s("gas.alloc");
          table = nvgas::alloc_cyclic(ctx, nblocks, kGupsBlockSize);
          co_return;
        });
        run_world(world, out);
        clients(world, kGupsWarmOps, 1);
      },
      [&](World& world) {
        rec.out = &out;
        rec.last_done = t_begin = static_cast<std::int64_t>(world.now());
        clients(world, kGupsTimedOps, 2);
        return std::int64_t{-1};
      },
      [&](World& world) {
        rec.out = nullptr;
        for (int r = 0; r < world.ranks(); ++r) {
          world.spawn(r, [&](Context& ctx) -> Fiber {
            for (std::uint32_t b = static_cast<std::uint32_t>(ctx.rank());
                 b < nblocks; b += kGupsNodes) {
              const Gva a = table.advanced(
                  static_cast<std::int64_t>(b) * kGupsBlockSize, kGupsBlockSize);
              const auto bytes = co_await nvgas::memget(ctx, a, kGupsBlockSize);
              for (std::size_t off = 0; off < bytes.size(); off += 8) {
                std::uint64_t v = 0;
                std::memcpy(&v, bytes.data() + off, 8);
                sums[static_cast<std::size_t>(ctx.rank())] += v;
              }
            }
          });
        }
        return true;
      });

  out.sim_ns = rec.last_done - t_begin;
  set_busy_max(out);
  out.attempted = std::uint64_t{kGupsNodes} * kGupsClients * kGupsTimedOps;
  out.failed += out.attempted - out.completed;
  std::uint64_t total = 0;
  for (const auto s : sums) total += s;
  const std::uint64_t expect =
      std::uint64_t{kGupsNodes} * kGupsClients * (kGupsWarmOps + kGupsTimedOps);
  if (total != expect) {
    fail(out, "gups table sum " + std::to_string(total) + " != updates " +
                  std::to_string(expect));
  }
  if (out.completed != out.attempted && out.correct) {
    out.correct = false;
    out.error = "gups ops unanswered";
  }
  return out;
}

// ---------------------------------------------------------------------------
// churn-sw: 8-byte memget / memput / fetch_add at 32 nodes on agas-sw with
// a translation cache smaller than the block working set, while a mover
// fiber migrates random blocks at a fixed simulated rate.
// ---------------------------------------------------------------------------

constexpr int kChurnNodes = 32;
constexpr std::uint32_t kChurnBlocksPerRank = 32;
constexpr std::uint32_t kChurnBlockSize = 4096;
constexpr std::size_t kChurnCache = 256;  // entries; blocks = 1024
constexpr int kChurnClients = 8;
constexpr int kChurnWarmOps = 4;
constexpr int kChurnTimedOps = 200;
constexpr std::int64_t kMoveIntervalNs = 20'000;

struct ChurnState {
  Gva table;
  std::uint32_t nblocks = 0;
  std::uint64_t words = 0;
  std::uint64_t owners = 0;          // clients; word w belongs to w % owners
  std::vector<std::uint64_t> shadow; // expected value of every word
  int clients_running = 0;
  Recorder rec;
  Outcome* out = nullptr;
};

Gva word_addr(const ChurnState& st, std::uint64_t w) {
  return st.table.advanced(static_cast<std::int64_t>(w) * 8, kChurnBlockSize);
}

Fiber churn_client(Context& ctx, ChurnState& st, std::uint64_t id,
                   std::uint64_t seed, int ops) {
  nvgas::util::Rng rng(seed);
  std::uint32_t seq = 0;
  const std::uint64_t own_slots = st.words / st.owners;
  for (int i = 0; i < ops; ++i) {
    const double u = rng.uniform();
    const std::uint64_t op_id = ++st.rec.next_op;
    const std::int64_t t0 = sim_now(ctx);
    if (u < 0.5) {
      // Read any word: builds sharers in the home directories.
      const std::uint64_t w = rng.below(st.words);
      st.rec.block(ctx, word_addr(st, w));
      Traced op{nvgas::memget(ctx, word_addr(st, w), 8), "gas.memget", op_id, t0};
      const auto bytes = co_await op;
      const std::int64_t t1 = sim_now(ctx);
      op.close(t1);
      std::uint64_t v = 0;
      std::memcpy(&v, bytes.data(), 8);
      const std::uint64_t tag = v >> 32;
      const bool ok = w % st.owners == id ? v == st.shadow[w]
                                          : tag == 0 || tag == w % st.owners + 1;
      if (!ok) fail(*st.out, "churn memget read a foreign or stale word");
      st.rec.op(t0, t1, true, false);
      continue;
    }
    // Write one of this client's own words: invalidates sharers.
    const std::uint64_t w = id + st.owners * rng.below(own_slots);
    st.rec.block(ctx, word_addr(st, w));
    if (u < 0.75) {
      const std::uint64_t v = ((id + 1) << 32) | ++seq;
      Traced op{nvgas::memput_value(ctx, word_addr(st, w), v), "gas.memput", op_id, t0};
      co_await op;
      const std::int64_t t1 = sim_now(ctx);
      op.close(t1);
      st.shadow[w] = v;
      st.rec.op(t0, t1, false, true);
    } else {
      Traced op{nvgas::fetch_add(ctx, word_addr(st, w), 1), "gas.fetch_add", op_id, t0};
      const std::uint64_t old = co_await op;
      const std::int64_t t1 = sim_now(ctx);
      op.close(t1);
      if (old != st.shadow[w]) fail(*st.out, "churn fetch_add returned a stale value");
      st.shadow[w] = old + 1;
      st.rec.op(t0, t1, true, true);
    }
  }
  st.clients_running--;
}

Fiber churn_mover(Context& ctx, World& world, ChurnState& st, std::uint64_t seed) {
  nvgas::util::Rng rng(seed);
  std::uint64_t op_id = 1ULL << 62;
  while (true) {
    co_await ctx.sleep(kMoveIntervalNs);
    if (st.clients_running == 0) co_return;
    const Gva block = st.table.advanced(
        static_cast<std::int64_t>(rng.below(st.nblocks)) * kChurnBlockSize,
        kChurnBlockSize);
    const int owner = world.gas().owner_of(block).first;
    const int dst = static_cast<int>(
        (static_cast<std::uint64_t>(owner) + 1 + rng.below(kChurnNodes - 1)) %
        kChurnNodes);
    const std::int64_t t0 = sim_now(ctx);
    Traced op{nvgas::migrate(ctx, block, dst), "gas.migrate", ++op_id, t0};
    co_await op;
    const std::int64_t t1 = sim_now(ctx);
    op.close(t1);
    if (st.out != nullptr) st.out->migrate_ns.push_back(t1 - t0);
  }
}

Outcome churn_sw(std::uint64_t seed) {
  Outcome out;
  Config cfg = Config::with_nodes(kChurnNodes, GasMode::kAgasSw);
  cfg.machine.mem_bytes_per_node = 16u << 20;
  cfg.gas_costs.sw_cache_capacity = kChurnCache;
  cfg.seed = seed;
  out.nodes = kChurnNodes;
  out.tlb_capacity = cfg.agas_net.tlb_capacity;
  out.tcache_capacity = kChurnCache;

  ChurnState st;
  st.out = &out;
  std::int64_t t_begin = 0;
  st.nblocks = kChurnBlocksPerRank * kChurnNodes;
  st.words = std::uint64_t{st.nblocks} * kChurnBlockSize / 8;
  st.owners = std::uint64_t{kChurnNodes} * kChurnClients;
  st.shadow.assign(st.words, 0);

  auto clients = [&](World& world, int ops, std::uint64_t phase) {
    st.clients_running = world.ranks() * kChurnClients;
    for (int r = 0; r < world.ranks(); ++r) {
      for (int c = 0; c < kChurnClients; ++c) {
        const std::uint64_t id = std::uint64_t(r) * kChurnClients + c;
        const std::uint64_t s = mix(seed, phase, id);
        world.spawn(r, [&, id, s, ops](Context& ctx) {
          return churn_client(ctx, st, id, s, ops);
        });
      }
    }
  };

  drive(
      out, cfg,
      [&](World& world) {
        world.spawn(0, [&](Context& ctx) -> Fiber {
          const Scope s("gas.alloc");
          st.table = nvgas::alloc_cyclic(ctx, st.nblocks, kChurnBlockSize);
          co_return;
        });
        run_world(world, out);
        clients(world, kChurnWarmOps, 1);
      },
      [&](World& world) {
        st.rec.out = &out;
        st.rec.last_done = t_begin = static_cast<std::int64_t>(world.now());
        clients(world, kChurnTimedOps, 2);
        world.spawn(kChurnNodes - 1, [&](Context& ctx) {
          return churn_mover(ctx, world, st, mix(seed, 3));
        });
        return std::int64_t{-1};
      },
      [&](World& world) {
        st.rec.out = nullptr;
        for (int r = 0; r < world.ranks(); ++r) {
          world.spawn(r, [&](Context& ctx) -> Fiber {
            for (std::uint32_t b = static_cast<std::uint32_t>(ctx.rank());
                 b < st.nblocks; b += kChurnNodes) {
              const Gva a = st.table.advanced(
                  static_cast<std::int64_t>(b) * kChurnBlockSize, kChurnBlockSize);
              const auto bytes = co_await nvgas::memget(ctx, a, kChurnBlockSize);
              const std::uint64_t w0 = std::uint64_t{b} * kChurnBlockSize / 8;
              for (std::uint64_t i = 0; i < kChurnBlockSize / 8; ++i) {
                std::uint64_t v = 0;
                std::memcpy(&v, bytes.data() + i * 8, 8);
                if (v != st.shadow[w0 + i]) {
                  fail(out, "churn read-back: word " + std::to_string(w0 + i) +
                                " differs from its last write");
                }
              }
            }
          });
        }
        return true;
      });

  // Measured until the last client op; the mover's tail is not load.
  out.sim_ns = st.rec.last_done - t_begin;
  set_busy_max(out);
  out.attempted = st.owners * kChurnTimedOps;
  if (out.completed != out.attempted) fail(out, "churn ops unanswered");
  return out;
}

// ---------------------------------------------------------------------------
// kv-net: open-loop kvstore at 32 nodes on agas-net with the hysteresis
// balancer and the lossy wire. The generator is the benchmark's own: each
// request is stamped with the time it was DUE, so a late generator (its
// node's CPU busy with server work) shows up as latency and as gen lag.
// ---------------------------------------------------------------------------

constexpr int kKvNodes = 32;
constexpr std::uint64_t kKeyspace = 1024;
constexpr double kZipfS = 0.99;
constexpr double kRatePerNode = 2.0e5;  // requests per simulated second
constexpr std::int64_t kKvWindowNs = 2'000'000;  // arrival window per trial
constexpr std::int64_t kKvDrainNs = 2'000'000;   // answer deadline after it
constexpr double kGetFrac = 0.80;
constexpr double kPutFrac = 0.17;  // DEL = the rest
constexpr double kTtlFrac = 0.25;  // of PUTs
constexpr std::uint32_t kTtlUs = 400;
constexpr std::uint32_t kValueSize = 32;

kv::KvParams kv_params() {
  kv::KvParams p;
  p.buckets = 128;
  p.slots_per_bucket = 16;
  p.value_size = kValueSize;
  return p;
}

struct KvState {
  kv::KvServer* server = nullptr;
  Outcome* out = nullptr;
  bool timed = false;
  nvgas::rt::ActionId reply_action = nvgas::rt::kInvalidAction;
  // Per rank, indexed by token: answered flag and span of the request
  // (a deque, so a request fiber can hold a pointer to its slot).
  std::vector<std::vector<std::uint8_t>> answered;
  std::vector<std::deque<std::int32_t>> spans;
  std::uint64_t issued = 0;
  std::uint64_t replies = 0;
  std::uint64_t next_op = 0;
  std::vector<std::uint64_t> backlog;  // outstanding requests at each arrival
};

std::vector<std::byte> key_bytes(std::uint64_t k) {
  std::vector<std::byte> key(sizeof k);
  std::memcpy(key.data(), &k, sizeof k);
  return key;
}

void kv_submit(Context& ctx, KvState& st, std::uint8_t op, std::uint64_t key_idx,
               std::uint32_t ttl_us, std::int64_t due) {
  auto& ans = st.answered[static_cast<std::size_t>(ctx.rank())];
  const std::uint64_t token = ans.size();
  ans.push_back(0);
  st.spans[static_cast<std::size_t>(ctx.rank())].push_back(-1);
  kv::MsgHdr hdr;
  hdr.op = op;
  hdr.klen = sizeof key_idx;
  std::vector<std::byte> value;
  if (op == kv::OP_PUT) {
    hdr.vlen = kValueSize;
    hdr.ttl_us = ttl_us;
    // Repeated tag byte: a GET answer with mixed bytes is a torn read.
    value.assign(kValueSize, static_cast<std::byte>(
                                 (token * 131 + std::uint64_t(ctx.rank()) * 17) & 0xff));
  }
  kv::ReqMeta meta;
  meta.token = token;
  meta.t_issue = static_cast<nvgas::sim::Time>(due);
  meta.reply_action = st.reply_action;
  meta.reply_node = ctx.rank();
  st.issued++;
  const std::uint64_t op_id = ++st.next_op;
  std::int32_t* span = &st.spans[static_cast<std::size_t>(ctx.rank())].back();
  // Fire-and-forget request fiber, so the arrival loop never blocks on
  // owner resolution.
  ctx.spawn(ctx.rank(), [&st, hdr, meta, op_id, span, key = key_bytes(key_idx),
                         value = std::move(value)](Context& c) -> Fiber {
    // A named awaiter: GCC 12 destroys an aggregate temporary operand of
    // co_await twice.
    Traced req{st.server->submit(c, hdr, key, value, meta), "kv.submit", op_id,
               static_cast<std::int64_t>(meta.t_issue), span};
    co_await req;
  });
}

void kv_reply(Context& c, KvState& st, nvgas::util::Buffer raw) {
  const kv::Response rp = kv::decode_response(raw);
  Outcome& out = *st.out;
  const auto rank = static_cast<std::size_t>(c.rank());
  auto& ans = st.answered[rank];
  if (rp.hdr.token >= ans.size() || ans[rp.hdr.token] != 0) {
    fail(out, "kv reply for an unknown or already answered request");
    return;
  }
  ans[rp.hdr.token] = 1;
  st.replies++;
  bool ok = rp.hdr.code != kv::kNoSpace;
  if (!ok) fail(out, "kv PUT refused (bucket full)");
  if (rp.hdr.op == kv::OP_GET && rp.hdr.code == kv::kOk) {
    for (const std::byte b : rp.value) {
      if (b != rp.value.front()) {
        ok = false;
        fail(out, "kv GET returned a torn value");
        break;
      }
    }
  }
  if (!st.timed) {
    if (rp.hdr.code != kv::kOk) fail(out, "kv prefill PUT failed");
    return;
  }
  const auto now = static_cast<std::int64_t>(c.now());
  const auto due = static_cast<std::int64_t>(rp.hdr.t_issue);
  if (const std::int32_t span = st.spans[rank][rp.hdr.token]; span >= 0) {
    g_tracer->set_sim_end(span, now);
  }
  const std::int64_t lat = now - due;
  out.completed++;
  Latencies& l = out.lat.back();
  l.all.push_back(lat);
  if (rp.hdr.op == kv::OP_GET) l.get.push_back(lat);
  if (rp.hdr.op == kv::OP_PUT) l.put.push_back(lat);
  if (ok && lat <= kSloNs) out.within_slo++;
}

Fiber kv_generator(Context& ctx, KvState& st, const nvgas::util::ZipfGenerator& zipf,
                   std::uint64_t seed, double rate, std::int64_t t_start) {
  nvgas::util::Rng rng(seed);
  const std::int64_t t_end = t_start + kKvWindowNs;
  const std::int64_t t_shift = t_start + kKvWindowNs / 2;
  std::int64_t t = t_start;
  while (true) {
    t += std::max<std::int64_t>(
        1, static_cast<std::int64_t>(-std::log(1.0 - rng.uniform()) * 1e9 / rate));
    if (t >= t_end) co_return;
    if (t > sim_now(ctx)) co_await ctx.sleep(static_cast<nvgas::sim::Time>(t - sim_now(ctx)));
    // Mid-run hot-set rotation: the popular keys move by half the keyspace.
    std::uint64_t key = zipf.sample(rng);
    if (t >= t_shift) key = (key + kKeyspace / 2) % kKeyspace;
    const double r = rng.uniform();
    std::uint8_t op = kv::OP_GET;
    std::uint32_t ttl = 0;
    if (r >= kGetFrac) {
      op = r < kGetFrac + kPutFrac ? kv::OP_PUT : kv::OP_DEL;
      if (op == kv::OP_PUT && rng.uniform() < kTtlFrac) ttl = kTtlUs;
    }
    Outcome& out = *st.out;
    out.lat.back().lag.push_back(sim_now(ctx) - t);
    st.backlog.push_back(st.issued - st.replies);
    st.out->block_stream.emplace_back(
        static_cast<std::uint32_t>(ctx.rank()),
        st.server->bucket_addr(st.server->bucket_of(key_bytes(key))).block_key());
    kv_submit(ctx, st, op, key, ttl, t);
  }
}

Outcome kv_trial(std::uint64_t seed, double rate_scale) {
  Outcome out;
  Config cfg = Config::with_nodes(kKvNodes, GasMode::kAgasNet);
  cfg.seed = seed;
  // The kvstore sweep's balancer tuning (apps/kvstore/harness.cpp): every
  // served op costs CPU at the owner, so that is the benefit of a move.
  const kv::KvParams params = kv_params();
  cfg.lb.policy = nvgas::lb::PolicyKind::kHysteresis;
  cfg.lb.epoch_ns = 100'000;
  cfg.lb.decay_shift = 1;
  cfg.lb.max_moves_per_epoch = 4;
  cfg.lb.max_inflight = 4;
  cfg.lb.min_heat = 2 * nvgas::lb::kAccessUnit;
  cfg.lb.benefit_ns_per_access = params.op_cost_ns;
  kv::arm_lossy_plan(cfg);
  cfg.faults.seed = mix(seed, 7);
  out.nodes = kKvNodes;
  out.tlb_capacity = cfg.agas_net.tlb_capacity;
  out.tcache_capacity = cfg.gas_costs.sw_cache_capacity;

  const nvgas::util::ZipfGenerator zipf(kKeyspace, kZipfS);
  KvState st;
  st.out = &out;
  st.answered.resize(kKvNodes);
  st.spans.resize(kKvNodes);
  std::unique_ptr<kv::KvServer> server;
  std::int64_t t_start = 0;

  drive(
      out, cfg,
      [&](World& world) {
        {
          const Scope s("kv.ctor");
          server = std::make_unique<kv::KvServer>(world, params);
        }
        st.server = server.get();
        st.reply_action = world.runtime().actions().add(
            "perfbench.kv.reply", [&st](Context& c, int, nvgas::util::Buffer args) {
              kv_reply(c, st, std::move(args));
            });
        world.spawn(0, [&](Context& ctx) -> Fiber {
          const Scope s("kv.setup");
          server->setup(ctx);
          co_return;
        });
        run_world(world, out);
        // A bucket holding more keys than slots would refuse PUTs; the
        // geometry is fixed, so check it once for the whole keyspace.
        std::vector<std::uint32_t> load(params.buckets, 0);
        for (std::uint64_t k = 0; k < kKeyspace; ++k) {
          if (++load[server->bucket_of(key_bytes(k))] > params.slots_per_bucket) {
            fail(out, "kv keyspace overflows a bucket");
            break;
          }
        }
        // Warm-up: store every key once, so GETs find values.
        for (int r = 0; r < kKvNodes; ++r) {
          world.spawn(r, [&](Context& ctx) -> Fiber {
            for (std::uint64_t k = static_cast<std::uint64_t>(ctx.rank());
                 k < kKeyspace; k += kKvNodes) {
              kv_submit(ctx, st, kv::OP_PUT, k, 0, sim_now(ctx));
            }
            co_return;
          });
        }
      },
      [&](World& world) {
        st.timed = true;
        st.issued = st.replies = 0;
        t_start = static_cast<std::int64_t>(world.now()) + 10'000;
        for (int r = 0; r < kKvNodes; ++r) {
          const std::uint64_t s = mix(seed, 2, static_cast<std::uint64_t>(r));
          world.spawn(r, [&, s](Context& ctx) {
            return kv_generator(ctx, st, zipf, s, kRatePerNode * rate_scale, t_start);
          });
        }
        // Bounded: past capacity a lossy-wire trial can keep retransmitting
        // without answering its last requests, and the queue never drains.
        // Those requests then count as unanswered.
        return t_start + kKvWindowNs + kKvDrainNs;
      },
      [](World&) { return false; });

  out.attempted = st.issued;
  if (st.replies < st.issued) {
    out.failed += st.issued - st.replies;
    if (out.correct) {
      out.correct = false;
      out.error = "kv requests unanswered";
    }
  }
  // Open loop: the measured interval is the arrival window, not the drain.
  out.sim_ns = kKvWindowNs;
  set_busy_max(out);
  // The backlog grows when the last quarter of the arrival window sees
  // more than twice the outstanding requests of the second quarter.
  const std::size_t n = st.backlog.size() / 4;
  auto quarter_mean = [&](std::size_t q) {
    double sum = 0;
    for (std::size_t i = q * n; i < (q + 1) * n; ++i) {
      sum += static_cast<double>(st.backlog[i]);
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  };
  out.trials_backlog_grew = quarter_mean(3) > 2 * quarter_mean(1) + 16 ? 1 : 0;
  if (!st.backlog.empty()) {
    out.backlog_max = *std::max_element(st.backlog.begin(), st.backlog.end());
  }
  return out;
}

// Pool one trial into the running total: counts and host times add up,
// per-trial samples are kept, and the trace hashes chain in trial order.
void merge(Outcome& into, Outcome&& t) {
  if (into.correct && !t.correct) into.error = t.error;
  into.correct = into.correct && t.correct;
  into.attempted += t.attempted;
  into.failed += t.failed;
  into.setup_s += t.setup_s;
  into.timed_s += t.timed_s;
  into.setup_ref_s += t.setup_ref_s;
  into.run_s += t.run_s;
  into.allocs += t.allocs;
  into.completed += t.completed;
  into.within_slo += t.within_slo;
  into.sim_ns += t.sim_ns;
  auto append = [](std::vector<std::int64_t>& a, const std::vector<std::int64_t>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  for (Latencies& l : t.lat) into.lat.push_back(std::move(l));
  into.ref_ns_per_op.insert(into.ref_ns_per_op.end(), t.ref_ns_per_op.begin(),
                            t.ref_ns_per_op.end());
  append(into.migrate_ns, t.migrate_ns);
  into.backlog_max = std::max(into.backlog_max, t.backlog_max);
  into.trials += t.trials;
  into.trials_backlog_grew += t.trials_backlog_grew;
  if (into.counters.empty()) {
    into.counters = std::move(t.counters);
  } else {
    for (std::size_t i = 0; i < into.counters.size(); ++i) {
      into.counters[i].second += t.counters[i].second;
    }
  }
  into.events += t.events;
  into.cpu_busy_max = std::max(into.cpu_busy_max, t.cpu_busy_max);
  into.trace_hash = (into.trace_hash ^ t.trace_hash) * 0x100000001b3ULL;
  // The replays use the first trial's stream: trials are separate Worlds.
  if (into.block_stream.empty()) into.block_stream = std::move(t.block_stream);
  into.nodes = t.nodes;
  into.tlb_capacity = t.tlb_capacity;
  into.tcache_capacity = t.tcache_capacity;
}

// kv-net pools independent trials (seeds derived from the run's seed):
// where the balancer places the hot buckets differs from trial to trial,
// and pooling keeps one unlucky placement from setting the run's tail.
constexpr int kKvTrials = 16;

Outcome kv_net(std::uint64_t seed, double rate_scale) {
  Outcome out;
  out.trials = 0;
  for (int i = 0; i < kKvTrials; ++i) {
    merge(out, kv_trial(mix(seed, 100 + static_cast<std::uint64_t>(i)), rate_scale));
  }
  return out;
}

}  // namespace

double percentile(std::vector<std::int64_t> v, double p) {
  if (v.empty()) return 0;
  // Nearest rank: the smallest value with at least p of the samples at or
  // below it.
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return static_cast<double>(v[rank]);
}

double trial_quantile(const Outcome& o, std::vector<std::int64_t> Latencies::*which,
                      double p) {
  std::vector<double> per;
  for (const Latencies& l : o.lat) per.push_back(percentile(l.*which, p));
  if (per.empty()) return 0;
  // Interquartile mean: robust to the odd trial whose balancer placement
  // was unlucky, and steadier than the median when each trial's tail
  // quantile rests on few samples.
  std::sort(per.begin(), per.end());
  const std::size_t cut = per.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < per.size() - cut; ++i) sum += per[i];
  return sum / static_cast<double>(per.size() - 2 * cut);
}

namespace {

// One ladder rung, run in a child process: past the knee the simulator can
// abort (see README.md, known defects), and that must fail the rung, not
// the whole run.
Capacity::Rung run_rung(std::uint64_t seed, double scale) {
  Capacity::Rung r;
  r.offered_mops = kRatePerNode * scale * kKvNodes / 1e6;
  int fds[2];
  if (pipe(fds) != 0) {
    r.aborted = true;
    return r;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const Outcome o = kv_net(seed, scale);
    r.get_p99_us = trial_quantile(o, &Latencies::get, 0.99) / 1e3;
    r.answered = o.correct;
    // A transient after the hot-set rotation can grow one trial's queue;
    // the rate is unsustainable when that happens in a quarter of them.
    r.backlog_grew = 4 * o.trials_backlog_grew >= o.trials;
    const bool sent = write(fds[1], &r, sizeof r) == static_cast<ssize_t>(sizeof r);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  Capacity::Rung got;
  const bool read_all =
      pid > 0 && read(fds[0], &got, sizeof got) == static_cast<ssize_t>(sizeof got);
  close(fds[0]);
  int status = 0;
  const bool exited =
      pid > 0 && waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
      WEXITSTATUS(status) == 0;
  if (read_all && exited) return got;
  r.aborted = true;
  return r;
}

}  // namespace

Capacity kv_capacity(std::uint64_t seed) {
  // Offered load per node, as multiples of the fixed-rate cell's rate.
  static constexpr double kLadder[] = {1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0};
  Capacity cap;
  for (const double scale : kLadder) {
    const Capacity::Rung r = run_rung(seed, scale);
    cap.rungs.push_back(r);
    const bool within = r.get_p99_us * 1e3 <= static_cast<double>(kSloNs);
    if (!r.aborted && r.answered && !r.backlog_grew && within) {
      cap.mops = r.offered_mops;
      continue;
    }
    // Past the knee. When only the p99 limit failed, interpolate its
    // crossing between this rung and the last passing one.
    if (cap.rungs.size() > 1 && !r.aborted && r.answered && !r.backlog_grew) {
      const Capacity::Rung& prev = cap.rungs[cap.rungs.size() - 2];
      const double limit_us = static_cast<double>(kSloNs) / 1e3;
      cap.mops = prev.offered_mops + (r.offered_mops - prev.offered_mops) *
                                         (limit_us - prev.get_p99_us) /
                                         (r.get_p99_us - prev.get_p99_us);
    }
    break;
  }
  return cap;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"gups-net", "churn-sw", "kv-net"};
  return names;
}

bool known_workload(const std::string& name) {
  const auto& n = workload_names();
  return std::find(n.begin(), n.end(), name) != n.end();
}

Outcome run_workload(const std::string& workload, std::uint64_t seed,
                     double kv_rate_scale) {
  if (workload == "gups-net") return gups_net(seed);
  if (workload == "churn-sw") return churn_sw(seed);
  return kv_net(seed, kv_rate_scale);
}

}  // namespace perfbench
