// Discrete-event simulation engine.
//
// Deterministic: events execute in (time, sequence) order, so a given
// program + seed always yields the identical event trace. The engine
// folds every executed (time, seq) pair into a running FNV-1a hash,
// which tests use to assert determinism end-to-end.
//
// The same-timestamp tie-break is a PINNED, asserted contract: co-timed
// events execute in ascending seq — i.e. scheduling — order, making the
// execution order a strict total order over (time, seq). execute()
// checks this on every event in all build types. mcheck (tools/mcheck)
// replays counterexample schedules from a schedule string alone and
// depends on this order never changing; see docs/MODEL_CHECKING.md.
//
// Implementation: a calendar-queue / timing-wheel hybrid tuned for
// zero-allocation steady state (see DESIGN.md §3 and
// sim/reference_engine.hpp for the original binary-heap oracle):
//   * events live in pooled, recycled nodes whose callbacks use
//     util::InlineFunction (no malloc for captures <= 48 bytes);
//   * events within the wheel horizon (default 64 µs, one slot per
//     nanosecond) go into power-of-two time buckets — O(1) insert, and
//     pop finds the next occupied slot through a two-level occupancy
//     bitmap;
//   * events beyond the horizon overflow into a small binary heap of
//     16-byte references and are decanted into the wheel as it advances.
// Each bucket covers exactly one nanosecond, so FIFO order within a
// bucket is (time, seq) order, and the trace hash is byte-identical to
// the reference heap engine for any schedule.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/inline_function.hpp"

namespace nvgas::sim {

class Engine {
 public:
  using Callback = util::InlineFunction<void(), 48>;

  // Handle for cancellable timers. Tokens are single-use: once the event
  // fired or was cancelled, further cancel() calls return false.
  struct TimerId {
    std::uint32_t node = kNoNode;  // pool index
    std::uint64_t seq = 0;
    [[nodiscard]] bool valid() const { return node != kNoNode; }
  };

  static constexpr Time kDefaultHorizonNs = 64 * kMicrosecond;

  explicit Engine(Time horizon_ns = kDefaultHorizonNs);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  // Schedule `fn` at absolute simulated time `t` (must be >= now()).
  void at(Time t, Callback fn) { (void)schedule(t, std::move(fn)); }

  // Schedule `fn` `delay` nanoseconds from now. `now() + delay` must not
  // wrap around the 64-bit Time range.
  void after(Time delay, Callback fn) {
    NVGAS_CHECK_MSG(delay <= ~Time{0} - now_, "Time overflow in after()");
    (void)schedule(now_ + delay, std::move(fn));
  }

  // Cancellable variants. A cancelled event never runs and never enters
  // the trace hash; its sequence number is still consumed.
  [[nodiscard]] TimerId at_cancellable(Time t, Callback fn) {
    return schedule(t, std::move(fn));
  }
  [[nodiscard]] TimerId after_cancellable(Time delay, Callback fn) {
    NVGAS_CHECK_MSG(delay <= ~Time{0} - now_, "Time overflow in after()");
    return schedule(now_ + delay, std::move(fn));
  }

  // O(1); returns true if the event had not yet fired or been cancelled.
  bool cancel(TimerId id);

  [[nodiscard]] bool idle() const { return pending_ == 0; }
  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::uint64_t trace_hash() const { return trace_hash_; }

  // Introspection for tests: events currently parked in the overflow
  // heap (beyond the wheel horizon), and the configured horizon.
  [[nodiscard]] std::size_t overflow_pending() const { return far_.size(); }
  [[nodiscard]] Time horizon() const { return slots_; }

  // Execute the next event; returns false when idle.
  bool step();

  // Run until the event queue drains or `max_events` have executed.
  // Returns the number of events executed. Benchmarks use the event cap
  // as a livelock watchdog.
  std::uint64_t run(std::uint64_t max_events = ~0ULL);

  // Run until simulated time reaches `deadline` (events at exactly
  // `deadline` still run) or the queue drains.
  std::uint64_t run_until(Time deadline);

#ifdef NVGAS_SIMSAN
  // Death-test hook: invoke a node's callback slot directly, bypassing
  // all scheduling bookkeeping. On a recycled node this hits the poison
  // vtable and aborts with the use-after-recycle diagnostic. Tests only.
  void simsan_invoke_slot(std::uint32_t node) { pool_.at(node).fn(); }
#endif

 private:
  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  struct EventNode {
    Time at = 0;
    std::uint64_t seq = 0;
    std::int32_t next = -1;  // bucket chain when scheduled, else free list
    bool cancelled = false;
    bool live = false;  // scheduled (possibly cancelled) vs recycled
#ifdef NVGAS_SIMSAN
    // Canaries bracket the callback storage; an overwrite from either
    // side (chain corruption, closure overrun) trips the audit.
    std::uint64_t canary_pre = kSimsanCanary;
#endif
    Callback fn;
#ifdef NVGAS_SIMSAN
    std::uint64_t canary_post = kSimsanCanary;
#endif
  };

#ifdef NVGAS_SIMSAN
  static constexpr std::uint64_t kSimsanCanary = 0x51edC0DE5AFEC0DEULL;
  void simsan_audit(const EventNode& n, const char* site) const;
#endif

  // 16-byte sort key + pool index for far-future events; the closure
  // stays in the pool, so heap sift operations move only PODs.
  struct FarRef {
    Time at;
    std::uint64_t seq;
    std::int32_t node;
  };
  struct FarLater {
    bool operator()(const FarRef& a, const FarRef& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  TimerId schedule(Time t, Callback fn);
  std::int32_t alloc_node();
  void recycle(std::int32_t idx);
  void push_bucket(std::int32_t idx);
  void remove_bucket_head(std::uint32_t slot);
  void set_bit(std::uint32_t slot);
  void clear_bit(std::uint32_t slot);
  [[nodiscard]] std::int32_t scan_range(std::uint32_t from,
                                        std::uint32_t end) const;
  void decant();
  std::int32_t pop_next(bool bounded, Time deadline);
  void execute(std::int32_t idx);

  // Event node pool.
  std::vector<EventNode> pool_;
  std::int32_t free_head_ = -1;

  // Timing wheel: one slot per nanosecond over [window_start_,
  // window_start_ + slots_). Within a bucket, the chain is FIFO — all
  // entries share one timestamp, so insertion order is seq order.
  std::uint32_t slots_ = 0;  // power of two
  std::uint32_t mask_ = 0;
  Time window_start_ = 0;
  std::vector<std::int32_t> bucket_head_;
  std::vector<std::int32_t> bucket_tail_;
  std::vector<std::uint64_t> occ_;      // one bit per slot
  std::vector<std::uint64_t> occ_sum_;  // one bit per occ word
  std::size_t wheel_count_ = 0;         // nodes resident in the wheel

  // Far-future overflow (at >= window_start_ + slots_ at insert time).
  std::priority_queue<FarRef, std::vector<FarRef>, FarLater> far_;

  // Tie-break audit state: the last executed (time, seq) pair, used to
  // assert the pinned total order in execute().
  Time last_exec_at_ = 0;
  std::uint64_t last_exec_seq_ = 0;
  bool executed_any_ = false;

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;  // live (non-cancelled) scheduled events
  std::uint64_t trace_hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace nvgas::sim
