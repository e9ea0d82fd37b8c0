// Host speed probe, to read host times at one reference speed.
//
// The VM the benchmark was written on shares its cores and memory system
// with other tenants, whose load slowed the simulator by up to 2x for
// minutes at a time. The probe is a small fixed event loop of the
// simulator's kind: a binary heap of timed events, a hash table of state
// and random reads and writes of a 16 MiB table, with branches on the data.
// Its time moves with the same contention. It runs none of the simulator's
// code and allocates all its memory up front, so a change to the simulator
// does not move it.
//
// drive() brackets each World with runs of the probe: the one before it
// (the previous World's closing run, or main's first) and one after its
// timed phase. Its host times, scaled by kProbeRefMs / (mean of the two
// runs), read as if the machine ran the probe in kProbeRefMs, its time on
// that VM when nothing else loaded it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "spans.hpp"

namespace perfbench {

constexpr double kProbeRefMs = 30.0;

class SpeedProbe {
 public:
  SpeedProbe() : table_(kTableWords), state_(kStateSlots) {
    heap_.reserve(kEvents);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t& w : table_) w = next(x);
  }

  // Runs the event loop once; returns its host ms.
  double run() {
    const std::int64_t t0 = host_ns();
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    heap_.clear();
    for (std::uint32_t i = 0; i < kEvents; ++i) {
      heap_.push_back({next(x) & 0xffff, next(x) % kKeys + 1});
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < kSteps; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const Event e = heap_.back();
      heap_.pop_back();
      const std::uint64_t r = next(x);
      // Linear-probe lookup of the event's key.
      std::uint64_t slot = (e.key * 0x9e3779b97f4a7c15ULL) >> (64 - kStateBits);
      while (state_[slot].key != e.key && state_[slot].key != 0) {
        slot = (slot + 1) & (kStateSlots - 1);
      }
      State& s = state_[slot];
      s.key = e.key;
      s.value += table_[r & (kTableWords - 1)];
      table_[(r >> 32) & (kTableWords - 1)] ^= s.value;
      if ((s.value & 3) == 0) {
        acc += s.value;
      } else {
        acc ^= s.value >> 1;
      }
      heap_.push_back({e.time + 1 + (r & 0xff), (e.key + (r >> 40)) % kKeys + 1});
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
    runs_.push_back(static_cast<double>(host_ns() - t0) / 1e6);
    sink_ = acc;
    return runs_.back();
  }
  [[nodiscard]] double last_ms() const { return runs_.back(); }
  // Scale for host times measured between a run that took `before_ms`
  // and a fresh run.
  double scale_since(double before_ms) { return 2 * kProbeRefMs / (before_ms + run()); }
  // Every run so far, in order.
  [[nodiscard]] const std::vector<double>& runs() const { return runs_; }

 private:
  struct Event {
    std::uint64_t time;
    std::uint64_t key;
    bool operator>(const Event& o) const { return time > o.time; }
  };
  struct State {
    std::uint64_t key = 0;  // 0 = empty
    std::uint64_t value = 0;
  };

  static std::uint64_t next(std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  static constexpr std::uint32_t kTableWords = 2u << 20;  // 16 MiB
  static constexpr int kStateBits = 20;
  static constexpr std::uint64_t kStateSlots = 1ULL << kStateBits;  // 16 MiB
  static constexpr std::uint64_t kKeys = 256U << 10;  // a quarter of the slots
  static constexpr std::uint32_t kEvents = 4096;
  static constexpr std::uint32_t kSteps = 200'000;
  std::vector<std::uint64_t> table_;
  std::vector<State> state_;
  std::vector<Event> heap_;
  std::vector<double> runs_;
  volatile std::uint64_t sink_ = 0;
};

// The probe drive() brackets Worlds with; null while host times are not
// scaled (the warm-up repetition, the capacity ladder).
inline SpeedProbe* g_probe = nullptr;

}  // namespace perfbench
