// Host-side spans and allocation counting for the benchmark's traced pass.
//
// A span brackets one call from the benchmark into a layer's public entry
// point (World construction, World::run, a GAS op issue, KvServer::submit,
// a standalone translation-table replay). It records host wall time and,
// where the call has one, the simulated interval it stands for (a GAS op's
// issue-to-completion time). Spans nest by host time: the span open when
// another begins is its parent, so a layer's self time is its duration
// minus the time covered by its children. All spans of one operation
// share an op id.
//
// Spans live in memory until the run ends and are then written as Chrome
// trace-event JSON. Recording reads only the host clock and never touches
// simulator state, so a traced run has the same trace hash as an
// untraced one.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";   // layer entry point, e.g. "gas.fetch_add"
  std::uint64_t op = 0;    // operation id shared by the op's spans; 0 = none
  std::int32_t parent = -1;
  std::int64_t host_begin = 0;
  std::int64_t host_end = 0;
  std::int64_t sim_begin = -1;  // simulated ns; -1 when the call has none
  std::int64_t sim_end = -1;
};

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;  // host duration summed over spans
  std::int64_t self_ns = 0;   // host duration minus children
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }

  std::int32_t begin(const char* name, std::uint64_t op = 0,
                     std::int64_t sim_begin = -1);
  void end(std::int32_t id);
  void set_sim_end(std::int32_t id, std::int64_t t) {
    spans_[static_cast<std::size_t>(id)].sim_end = t;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  // Per span name, in name order.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;
  // Chrome trace-event JSON ("X" complete events on the host clock; the
  // simulated interval, op id and parent ride in args). Returns false if
  // the file cannot be written.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// The tracer of the current traced pass; null when tracing is off, which
// makes every Scope a single branch.
extern Tracer* g_tracer;

class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t op = 0,
                 std::int64_t sim_begin = -1)
      : id_(g_tracer != nullptr ? g_tracer->begin(name, op, sim_begin) : -1) {}
  ~Scope() {
    if (id_ >= 0) g_tracer->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  std::int32_t id_;
};

// Global operator new calls made while counting is on (the timed phase).
struct AllocCounter {
  static void start();
  static std::uint64_t stop();  // returns the count since start()
};

}  // namespace perfbench
