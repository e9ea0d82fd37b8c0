#include "spans.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace perfbench {

Tracer* g_tracer = nullptr;

std::int32_t Tracer::begin(const char* name, std::uint64_t op,
                           std::int64_t sim_begin) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = open_.empty() ? -1 : open_.back();
  s.sim_begin = sim_begin;
  const auto id = static_cast<std::int32_t>(spans_.size());
  open_.push_back(id);
  s.host_begin = host_ns();
  spans_.push_back(s);
  return id;
}

void Tracer::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].host_end = host_ns();
  // Scopes close in LIFO order; the id is always the innermost open span.
  open_.pop_back();
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans_) {
    const std::int64_t d = s.host_end - s.host_begin;
    auto& t = out[s.name];
    t.count++;
    t.total_ns += d;
    t.self_ns += d;
    if (s.parent >= 0) {
      out[spans_[static_cast<std::size_t>(s.parent)].name].self_ns -= d;
    }
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().host_begin;
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %d, \"op\": %llu, \"sim_begin_ns\": %lld, "
                 "\"sim_end_ns\": %lld}}",
                 i == 0 ? "" : ",\n", s.name,
                 static_cast<double>(s.host_begin - t0) / 1e3,
                 static_cast<double>(s.host_end - s.host_begin) / 1e3, i,
                 s.parent, static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.sim_begin),
                 static_cast<long long>(s.sim_end));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void AllocCounter::start() {
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
}

std::uint64_t AllocCounter::stop() {
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace perfbench

// Counting replacements for the global allocation functions. The nothrow
// forms forward here through the standard library's defaults; the aligned
// forms keep the library's own allocator and are not counted.
void* operator new(std::size_t n) {
  if (perfbench::g_counting.load(std::memory_order_relaxed)) {
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }
// GCC cannot see that the replaced operator new above is what allocated
// `p`, and flags the matching free().
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
#pragma GCC diagnostic pop
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
