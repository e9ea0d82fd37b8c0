// Micro-benchmarks (google-benchmark) of the host-side data structures on
// the simulator's hot paths: address codec, NIC TLB, translation cache,
// parcel codec, event engine, RNG. These measure real wall-clock cost of
// the implementation itself (not simulated time).
#include <benchmark/benchmark.h>

#include "gas/block_store.hpp"
#include "gas/gva.hpp"
#include "gas/tcache.hpp"
#include "net/nic_tlb.hpp"
#include "sim/engine.hpp"
#include "sim/memory.hpp"
#include "sim/topology.hpp"
#include "util/buffer.hpp"
#include "util/histogram.hpp"
#include "util/zipf.hpp"
#include "util/rng.hpp"

namespace {

using namespace nvgas;

void BM_GvaEncodeDecode(benchmark::State& state) {
  std::uint32_t b = 0;
  for (auto _ : state) {
    const auto g = gas::Gva::make(gas::Dist::kCyclic, 3, 17, b++ & 0xfffff, 128);
    benchmark::DoNotOptimize(g.home(64));
    benchmark::DoNotOptimize(g.block_key());
  }
}
BENCHMARK(BM_GvaEncodeDecode);

void BM_GvaAdvance(benchmark::State& state) {
  gas::Gva g = gas::Gva::make(gas::Dist::kCyclic, 1, 2, 0, 0);
  for (auto _ : state) {
    g = g.advanced(24, 4096);
    benchmark::DoNotOptimize(g);
    if (g.block() > 1000000) g = gas::Gva::make(gas::Dist::kCyclic, 1, 2, 0, 0);
  }
}
BENCHMARK(BM_GvaAdvance);

void BM_NicTlbLookupHit(benchmark::State& state) {
  net::NicTlb tlb(static_cast<std::size_t>(state.range(0)));
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    net::TlbEntry e;
    e.owner = static_cast<int>(i % 7);
    tlb.insert(static_cast<std::uint64_t>(i) << 20, e);
  }
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tlb.lookup((k++ % static_cast<std::uint64_t>(state.range(0))) << 20));
  }
}
BENCHMARK(BM_NicTlbLookupHit)->Arg(64)->Arg(4096)->Arg(65536);

void BM_NicTlbInsertEvict(benchmark::State& state) {
  net::NicTlb tlb(1024);
  std::uint64_t k = 0;
  net::TlbEntry e;
  e.owner = 1;
  for (auto _ : state) {
    tlb.insert((k++) << 20, e);
  }
}
BENCHMARK(BM_NicTlbInsertEvict);

// The gups-net pattern: lookup, and on a miss install the translation the
// reply piggybacks. Uniform keys over ~16x the default capacity give a
// ~94% miss ratio, so nearly every op is miss + insert + LRU eviction.
void BM_NicTlbMissInsert(benchmark::State& state) {
  constexpr std::uint64_t kCapacity = 65536;  // AgasNetConfig default
  net::NicTlb tlb(kCapacity);
  util::Rng rng(11);
  net::TlbEntry e;
  e.owner = 1;
  for (auto _ : state) {
    const std::uint64_t key = rng.below(16 * kCapacity) << 20;
    if (!tlb.lookup(key).has_value()) tlb.insert(key, e);
  }
  state.counters["miss_ratio"] =
      static_cast<double>(tlb.misses()) /
      static_cast<double>(tlb.hits() + tlb.misses());
}
BENCHMARK(BM_NicTlbMissInsert);

void BM_TranslationCacheLookup(benchmark::State& state) {
  gas::TranslationCache cache(4096);
  for (std::uint64_t i = 0; i < 4096; ++i) {
    cache.insert(i << 20, gas::CacheEntry{static_cast<int>(i % 5), i * 64, 0});
  }
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup((k++ % 4096) << 20));
  }
}
BENCHMARK(BM_TranslationCacheLookup);

void BM_BufferPackUnpack(benchmark::State& state) {
  for (auto _ : state) {
    util::Buffer b;
    b.put<std::uint32_t>(7);
    b.put<std::uint64_t>(0xdeadbeef);
    b.put<double>(2.5);
    auto r = b.reader();
    benchmark::DoNotOptimize(r.get<std::uint32_t>());
    benchmark::DoNotOptimize(r.get<std::uint64_t>());
    benchmark::DoNotOptimize(r.get<double>());
  }
}
BENCHMARK(BM_BufferPackUnpack);

void BM_EngineScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    for (int i = 0; i < 64; ++i) {
      e.at(static_cast<sim::Time>(i * 13 % 29), [] {});
    }
    e.run();
    benchmark::DoNotOptimize(e.trace_hash());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EngineScheduleRun);

void BM_HistogramAdd(benchmark::State& state) {
  util::LogHistogram h;
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.add(v);
    v = v * 2862933555777941757ULL + 3037000493ULL;
    v >>= 40;
    ++v;
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramAdd);

void BM_RngBelow(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(1000003));
  }
}
BENCHMARK(BM_RngBelow);

void BM_ZipfSample(benchmark::State& state) {
  util::Rng rng(1);
  util::ZipfGenerator zipf(static_cast<std::uint64_t>(state.range(0)), 1.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(64)->Arg(65536);

void BM_BlockStoreAllocateRelease(benchmark::State& state) {
  gas::BlockStore store(64u << 20);
  for (auto _ : state) {
    const auto lva = store.allocate(4096);
    benchmark::DoNotOptimize(lva);
    store.release(lva, 4096);
  }
}
BENCHMARK(BM_BlockStoreAllocateRelease);

void BM_MemoryChunkedWrite(benchmark::State& state) {
  sim::Memory mem(64u << 20);
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)),
                              std::byte{0x5a});
  sim::Lva at = 0;
  for (auto _ : state) {
    mem.write(at, data);
    at = (at + data.size()) % (48u << 20);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MemoryChunkedWrite)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_TopologyHops(benchmark::State& state) {
  sim::Topology torus(sim::TopologyKind::kTorus2D, 256);
  int a = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(torus.hops(a & 255, (a * 37) & 255));
    ++a;
  }
}
BENCHMARK(BM_TopologyHops);

}  // namespace

BENCHMARK_MAIN();
