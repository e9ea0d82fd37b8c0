// Randomized property tests: each address-space manager must behave like
// a flat sequential memory under serialized operations, and like
// per-region sequential memories under rank-disjoint concurrent traffic —
// with migrations injected throughout.
#include <gtest/gtest.h>

#include <map>

#include "core/nvgas.hpp"
#include "gas/invariants.hpp"

namespace nvgas {
namespace {

struct FuzzParam {
  GasMode mode;
  // gtest names each instance "# GetParam() = N-byte object <..>" from
  // every byte of the param; compiler padding there is uninitialized and
  // would make the names differ from one build to the next.
  std::uint8_t padding[7] = {};
  std::uint64_t seed;
};

std::string fuzz_name(const ::testing::TestParamInfo<FuzzParam>& info) {
  const char* mode = info.param.mode == GasMode::kPgas     ? "pgas"
                     : info.param.mode == GasMode::kAgasSw ? "agassw"
                                                           : "agasnet";
  return std::string(mode) + "_seed" + std::to_string(info.param.seed);
}

class GasFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

// One fiber performs a random serialized op sequence; a std::map is the
// reference memory. Every get must match the reference exactly.
TEST_P(GasFuzzTest, SerializedOpsMatchReferenceModel) {
  Config cfg = Config::with_nodes(8, GetParam().mode);
  cfg.machine.mem_bytes_per_node = 8u << 20;
  // Tiny SW cache / TLB to exercise eviction paths under fuzz.
  cfg.gas_costs.sw_cache_capacity = 8;
  cfg.agas_net.tlb_capacity = 16;
  World world(cfg);
  gas::InvariantObserver obs(world.gas());
  const bool mobile = GetParam().mode != GasMode::kPgas;

  constexpr std::uint32_t kBlocks = 16;
  constexpr std::uint32_t kBlockSize = 256;
  constexpr int kOps = 400;

  bool finished = false;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    util::Rng rng(GetParam().seed);
    std::map<std::uint64_t, std::uint64_t> reference;  // word index -> value
    const Gva base = alloc_cyclic(ctx, kBlocks, kBlockSize);
    const std::uint64_t words = kBlocks * kBlockSize / 8;

    for (int i = 0; i < kOps; ++i) {
      const std::uint64_t w = rng.below(words);
      const Gva addr = base.advanced(static_cast<std::int64_t>(w) * 8, kBlockSize);
      const auto choice = rng.below(mobile ? 4 : 3);
      switch (choice) {
        case 0: {  // put
          const std::uint64_t v = rng.next();
          co_await memput_value<std::uint64_t>(ctx, addr, v);
          reference[w] = v;
          break;
        }
        case 1: {  // get
          const auto v = co_await memget_value<std::uint64_t>(ctx, addr);
          const auto expect = reference.count(w) ? reference[w] : 0;
          EXPECT_EQ(v, expect) << "word " << w << " op " << i;
          break;
        }
        case 2: {  // fetch_add
          const std::uint64_t d = rng.below(1000);
          const auto old = co_await fetch_add(ctx, addr, d);
          const auto expect = reference.count(w) ? reference[w] : 0;
          EXPECT_EQ(old, expect) << "word " << w << " op " << i;
          reference[w] = expect + d;
          break;
        }
        case 3: {  // migrate the containing block
          const int dst = static_cast<int>(rng.below(8));
          co_await migrate(ctx, addr, dst);
          EXPECT_EQ(world.gas().owner_of(addr).first, dst);
          break;
        }
      }
    }
    finished = true;
  });
  world.run();
  EXPECT_EQ(obs.check_quiescent(world.counters()), "");
  EXPECT_TRUE(finished);
}

// Every rank owns a disjoint slice of the table and fuzzes it
// concurrently with all the others; rank-local reference models must
// hold. Random migrations of *foreign* blocks are injected by rank 0 to
// shake the translation machinery underneath the traffic.
TEST_P(GasFuzzTest, ConcurrentDisjointRegionsMatchReference) {
  Config cfg = Config::with_nodes(8, GetParam().mode);
  cfg.machine.mem_bytes_per_node = 8u << 20;
  World world(cfg);
  gas::InvariantObserver obs(world.gas());
  const bool mobile = GetParam().mode != GasMode::kPgas;
  const int P = world.ranks();

  constexpr std::uint32_t kBlockSize = 512;
  const std::uint32_t blocks = static_cast<std::uint32_t>(2 * P);
  const std::uint64_t words_per_rank = 2 * kBlockSize / 8;

  Gva base;
  int done_ranks = 0;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    base = alloc_cyclic(ctx, blocks, kBlockSize);
    rt::AndGate gate(static_cast<std::uint64_t>(P));
    const rt::LcoRef gref = ctx.make_ref(gate);
    for (int r = 0; r < P; ++r) {
      ctx.spawn(r, [&, r, gref](Context& c) -> Fiber {
        util::Rng rng(GetParam().seed * 977 + static_cast<std::uint64_t>(r));
        std::map<std::uint64_t, std::uint64_t> reference;
        // Rank r owns words [r*words_per_rank, (r+1)*words_per_rank).
        for (int i = 0; i < 120; ++i) {
          const std::uint64_t w =
              static_cast<std::uint64_t>(r) * words_per_rank + rng.below(words_per_rank);
          const Gva addr =
              base.advanced(static_cast<std::int64_t>(w) * 8, kBlockSize);
          if (rng.chance(0.5)) {
            const std::uint64_t v = rng.next();
            co_await memput_value<std::uint64_t>(c, addr, v);
            reference[w] = v;
          } else {
            const auto v = co_await memget_value<std::uint64_t>(c, addr);
            const auto expect = reference.count(w) ? reference[w] : 0;
            EXPECT_EQ(v, expect) << "rank " << r << " word " << w;
          }
        }
        ++done_ranks;
        c.set_lco(gref);
      });
    }
    if (mobile) {
      // Migration churn under the traffic.
      util::Rng mrng(GetParam().seed + 17);
      for (int i = 0; i < 10; ++i) {
        const std::uint32_t b = static_cast<std::uint32_t>(mrng.below(blocks));
        const int dst = static_cast<int>(mrng.below(static_cast<std::uint64_t>(P)));
        co_await migrate(
            ctx, base.advanced(static_cast<std::int64_t>(b) * kBlockSize, kBlockSize),
            dst);
      }
    }
    co_await gate;
  });
  world.run();
  EXPECT_EQ(obs.check_quiescent(world.counters()), "");
  EXPECT_EQ(done_ranks, P);
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, GasFuzzTest,
    ::testing::Values(FuzzParam{.mode = GasMode::kPgas, .seed = 1},
                      FuzzParam{.mode = GasMode::kPgas, .seed = 2},
                      FuzzParam{.mode = GasMode::kAgasSw, .seed = 1},
                      FuzzParam{.mode = GasMode::kAgasSw, .seed = 2},
                      FuzzParam{.mode = GasMode::kAgasSw, .seed = 3},
                      FuzzParam{.mode = GasMode::kAgasNet, .seed = 1},
                      FuzzParam{.mode = GasMode::kAgasNet, .seed = 2},
                      FuzzParam{.mode = GasMode::kAgasNet, .seed = 3}),
    fuzz_name);

}  // namespace
}  // namespace nvgas
