// Parameterized end-to-end correctness of the data path across all three
// address-space managers and several cluster sizes.
#include <gtest/gtest.h>

#include <map>

#include "core/nvgas.hpp"

namespace nvgas {
namespace {

struct ModeParam {
  GasMode mode;
  // gtest names each instance "# GetParam() = N-byte object <..>" from
  // every byte of the param; compiler padding there is uninitialized and
  // would make the names differ from one build to the next.
  std::uint8_t padding[3] = {};
  int nodes;
};

std::string param_name(const ::testing::TestParamInfo<ModeParam>& info) {
  const char* mode = info.param.mode == GasMode::kPgas     ? "pgas"
                     : info.param.mode == GasMode::kAgasSw ? "agassw"
                                                           : "agasnet";
  return std::string(mode) + "_" + std::to_string(info.param.nodes) + "n";
}

class GasModesTest : public ::testing::TestWithParam<ModeParam> {
 protected:
  Config make_config() const {
    Config cfg = Config::with_nodes(GetParam().nodes, GetParam().mode);
    cfg.machine.mem_bytes_per_node = 8u << 20;
    return cfg;
  }
};

TEST_P(GasModesTest, PutGetRoundTripAcrossAllBlocks) {
  World world(make_config());
  const int P = world.ranks();
  bool checked = false;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const std::uint32_t nblocks = static_cast<std::uint32_t>(2 * P);
    const Gva base = alloc_cyclic(ctx, nblocks, 256);
    for (std::uint32_t b = 0; b < nblocks; ++b) {
      const Gva addr = base.advanced(static_cast<std::int64_t>(b) * 256 + 8, 256);
      co_await memput_value<std::uint64_t>(ctx, addr, 1000 + b);
    }
    for (std::uint32_t b = 0; b < nblocks; ++b) {
      const Gva addr = base.advanced(static_cast<std::int64_t>(b) * 256 + 8, 256);
      const auto v = co_await memget_value<std::uint64_t>(ctx, addr);
      EXPECT_EQ(v, 1000 + b) << "block " << b;
    }
    checked = true;
  });
  world.run();
  EXPECT_TRUE(checked);
}

TEST_P(GasModesTest, EveryRankSeesEveryWrite) {
  World world(make_config());
  const int P = world.ranks();
  Gva base;
  // Rank 0 allocates and writes; then each rank reads every slot.
  world.spawn(0, [&](Context& ctx) -> Fiber {
    base = alloc_cyclic(ctx, static_cast<std::uint32_t>(P), 512);
    for (int b = 0; b < P; ++b) {
      co_await memput_value<std::uint64_t>(
          ctx, base.advanced(b * 512, 512), 7000 + static_cast<std::uint64_t>(b));
    }
    int readers_done = 0;
    rt::AndGate gate(static_cast<std::uint64_t>(P));
    const rt::LcoRef gref = ctx.make_ref(gate);
    for (int r = 0; r < P; ++r) {
      ctx.spawn(r, [&, gref](Context& c) -> Fiber {
        for (int b = 0; b < P; ++b) {
          const auto v = co_await memget_value<std::uint64_t>(
              c, base.advanced(b * 512, 512));
          EXPECT_EQ(v, 7000 + static_cast<std::uint64_t>(b));
        }
        ++readers_done;
        c.set_lco(gref);
      });
    }
    co_await gate;
    EXPECT_EQ(readers_done, P);
  });
  world.run();
}

TEST_P(GasModesTest, FetchAddIsAtomicAcrossRanks) {
  World world(make_config());
  const int P = world.ranks();
  const int kPerRank = 10;
  Gva counter;
  std::uint64_t final_value = 0;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    counter = alloc_cyclic(ctx, 1, 64);
    rt::AndGate gate(static_cast<std::uint64_t>(P));
    const rt::LcoRef gref = ctx.make_ref(gate);
    for (int r = 0; r < P; ++r) {
      ctx.spawn(r, [&, gref](Context& c) -> Fiber {
        for (int i = 0; i < kPerRank; ++i) {
          (void)co_await fetch_add(c, counter, 1);
        }
        c.set_lco(gref);
      });
    }
    co_await gate;
    final_value = co_await memget_value<std::uint64_t>(ctx, counter);
  });
  world.run();
  EXPECT_EQ(final_value, static_cast<std::uint64_t>(P) * kPerRank);
}

TEST_P(GasModesTest, FetchAddOldValuesAreAPermutation) {
  World world(make_config());
  const int P = world.ranks();
  Gva counter;
  std::vector<std::uint64_t> olds;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    counter = alloc_cyclic(ctx, 1, 64);
    rt::AndGate gate(static_cast<std::uint64_t>(P));
    const rt::LcoRef gref = ctx.make_ref(gate);
    for (int r = 0; r < P; ++r) {
      ctx.spawn(r, [&, gref](Context& c) -> Fiber {
        const auto old = co_await fetch_add(c, counter, 1);
        olds.push_back(old);
        c.set_lco(gref);
      });
    }
    co_await gate;
  });
  world.run();
  std::sort(olds.begin(), olds.end());
  for (int i = 0; i < P; ++i) {
    EXPECT_EQ(olds[static_cast<std::size_t>(i)], static_cast<std::uint64_t>(i));
  }
}

TEST_P(GasModesTest, ResolveReportsHomeBeforeMigration) {
  World world(make_config());
  const int P = world.ranks();
  world.run_spmd([&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, static_cast<std::uint32_t>(P), 128);
    for (int b = 0; b < P; ++b) {
      const Gva addr = base.advanced(b * 128, 128);
      const int owner = co_await resolve(ctx, addr);
      EXPECT_EQ(owner, addr.home(P));
    }
  });
}

TEST_P(GasModesTest, LargeTransfersRoundTrip) {
  World world(make_config());
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const std::uint32_t bsize = 64 * 1024;
    const Gva base = alloc_cyclic(ctx, 4, bsize);
    const Gva target = base.advanced(bsize, bsize);  // block on another rank
    std::vector<std::byte> blob(bsize);
    for (std::size_t i = 0; i < blob.size(); ++i) {
      blob[i] = static_cast<std::byte>((i * 31 + 7) & 0xff);
    }
    co_await memput(ctx, target, blob);
    const auto back = co_await memget(ctx, target, bsize);
    EXPECT_EQ(back, blob);
  });
  world.run();
}

TEST_P(GasModesTest, OneSidedDataPathKeepsTargetCpuIdle) {
  // The structural claim: after warmup, puts/gets never run CPU tasks on
  // the target for PGAS and AGAS-NET. (AGAS-SW runs directory work on the
  // home CPU for every cold block — asserted the other way around.)
  World world(make_config());
  const int P = world.ranks();
  if (P < 3) GTEST_SKIP();
  Gva base;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    base = alloc_cyclic(ctx, static_cast<std::uint32_t>(P), 256);
    // Warm up: one access per block.
    for (int b = 0; b < P; ++b) {
      co_await memput_value<std::uint64_t>(ctx, base.advanced(b * 256, 256), 1);
    }
  });
  world.run();

  const auto tasks_before = world.fabric().cpu(2).tasks_run();
  world.spawn(0, [&](Context& ctx) -> Fiber {
    // Hot loop against the block homed on rank 2.
    const Gva addr = base.advanced((2 - base.home(P) + P) % P * 256, 256);
    EXPECT_EQ(addr.home(P), 2);
    for (int i = 0; i < 16; ++i) {
      co_await memput_value<std::uint64_t>(ctx, addr, i);
      (void)co_await memget_value<std::uint64_t>(ctx, addr);
    }
  });
  world.run();
  const auto tasks_after = world.fabric().cpu(2).tasks_run();

  if (GetParam().mode == GasMode::kAgasSw) {
    // Software AGAS already resolved during warmup, so the hot loop is
    // also CPU-free at the target — but the warmup itself ran directory
    // tasks (checked via counters).
    EXPECT_GT(world.counters().directory_lookups, 0u);
  } else {
    EXPECT_EQ(world.counters().directory_lookups, 0u);
  }
  EXPECT_EQ(tasks_after, tasks_before)
      << "data path must not schedule CPU tasks at the target";
}

TEST_P(GasModesTest, DeterministicAcrossRuns) {
  auto run_once = [&] {
    World world(make_config());
    world.run_spmd([&](Context& ctx) -> Fiber {
      const Gva base = alloc_local(ctx, 2, 128);
      co_await memput_value<std::uint64_t>(
          ctx, base, static_cast<std::uint64_t>(ctx.rank()));
      const auto v = co_await memget_value<std::uint64_t>(ctx, base);
      EXPECT_EQ(v, static_cast<std::uint64_t>(ctx.rank()));
    });
    return world.engine().trace_hash();
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, GasModesTest,
    ::testing::Values(ModeParam{.mode = GasMode::kPgas, .nodes = 2},
                      ModeParam{.mode = GasMode::kPgas, .nodes = 8},
                      ModeParam{.mode = GasMode::kAgasSw, .nodes = 2},
                      ModeParam{.mode = GasMode::kAgasSw, .nodes = 8},
                      ModeParam{.mode = GasMode::kAgasNet, .nodes = 2},
                      ModeParam{.mode = GasMode::kAgasNet, .nodes = 8}),
    param_name);

}  // namespace
}  // namespace nvgas
