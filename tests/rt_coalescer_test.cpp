// Runtime message coalescing.
#include <gtest/gtest.h>

#include "core/nvgas.hpp"
#include "rt/coalescer.hpp"

namespace nvgas::rt {
namespace {

struct CoalescerFixture : ::testing::Test {
  CoalescerFixture() : world(Config::with_nodes(4, GasMode::kPgas)) {}
  World world;
};

TEST_F(CoalescerFixture, MessagesDeliveredInOrder) {
  Coalescer co(world.runtime());
  std::vector<int> seen;
  const auto act = register_action<int>(
      world.runtime().actions(), "co.sink",
      [&](Context&, int, int v) { seen.push_back(v); });
  world.spawn(0, [&](Context& ctx) -> Fiber {
    for (int i = 0; i < 10; ++i) {
      co.send(ctx, 1, act, pack_args(i));
    }
    co.flush_all(ctx);
    co_return;
  });
  world.run();
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(co.messages_coalesced(), 10u);
  EXPECT_EQ(co.batches_sent(), 1u);
}

TEST_F(CoalescerFixture, SizeTriggerFlushesAutomatically) {
  CoalescerConfig cfg;
  cfg.max_batch_bytes = 128;
  cfg.max_delay_ns = 10'000'000;  // effectively never
  Coalescer co(world.runtime(), cfg);
  int received = 0;
  const auto act = register_action<std::uint64_t>(
      world.runtime().actions(), "co.size",
      [&](Context&, int, std::uint64_t) { ++received; });
  world.spawn(0, [&](Context& ctx) -> Fiber {
    // Each message is 4+4+8 = 16 bytes; 128/16 = 8 per batch.
    for (int i = 0; i < 24; ++i) {
      co.send(ctx, 2, act, pack_args(std::uint64_t{1}));
    }
    co_return;  // NO explicit flush: size trigger must have fired 3x
  });
  world.run();
  EXPECT_EQ(received, 24);
  EXPECT_EQ(co.batches_sent(), 3u);
}

TEST_F(CoalescerFixture, MessageCountTriggerFlushes) {
  CoalescerConfig cfg;
  cfg.max_batch_bytes = 1 << 20;
  cfg.max_messages = 5;
  cfg.max_delay_ns = 10'000'000;
  Coalescer co(world.runtime(), cfg);
  int received = 0;
  const auto act = register_action<int>(
      world.runtime().actions(), "co.count",
      [&](Context&, int, int) { ++received; });
  world.spawn(0, [&](Context& ctx) -> Fiber {
    for (int i = 0; i < 10; ++i) co.send(ctx, 1, act, pack_args(i));
    co_return;
  });
  world.run();
  EXPECT_EQ(received, 10);
  EXPECT_EQ(co.batches_sent(), 2u);
}

TEST_F(CoalescerFixture, DelayTriggerFlushesWithoutHelp) {
  CoalescerConfig cfg;
  cfg.max_batch_bytes = 1 << 20;
  cfg.max_messages = 1000;
  cfg.max_delay_ns = 3'000;
  Coalescer co(world.runtime(), cfg);
  sim::Time received_at = 0;
  const auto act = register_action<int>(
      world.runtime().actions(), "co.delay",
      [&](Context& c, int, int) { received_at = c.now(); });
  world.spawn(0, [&](Context& ctx) -> Fiber {
    co.send(ctx, 3, act, pack_args(7));
    co_return;  // only the timer can flush this
  });
  world.run();
  EXPECT_GT(received_at, 3'000u);   // waited out the delay
  EXPECT_LT(received_at, 20'000u);  // ... but not forever
  EXPECT_EQ(co.batches_sent(), 1u);
}

TEST_F(CoalescerFixture, MixedActionsInOneBatch) {
  Coalescer co(world.runtime());
  std::vector<std::string> log;
  const auto a = register_action<int>(
      world.runtime().actions(), "co.a",
      [&](Context&, int, int v) {
        log.push_back(std::string("a").append(std::to_string(v)));
      });
  const auto b = register_action<double>(
      world.runtime().actions(), "co.b",
      [&](Context&, int, double v) {
        log.push_back(std::string("b").append(std::to_string(static_cast<int>(v))));
      });
  world.spawn(0, [&](Context& ctx) -> Fiber {
    co.send(ctx, 1, a, pack_args(1));
    co.send(ctx, 1, b, pack_args(2.0));
    co.send(ctx, 1, a, pack_args(3));
    co.flush(ctx, 1);
    co_return;
  });
  world.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a1", "b2", "a3"}));
}

TEST_F(CoalescerFixture, PerDestinationBatchesAreIndependent) {
  Coalescer co(world.runtime());
  std::vector<int> per_rank(4, 0);
  const auto act = register_action<int>(
      world.runtime().actions(), "co.dst",
      [&](Context& c, int, int) { ++per_rank[static_cast<std::size_t>(c.rank())]; });
  world.spawn(0, [&](Context& ctx) -> Fiber {
    for (int i = 0; i < 12; ++i) co.send(ctx, 1 + (i % 3), act, pack_args(i));
    co.flush_all(ctx);
    co_return;
  });
  world.run();
  EXPECT_EQ(per_rank[1], 4);
  EXPECT_EQ(per_rank[2], 4);
  EXPECT_EQ(per_rank[3], 4);
  EXPECT_EQ(co.batches_sent(), 3u);
}

TEST_F(CoalescerFixture, CoalescingBeatsPerMessageSends) {
  // Same 200-message workload, coalesced vs direct: fewer wire messages
  // and less simulated time.
  auto run = [](bool coalesced) {
    World w(Config::with_nodes(2, GasMode::kPgas));
    Coalescer co(w.runtime());
    int received = 0;
    const auto act = register_action<std::uint64_t>(
        w.runtime().actions(), "co.cmp",
        [&](Context&, int, std::uint64_t) { ++received; });
    w.spawn(0, [&](Context& ctx) -> Fiber {
      for (int i = 0; i < 200; ++i) {
        if (coalesced) {
          co.send(ctx, 1, act, pack_args(std::uint64_t{1}));
        } else {
          ctx.send(1, act, pack_args(std::uint64_t{1}));
        }
      }
      if (coalesced) co.flush_all(ctx);
      co_return;
    });
    w.run();
    EXPECT_EQ(received, 200);
    return std::pair(w.now(), w.counters().parcels_sent);
  };
  const auto [t_co, p_co] = run(true);
  const auto [t_direct, p_direct] = run(false);
  EXPECT_LT(p_co, p_direct / 10);
  EXPECT_LT(t_co, t_direct);
}

TEST_F(CoalescerFixture, SelfSendCoalescesToo) {
  Coalescer co(world.runtime());
  int received = 0;
  const auto act = register_action<int>(
      world.runtime().actions(), "co.self",
      [&](Context&, int, int) { ++received; });
  world.spawn(2, [&](Context& ctx) -> Fiber {
    for (int i = 0; i < 3; ++i) co.send(ctx, 2, act, pack_args(i));
    co.flush(ctx, 2);
    co_return;
  });
  world.run();
  EXPECT_EQ(received, 3);
}

}  // namespace
}  // namespace nvgas::rt
