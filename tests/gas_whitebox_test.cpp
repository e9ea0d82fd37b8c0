// White-box tests of the address-space managers' internal state machines:
// directory sharers, cache invalidation, NIC TLB entry roles (pinned /
// owned / hint), and the closed-form cost model.
#include <gtest/gtest.h>

#include "core/nvgas.hpp"
#include "kvstore/harness.hpp"

namespace nvgas {
namespace {

// --- software AGAS internals ------------------------------------------------

TEST(AgasSwWhitebox, DirectoryTracksSharersAsTheyResolve) {
  World world(Config::with_nodes(8, GasMode::kAgasSw));
  Gva block;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    block = alloc_cyclic(ctx, 8, 256);
    while (block.home(8) != 3) block = block.advanced(256, 256);
    rt::AndGate gate(4);
    const rt::LcoRef gref = ctx.make_ref(gate);
    for (int r : {1, 2, 5, 7}) {
      ctx.spawn(r, [block, gref](Context& c) -> Fiber {
        (void)co_await memget_value<std::uint64_t>(c, block);
        c.set_lco(gref);
      });
    }
    co_await gate;
  });
  world.run();
  const auto& sw = dynamic_cast<const gas::AgasSw&>(world.gas());
  const auto& entry = sw.directory(3).at(block.block_key());
  EXPECT_EQ(entry.sharers, (std::set<int>{1, 2, 5, 7}));
  EXPECT_EQ(entry.owner, 3);
  EXPECT_FALSE(entry.moving);
  EXPECT_EQ(entry.generation, 0u);
}

TEST(AgasSwWhitebox, MigrationBumpsGenerationAndClearsSharers) {
  World world(Config::with_nodes(8, GasMode::kAgasSw));
  Gva block;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    block = alloc_cyclic(ctx, 8, 256);
    while (block.home(8) != 2) block = block.advanced(256, 256);
    // Two sharers warm up.
    rt::AndGate gate(2);
    const rt::LcoRef gref = ctx.make_ref(gate);
    for (int r : {4, 6}) {
      ctx.spawn(r, [block, gref](Context& c) -> Fiber {
        (void)co_await memget_value<std::uint64_t>(c, block);
        c.set_lco(gref);
      });
    }
    co_await gate;
    co_await migrate(ctx, block, 5);
  });
  world.run();
  const auto& sw = dynamic_cast<const gas::AgasSw&>(world.gas());
  const auto& entry = sw.directory(2).at(block.block_key());
  EXPECT_EQ(entry.owner, 5);
  EXPECT_EQ(entry.generation, 1u);
  EXPECT_TRUE(entry.sharers.empty());
  EXPECT_FALSE(entry.moving);
  // Both sharers' caches were invalidated.
  EXPECT_FALSE(const_cast<gas::AgasSw&>(sw).cache(4).size() > 0 &&
               world.counters().sw_cache_invalidations < 2);
  EXPECT_GE(world.counters().sw_cache_invalidations, 2u);
}

TEST(AgasSwWhitebox, CacheHitRatioMatchesCounters) {
  Config cfg = Config::with_nodes(4, GasMode::kAgasSw);
  World world(cfg);
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 4, 256);
    Gva remote = base;
    while (remote.home(4) == 0) remote = remote.advanced(256, 256);
    for (int i = 0; i < 10; ++i) {
      (void)co_await memget_value<std::uint64_t>(ctx, remote);
    }
  });
  world.run();
  // First access missed, nine hit.
  EXPECT_EQ(world.counters().sw_cache_misses, 1u);
  EXPECT_EQ(world.counters().sw_cache_hits, 9u);
}

// --- network-managed AGAS internals -----------------------------------------

TEST(AgasNetWhitebox, TlbRolesThroughAMigration) {
  World world(Config::with_nodes(8, GasMode::kAgasNet));
  Gva block;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    block = alloc_cyclic(ctx, 8, 256);
    while (block.home(8) != 2) block = block.advanced(256, 256);
    co_await memput_value<std::uint64_t>(ctx, block, 1);  // warm rank 0
    co_await migrate(ctx, block, 6);
    co_await migrate(ctx, block, 4);
  });
  world.run();
  const auto& net = dynamic_cast<const core::AgasNet&>(world.gas());
  const auto key = block.block_key();

  // Home (2): pinned, authoritative, generation 2.
  const auto* home_e = net.tlb(2).peek(key);
  ASSERT_NE(home_e, nullptr);
  EXPECT_TRUE(home_e->pinned);
  EXPECT_EQ(home_e->owner, 4);
  EXPECT_EQ(home_e->generation, 2u);
  EXPECT_FALSE(home_e->in_flight);

  // Current owner (4): pinned owned entry.
  const auto* owner_e = net.tlb(4).peek(key);
  ASSERT_NE(owner_e, nullptr);
  EXPECT_TRUE(owner_e->pinned);
  EXPECT_EQ(owner_e->owner, 4);

  // Previous owner (6): unpinned forwarding hint to 4.
  const auto* hint_e = net.tlb(6).peek(key);
  ASSERT_NE(hint_e, nullptr);
  EXPECT_FALSE(hint_e->pinned);
  EXPECT_EQ(hint_e->owner, 4);

  // Stale source (0): unpinned cached entry pointing at the FIRST
  // location it learned (the home, who owned at warmup).
  const auto* src_e = net.tlb(0).peek(key);
  ASSERT_NE(src_e, nullptr);
  EXPECT_FALSE(src_e->pinned);
  EXPECT_EQ(src_e->owner, 2);
}

TEST(AgasNetWhitebox, PiggybackRepairsStaleSourceAfterOneAccess) {
  World world(Config::with_nodes(8, GasMode::kAgasNet));
  Gva block;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    block = alloc_cyclic(ctx, 8, 256);
    while (block.home(8) != 1) block = block.advanced(256, 256);
    co_await memput_value<std::uint64_t>(ctx, block, 1);
    co_await migrate(ctx, block, 5);
    (void)co_await memget_value<std::uint64_t>(ctx, block);  // stale → fwd
  });
  world.run();
  const auto& net = dynamic_cast<const core::AgasNet&>(world.gas());
  const auto* e = net.tlb(0).peek(block.block_key());
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->owner, 5);  // repaired by the ack's piggyback
  EXPECT_GE(world.counters().nic_forwards, 1u);
}

TEST(AgasNetWhitebox, FreeRemovesEveryEntry) {
  World world(Config::with_nodes(4, GasMode::kAgasNet));
  Gva base;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    base = alloc_cyclic(ctx, 4, 256);
    for (int b = 0; b < 4; ++b) {
      co_await memput_value<std::uint64_t>(ctx, base.advanced(b * 256, 256), 1);
    }
    free_alloc(ctx, base);
  });
  world.run();
  const auto& net = dynamic_cast<const core::AgasNet&>(world.gas());
  for (int n = 0; n < 4; ++n) {
    for (int b = 0; b < 4; ++b) {
      EXPECT_EQ(net.tlb(n).peek(base.advanced(b * 256, 256).block_key()),
                nullptr);
    }
  }
}

// Every agas-net op lives in the manager's op slab from issue to
// completion, so a quiescent world must leave it empty: on a clean wire
// and on the lossy one (drops, duplicates, delays), with ops racing live
// migrations. A lost completion shows up as a live op and fails the
// quiescence audit that the InvariantObserver and mcheck run.
class AgasNetSlabTest : public ::testing::TestWithParam<bool> {};

TEST_P(AgasNetSlabTest, SlabIsEmptyAtQuiescence) {
  Config cfg = Config::with_nodes(8, GasMode::kAgasNet);
  if (GetParam()) apps::kv::arm_lossy_plan(cfg);
  World world(cfg);
  constexpr int kRounds = 24;
  Gva base;
  std::uint64_t total = 0;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    base = alloc_cyclic(ctx, 8, 256);
    rt::AndGate gate(7);
    const rt::LcoRef gref = ctx.make_ref(gate);
    for (int r = 1; r < 8; ++r) {
      ctx.spawn(r, [base, gref, r](Context& c) -> Fiber {
        for (int i = 0; i < kRounds; ++i) {
          const Gva block = base.advanced(((r + i) % 8) * 256, 256);
          (void)co_await fetch_add(c, block, 1);
          co_await memput_value<std::uint64_t>(c, block.advanced(8 * r, 256), i);
          (void)co_await memget_value<std::uint64_t>(c, block.advanced(8 * r, 256));
        }
        c.set_lco(gref);
      });
    }
    for (int m = 0; m < 12; ++m) {
      co_await migrate(ctx, base.advanced((m % 8) * 256, 256), (3 * m + 1) % 8);
    }
    co_await gate;
    for (int b = 0; b < 8; ++b) {
      total += co_await memget_value<std::uint64_t>(ctx, base.advanced(b * 256, 256));
    }
  });
  world.run();
  EXPECT_EQ(total, 7u * kRounds);  // every fetch_add landed exactly once
  const auto& net = dynamic_cast<const core::AgasNet&>(world.gas());
  EXPECT_EQ(net.live_ops(), 0u);
  EXPECT_EQ(net.audit_quiescent(), "");
  EXPECT_GE(world.counters().migrations, 1u);
  if (GetParam()) {
    EXPECT_GE(world.counters().faults_injected_drops +
                  world.counters().faults_injected_dups,
              1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Wire, AgasNetSlabTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "lossy" : "clean";
                         });

// --- closed-form cost model ---------------------------------------------------

TEST(CostModel, PgasRemoteMemgetMatchesAnalyticFormula) {
  Config cfg = Config::with_nodes(2, GasMode::kPgas);
  World world(cfg);
  sim::Time measured = 0;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 2, 64);
    Gva remote = base;
    if (remote.home(2) != 1) remote = remote.advanced(64, 64);
    const sim::Time t0 = ctx.now();
    (void)co_await memget_value<std::uint64_t>(ctx, remote);
    measured = ctx.now() - t0;
  });
  world.run();

  // Analytic: translate + o_send, request (g + hdr·G + L + g),
  // target cp (dma + len·G_mem), reply (g + (hdr+len)·G + L + g),
  // source cp (dma + len·G_mem), fiber resume.
  const auto& p = cfg.machine;
  const auto& n = cfg.net;
  const std::uint64_t len = 8;
  auto wire = [&](std::uint64_t bytes) {
    return p.nic_gap_ns + sim::bytes_time(bytes, p.byte_time_ns) +
           p.wire_latency_ns + p.nic_gap_ns;
  };
  const sim::Time expected =
      cfg.gas_costs.pgas_translate_ns + p.cpu_send_overhead_ns +
      wire(n.rma_header_bytes) + (p.nic_dma_ns + p.copy_time(len)) +
      wire(n.rma_header_bytes + len) + (p.nic_dma_ns + p.copy_time(len)) +
      cfg.rt_costs.fiber_resume_ns;
  EXPECT_EQ(measured, expected);
}

TEST(CostModel, ParcelOneWayMatchesAnalyticFormula) {
  Config cfg = Config::with_nodes(2, GasMode::kPgas);
  World world(cfg);
  sim::Time handled_at = 0;
  sim::Time sent_at = 0;
  const auto act = world.runtime().actions().add(
      "cm.sink", [&](Context& c, int, util::Buffer) { handled_at = c.now(); });
  world.spawn(0, [&](Context& ctx) -> Fiber {
    sent_at = ctx.now();
    ctx.send(1, act, rt::pack_args(std::uint64_t{1}));
    co_return;
  });
  world.run();

  const auto& p = cfg.machine;
  const auto& n = cfg.net;
  const std::uint64_t payload = sizeof(rt::ActionId) + 8;
  const sim::Time expected =
      sent_at + p.cpu_send_overhead_ns + p.nic_gap_ns +
      sim::bytes_time(n.parcel_header_bytes + payload, p.byte_time_ns) +
      p.wire_latency_ns + p.nic_gap_ns + p.cpu_recv_overhead_ns +
      cfg.rt_costs.action_dispatch_ns;
  EXPECT_EQ(handled_at, expected);
}

}  // namespace
}  // namespace nvgas
