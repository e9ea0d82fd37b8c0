// KvServer: a GAS-backed key-value store (docs/KVSTORE.md).
//
// Keys hash to fixed-geometry buckets, one GAS block per bucket,
// allocated cyclically across the machine. Requests are parcels routed
// with the apply() trampoline to the bucket's CURRENT owner — the
// manager under test resolves and forwards — so the same server binary
// competes unchanged across pgas/agas-sw/agas-net, and the lb balancer
// is free to migrate hot buckets underneath live traffic.
//
// Consistency model (what mcheck's kv-put-get-del scenario verifies):
//   - every slot mutation is ONE memput and every lookup ONE memget, so
//     the GAS protocol's per-op atomicity guarantees a GET never
//     observes a torn (partly overwritten) entry, even mid-migration;
//   - mutations of one bucket serialize through a per-owner FIFO lock,
//     so slot assignment and version increments never interleave;
//   - each DEL is acknowledged exactly once, and the server-side ledger
//     (dels_applied + dels_missed) accounts for every DEL received.
//
// TTL expiry: entries with a TTL are registered at the bucket's HOME
// node (a static property of the address, so arm/cancel messages from
// any owner serialize at one node), which arms a cancellable engine
// timer per live (bucket, key). Overwrites and deletes cancel the
// timer; firing issues a version-guarded internal DEL through the
// normal GAS path, so a concurrent re-PUT is never clobbered.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "core/world.hpp"
#include "kvstore/proto.hpp"
#include "rt/lco.hpp"
#include "util/rng.hpp"

namespace nvgas::apps::kv {

struct KvParams {
  std::uint32_t buckets = 64;           // GAS blocks, cyclic placement
  std::uint32_t slots_per_bucket = 8;   // fixed open-addressed slots
  std::uint32_t value_size = 32;        // max value bytes per entry
  std::uint32_t op_cost_ns = 500;       // CPU charged per served request
};

// On-block slot header; the value bytes follow, padded to value_size.
struct SlotHdr {
  std::uint64_t key_hash = 0;  // FNV-1a of the key bytes (wire keys are
                               // opaque; the full key is not stored)
  std::uint32_t ver = 0;       // bumped by every mutation of the slot
  std::uint8_t state = 0;      // 0 empty, 1 live, 2 tombstone
  std::uint8_t flags = 0;      // bit 0: entry has a TTL timer armed
  std::uint16_t reserved = 0;
  std::uint32_t vlen = 0;
  std::uint32_t reserved2 = 0;
};
static_assert(sizeof(SlotHdr) == 24);

inline constexpr std::uint8_t kSlotEmpty = 0;
inline constexpr std::uint8_t kSlotLive = 1;
inline constexpr std::uint8_t kSlotTombstone = 2;
inline constexpr std::uint8_t kEntryHasTtl = 1;

// Request flag: meta.token carries an expected slot version; the DEL
// applies only if the slot still holds exactly that version (used by
// TTL expiry so a racing re-PUT survives).
inline constexpr std::uint8_t kReqVersionGuard = 1;
// Request flag: this DEL is a TTL expiry (counted as `expirations`).
inline constexpr std::uint8_t kReqExpiry = 2;

class KvServer {
 public:
  KvServer(World& world, KvParams params);
  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  // Allocate the bucket table. Call once, from a fiber, before traffic.
  void setup(rt::Context& ctx);

  // Route one request to its bucket's current owner (fire-and-forget;
  // the response, if requested, arrives at meta.reply_action). Must be
  // called from a fiber; suspends only for owner resolution + send.
  [[nodiscard]] ApplyAwaiter submit(rt::Context& ctx, const MsgHdr& hdr,
                                          std::span<const std::byte> key,
                                          std::span<const std::byte> value,
                                          const ReqMeta& meta);

  // Ask `node` for its Metrics (OP_METRICS over the wire; the reply goes
  // to `meta.reply_action`).
  void submit_metrics(rt::Context& ctx, int node, const ReqMeta& meta);

  // --- geometry / introspection (host-side helpers, charge nothing) ---
  [[nodiscard]] std::uint64_t hash_key(std::span<const std::byte> key) const;
  [[nodiscard]] std::uint32_t bucket_of(std::span<const std::byte> key) const;
  [[nodiscard]] gas::Gva bucket_addr(std::uint32_t bucket) const;
  [[nodiscard]] std::uint32_t slot_size() const {
    return static_cast<std::uint32_t>(sizeof(SlotHdr)) + params_.value_size;
  }
  [[nodiscard]] std::uint32_t block_size() const {
    return params_.slots_per_bucket * slot_size();
  }
  [[nodiscard]] const KvParams& params() const { return params_; }
  [[nodiscard]] gas::Gva table() const { return table_; }
  [[nodiscard]] rt::ActionId op_action() const { return op_action_; }

  // Post-run (quiesced) aggregation.
  [[nodiscard]] Metrics metrics(int node) const;
  [[nodiscard]] Metrics total_metrics() const;

 private:
  struct BucketLock {
    bool busy = false;
    std::deque<rt::Event*> waiters;
  };

  struct TtlEntry {
    sim::Engine::TimerId timer;
    std::uint32_t ver = 0;
  };

  // Byte-wise lexicographic order, the same order std::less gives. A
  // plain loop: std::less inlines to a memcmp whose bound GCC 12 -O3
  // cannot prove and rejects (stringop-overread).
  struct KeyLess {
    bool operator()(const std::vector<std::byte>& a,
                    const std::vector<std::byte>& b) const {
      const std::size_t n = std::min(a.size(), b.size());
      for (std::size_t i = 0; i < n; ++i) {
        if (a[i] != b[i]) return a[i] < b[i];
      }
      return a.size() < b.size();
    }
  };

  // Per-node server state.
  struct NodeState {
    Metrics metrics;
    std::map<std::uint32_t, BucketLock> locks;
    // TTL registry for keys whose bucket is homed here, keyed by the
    // owned key bytes (deterministic lexicographic order).
    std::map<std::vector<std::byte>, TtlEntry, KeyLess> ttl;
  };

  [[nodiscard]] NodeState& state_of(int node) {
    return nodes_[static_cast<std::size_t>(node)];
  }

  // FIFO bucket lock for mutators (GETs go lock-free; see file header).
  // Returns true when acquired immediately; else the caller must
  // `co_await turn` and owns the lock once resumed.
  [[nodiscard]] bool try_lock(rt::Context& c, std::uint32_t bucket,
                              rt::Event& turn);
  void unlock(rt::Context& c, std::uint32_t bucket);

  rt::Fiber handle_op(rt::Context& c, util::Buffer raw);
  void handle_ttl(rt::Context& c, util::Buffer raw);
  void handle_metrics(rt::Context& c, int src, util::Buffer raw);
  void reply(rt::Context& c, const Request& rq, std::uint8_t code,
             std::span<const std::byte> value);
  void ttl_update(rt::Context& c, std::uint32_t bucket,
                  const std::vector<std::byte>& key, std::uint32_t ver,
                  sim::Time expiry);
  void on_ttl_fire(int node, std::uint32_t bucket, std::vector<std::byte> key,
                   std::uint32_t ver);

  World* world_;
  KvParams params_;
  gas::Gva table_{};
  rt::ActionId op_action_ = rt::kInvalidAction;
  rt::ActionId ttl_action_ = rt::kInvalidAction;
  rt::ActionId metrics_action_ = rt::kInvalidAction;
  std::vector<NodeState> nodes_;
};

}  // namespace nvgas::apps::kv
