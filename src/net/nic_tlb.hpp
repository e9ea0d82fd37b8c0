// NIC-resident translation table ("NIC TLB").
//
// This is the hardware structure the paper's contribution programs: each
// NIC holds a finite map from global block id to {owner node, local base
// address, generation}. Lookups, inserts and the atomic remap used by
// migration all execute on the NIC command processor, never the CPU.
//
// Capacity bounds the *cached* (unpinned) entries; eviction is LRU.
// Pinned entries — the home NIC's authoritative records, which live in a
// dedicated directory region of NIC memory — are not counted against the
// cache capacity and never evict: the home NIC is the forwarder of last
// resort, exactly like AGAS's home-based resolution.
//
// Layout. Entries live in a slot pool (key, entry, prev/next slot links)
// that grows in fixed 16-slot blocks and is recycled through a free list.
// An open-addressing index maps a key to its slot: linear probing over
// 8-byte buckets that hold the slot number and the high 32 bits of the
// key's Fibonacci hash, so a probe touches the pool only on a tag match
// and a resize never touches it at all. Deletion shifts the following
// cluster back instead of leaving tombstones. The index stays at most
// half full and doubles on demand; it is never pre-sized to the
// capacity, because a 65536-entry default on every one of hundreds of
// simulated NICs would cost hundreds of MB for tables that mostly stay
// small. The LRU is an intrusive doubly-linked list through the slots;
// pinned entries stay off it, and pinned_keys_ keeps their pin order.
//
// The LRU is exact, not CLOCK. Eviction order decides which translations
// a node still holds, hence which ops forward, hence every trace hash; an
// approximate policy would move them all. With the pool and the index
// warmed up to the working set, insert, lookup, find, erase and eviction
// allocate nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/memory.hpp"
#include "util/assert.hpp"

namespace nvgas::net {

struct TlbEntry {
  int owner = -1;            // node currently holding the block
  sim::Lva base = 0;         // block base LVA at the owner
  std::uint32_t generation = 0;  // bumped on every migration
  bool pinned = false;       // home entries are pinned
  bool in_flight = false;    // set while a migration is moving the block
};

class NicTlb {
 public:
  explicit NicTlb(std::size_t capacity);

  // Insert or overwrite. Pinned entries always fit (directory region);
  // unpinned entries LRU-evict once the cached-entry count exceeds the
  // capacity. Returns true iff the entry is resident afterwards (always,
  // today; kept boolean for symmetry with hardware that can refuse).
  bool insert(std::uint64_t block, const TlbEntry& entry);

  // Lookup; refreshes LRU position on hit.
  [[nodiscard]] std::optional<TlbEntry> lookup(std::uint64_t block);

  // Mutating access for migration (remap / in-flight flag). Returns null
  // if absent. Does not refresh LRU: migrations should not keep stale
  // cached entries warm. The pointer is valid until that entry is erased
  // or evicted.
  [[nodiscard]] TlbEntry* find(std::uint64_t block);

  void erase(std::uint64_t block);

  // Read-only probe: no LRU refresh and no hit/miss accounting, so
  // invariant audits never perturb eviction or counters.
  [[nodiscard]] const TlbEntry* peek(std::uint64_t block) const;

  // Deterministic snapshot for the mcheck invariant audits: pinned
  // entries in pin order, then cached entries most-recent-first. Both
  // orders are simulation state, never hash order.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, TlbEntry>> entries()
      const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Slot {
    std::uint64_t key = 0;
    TlbEntry entry;
    std::uint32_t prev = kNil;  // LRU neighbours (unpinned entries only);
    std::uint32_t next = kNil;  // `next` doubles as the free-list link
  };
  struct Bucket {
    std::uint32_t slot = kNil;  // kNil = empty
    std::uint32_t tag = 0;      // high 32 bits of the key's hash
  };

  [[nodiscard]] static std::uint32_t tag_of(std::uint64_t key) {
    return static_cast<std::uint32_t>((key * 0x9E3779B97F4A7C15ull) >> 32);
  }
  [[nodiscard]] std::size_t home_bucket(std::uint32_t tag) const {
    return tag >> (32 - bits_);
  }
  // Bucket holding `key`, or the empty bucket that ends its probe run.
  [[nodiscard]] std::size_t probe(std::uint64_t key) const;
  [[nodiscard]] std::uint32_t find_slot(std::uint64_t key) const {
    return index_[probe(key)].slot;
  }
  [[nodiscard]] Slot& at(std::uint32_t s) {
    return blocks_[s / kSlotsPerBlock][s % kSlotsPerBlock];
  }
  [[nodiscard]] const Slot& at(std::uint32_t s) const {
    return blocks_[s / kSlotsPerBlock][s % kSlotsPerBlock];
  }
  void grow_index();
  void erase_bucket(std::size_t b);

  std::uint32_t alloc_slot(std::uint64_t key, const TlbEntry& entry);
  void free_slot(std::uint32_t s);
  void remove(std::size_t b);  // drop the entry indexed at bucket b

  void lru_push_front(std::uint32_t s);
  void lru_unlink(std::uint32_t s);
  void evict_one();
  void unpin_key(std::uint64_t block);

  std::size_t capacity_;
  // The slot pool grows in fixed blocks, so a slot never moves: growth
  // copies nothing and the pointer find() returns survives inserts.
  static constexpr std::uint32_t kSlotsPerBlock = 16;
  std::vector<std::unique_ptr<Slot[]>> blocks_;
  std::uint32_t slot_count_ = 0;  // slots ever handed out
  std::uint32_t free_head_ = kNil;
  std::vector<Bucket> index_;
  unsigned bits_ = 0;  // index_.size() == 1 << bits_
  std::size_t size_ = 0;
  std::uint32_t lru_head_ = kNil;  // most recent
  std::uint32_t lru_tail_ = kNil;  // eviction victim
  std::size_t lru_size_ = 0;
  // Pinned keys in pin order; mirrors the pinned entries so entries()
  // can snapshot them deterministically.
  std::vector<std::uint64_t> pinned_keys_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace nvgas::net
