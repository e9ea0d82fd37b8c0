// Differential model test for net::NicTlb: the flat table must behave
// exactly like the straightforward node-based table it replaced (an
// unordered_map for the index plus a std::list for the LRU), kept here as
// the oracle. Every operation's result, the entries() order, size() and
// the hit/miss/eviction counters must agree after every step, since
// eviction order feeds every agas-net trace hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/nic_tlb.hpp"
#include "util/rng.hpp"

namespace nvgas::net {
namespace {

// The reference implementation: node-based map + list LRU.
class OracleTlb {
 public:
  explicit OracleTlb(std::size_t capacity) : capacity_(capacity) {}

  bool insert(std::uint64_t block, const TlbEntry& entry) {
    auto it = map_.find(block);
    if (it != map_.end()) {
      Slot& slot = it->second;
      const bool was_pinned = slot.entry.pinned;
      if (was_pinned && !entry.pinned) {
        unpin_key(block);
        lru_.push_front(block);
        slot.lru_pos = lru_.begin();
      } else if (!was_pinned && entry.pinned) {
        pinned_keys_.push_back(block);
        lru_.erase(slot.lru_pos);
      } else if (!entry.pinned) {
        lru_.splice(lru_.begin(), lru_, slot.lru_pos);
        slot.lru_pos = lru_.begin();
      }
      slot.entry = entry;
      return true;
    }
    if (!entry.pinned && lru_.size() >= capacity_) evict_one();
    Slot slot;
    slot.entry = entry;
    if (entry.pinned) {
      pinned_keys_.push_back(block);
    } else {
      lru_.push_front(block);
      slot.lru_pos = lru_.begin();
    }
    map_.emplace(block, slot);
    return true;
  }

  std::optional<TlbEntry> lookup(std::uint64_t block) {
    auto it = map_.find(block);
    if (it == map_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    Slot& slot = it->second;
    if (!slot.entry.pinned) {
      lru_.splice(lru_.begin(), lru_, slot.lru_pos);
      slot.lru_pos = lru_.begin();
    }
    return slot.entry;
  }

  TlbEntry* find(std::uint64_t block) {
    auto it = map_.find(block);
    return it == map_.end() ? nullptr : &it->second.entry;
  }

  void erase(std::uint64_t block) {
    auto it = map_.find(block);
    if (it == map_.end()) return;
    if (it->second.entry.pinned) {
      unpin_key(block);
    } else {
      lru_.erase(it->second.lru_pos);
    }
    map_.erase(it);
  }

  std::vector<std::pair<std::uint64_t, TlbEntry>> entries() const {
    std::vector<std::pair<std::uint64_t, TlbEntry>> out;
    for (const std::uint64_t key : pinned_keys_) {
      out.emplace_back(key, map_.find(key)->second.entry);
    }
    for (const std::uint64_t key : lru_) {
      out.emplace_back(key, map_.find(key)->second.entry);
    }
    return out;
  }

  std::size_t size() const { return map_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Slot {
    TlbEntry entry;
    std::list<std::uint64_t>::iterator lru_pos;
  };

  void unpin_key(std::uint64_t block) {
    auto it = std::find(pinned_keys_.begin(), pinned_keys_.end(), block);
    if (it != pinned_keys_.end()) pinned_keys_.erase(it);
  }
  void evict_one() {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    map_.erase(victim);
    ++evictions_;
  }

  std::size_t capacity_;
  std::unordered_map<std::uint64_t, Slot> map_;
  std::list<std::uint64_t> lru_;
  std::vector<std::uint64_t> pinned_keys_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

bool same(const TlbEntry& a, const TlbEntry& b) {
  return a.owner == b.owner && a.base == b.base &&
         a.generation == b.generation && a.pinned == b.pinned &&
         a.in_flight == b.in_flight;
}

bool same(const std::optional<TlbEntry>& a, const std::optional<TlbEntry>& b) {
  return a.has_value() == b.has_value() && (!a || same(*a, *b));
}

bool same(const TlbEntry* a, const TlbEntry* b) {
  return (a == nullptr) == (b == nullptr) && (a == nullptr || same(*a, *b));
}

bool same(const std::vector<std::pair<std::uint64_t, TlbEntry>>& a,
          const std::vector<std::pair<std::uint64_t, TlbEntry>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || !same(a[i].second, b[i].second)) {
      return false;
    }
  }
  return true;
}

// Keys shaped like GVA block keys: a few allocation ids in the high bits
// and block numbers in the middle, so hash quality on real keys counts.
std::uint64_t key_of(std::uint64_t i) {
  return ((i % 5) << 52) | ((i / 5) << 20);
}

TlbEntry random_entry(util::Rng& rng, bool pinned) {
  TlbEntry e;
  e.owner = static_cast<int>(rng.below(128));
  e.base = rng.below(1u << 20) << 12;
  e.generation = static_cast<std::uint32_t>(rng.below(8));
  e.pinned = pinned;
  e.in_flight = pinned && rng.below(4) == 0;
  return e;
}

// Random insert (pinned and unpinned, so pin <-> unpin transitions
// happen), lookup, find (with in-place mutation), erase and peek over a
// key universe a few times the capacity.
void run_model(std::size_t capacity, std::uint64_t seed, int ops) {
  NicTlb tlb(capacity);
  OracleTlb oracle(capacity);
  util::Rng rng(seed);
  const std::uint64_t universe = 3 * capacity + 8;
  for (int step = 0; step < ops; ++step) {
    const std::uint64_t key = key_of(rng.below(universe));
    const std::uint64_t what = rng.below(100);
    if (what < 35) {
      const TlbEntry e = random_entry(rng, rng.below(8) == 0);
      ASSERT_EQ(tlb.insert(key, e), oracle.insert(key, e)) << "step " << step;
    } else if (what < 75) {
      ASSERT_TRUE(same(tlb.lookup(key), oracle.lookup(key))) << "step " << step;
    } else if (what < 85) {
      TlbEntry* a = tlb.find(key);
      TlbEntry* b = oracle.find(key);
      ASSERT_TRUE(same(a, b)) << "step " << step;
      if (a != nullptr) {
        ++a->generation;
        ++b->generation;
      }
    } else if (what < 93) {
      tlb.erase(key);
      oracle.erase(key);
    } else {
      ASSERT_TRUE(same(tlb.peek(key), oracle.find(key))) << "step " << step;
    }
    ASSERT_EQ(tlb.size(), oracle.size()) << "step " << step;
    ASSERT_EQ(tlb.hits(), oracle.hits()) << "step " << step;
    ASSERT_EQ(tlb.misses(), oracle.misses()) << "step " << step;
    ASSERT_EQ(tlb.evictions(), oracle.evictions()) << "step " << step;
    if (step % 16 == 0) {
      ASSERT_TRUE(same(tlb.entries(), oracle.entries())) << "step " << step;
    }
  }
  ASSERT_TRUE(same(tlb.entries(), oracle.entries()));
  EXPECT_GT(oracle.evictions(), 0u);
}

class NicTlbModelTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NicTlbModelTest, MatchesNodeBasedOracle) {
  for (const std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE(seed);
    run_model(GetParam(), seed, 200'000);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacity, NicTlbModelTest,
                         ::testing::Values(1, 2, 3, 8, 64));

// Grow the index through several doublings while erasing in between, so
// backward-shift deletion runs over long, wrapped probe runs; every key
// must stay reachable and every erased key gone.
TEST(NicTlbModel, GrowthWithInterleavedErases) {
  constexpr std::size_t kKeys = 20'000;
  NicTlb tlb(kKeys);
  OracleTlb oracle(kKeys);
  util::Rng rng(7);
  std::vector<bool> live(kKeys, false);
  for (std::size_t i = 0; i < kKeys; ++i) {
    const TlbEntry e = random_entry(rng, i % 3 == 0);
    tlb.insert(key_of(i), e);
    oracle.insert(key_of(i), e);
    live[i] = true;
    if (i % 4 == 3) {
      const std::size_t victim = rng.below(i + 1);
      tlb.erase(key_of(victim));
      oracle.erase(key_of(victim));
      live[victim] = false;
    }
  }
  ASSERT_EQ(tlb.size(), oracle.size());
  ASSERT_TRUE(same(tlb.entries(), oracle.entries()));
  for (std::size_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(tlb.peek(key_of(i)) != nullptr, live[i]) << "key " << i;
  }
  // Drain everything in a scrambled order; the table must end empty.
  std::vector<std::size_t> order(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  for (const std::size_t i : order) {
    tlb.erase(key_of(i));
    oracle.erase(key_of(i));
    ASSERT_EQ(tlb.size(), oracle.size());
  }
  EXPECT_EQ(tlb.size(), 0u);
  EXPECT_TRUE(tlb.entries().empty());
  EXPECT_EQ(tlb.evictions(), 0u);
}

}  // namespace
}  // namespace nvgas::net
