#include "net/nic_tlb.hpp"

#include <algorithm>

namespace nvgas::net {

namespace {
constexpr unsigned kInitialBits = 4;  // 16 buckets; doubles on demand
}  // namespace

NicTlb::NicTlb(std::size_t capacity)
    : capacity_(capacity),
      index_(std::size_t{1} << kInitialBits),
      bits_(kInitialBits) {
  NVGAS_CHECK(capacity_ >= 1);
}

std::size_t NicTlb::probe(std::uint64_t key) const {
  const std::uint32_t tag = tag_of(key);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t b = home_bucket(tag);; b = (b + 1) & mask) {
    const Bucket& bk = index_[b];
    if (bk.slot == kNil) return b;
    if (bk.tag == tag && at(bk.slot).key == key) return b;
  }
}

void NicTlb::grow_index() {
  std::vector<Bucket> old = std::move(index_);
  ++bits_;
  index_.assign(std::size_t{1} << bits_, Bucket{});
  const std::size_t mask = index_.size() - 1;
  for (const Bucket& bk : old) {
    if (bk.slot == kNil) continue;
    std::size_t b = home_bucket(bk.tag);
    while (index_[b].slot != kNil) b = (b + 1) & mask;
    index_[b] = bk;
  }
}

// Backward-shift deletion: pull each later member of the probe run into
// the hole unless that would move it before its home bucket.
void NicTlb::erase_bucket(std::size_t b) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = b;
  for (std::size_t j = (b + 1) & mask; index_[j].slot != kNil;
       j = (j + 1) & mask) {
    const std::size_t home = home_bucket(index_[j].tag);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = Bucket{};
}

std::uint32_t NicTlb::alloc_slot(std::uint64_t key, const TlbEntry& entry) {
  std::uint32_t s = free_head_;
  if (s != kNil) {
    free_head_ = at(s).next;
  } else {
    NVGAS_CHECK(slot_count_ < kNil);
    if (slot_count_ % kSlotsPerBlock == 0) {
      blocks_.push_back(std::make_unique<Slot[]>(kSlotsPerBlock));
    }
    s = slot_count_++;
  }
  Slot& slot = at(s);
  slot.key = key;
  slot.entry = entry;
  slot.prev = slot.next = kNil;
  ++size_;
  return s;
}

void NicTlb::free_slot(std::uint32_t s) {
  at(s).next = free_head_;
  free_head_ = s;
  --size_;
}

void NicTlb::remove(std::size_t b) {
  const std::uint32_t s = index_[b].slot;
  if (at(s).entry.pinned) {
    unpin_key(at(s).key);
  } else {
    lru_unlink(s);
  }
  erase_bucket(b);
  free_slot(s);
}

void NicTlb::lru_push_front(std::uint32_t s) {
  Slot& slot = at(s);
  slot.prev = kNil;
  slot.next = lru_head_;
  if (lru_head_ != kNil) {
    at(lru_head_).prev = s;
  } else {
    lru_tail_ = s;
  }
  lru_head_ = s;
  ++lru_size_;
}

void NicTlb::lru_unlink(std::uint32_t s) {
  const Slot& slot = at(s);
  if (slot.prev != kNil) {
    at(slot.prev).next = slot.next;
  } else {
    lru_head_ = slot.next;
  }
  if (slot.next != kNil) {
    at(slot.next).prev = slot.prev;
  } else {
    lru_tail_ = slot.prev;
  }
  --lru_size_;
}

bool NicTlb::insert(std::uint64_t block, const TlbEntry& entry) {
  std::size_t b = probe(block);
  if (const std::uint32_t s = index_[b].slot; s != kNil) {
    // Overwrite in place; adjust pinned bookkeeping and LRU membership.
    Slot& slot = at(s);
    const bool was_pinned = slot.entry.pinned;
    if (was_pinned && !entry.pinned) {
      unpin_key(block);
      lru_push_front(s);
    } else if (!was_pinned && entry.pinned) {
      pinned_keys_.push_back(block);
      lru_unlink(s);
    } else if (!entry.pinned && s != lru_head_) {
      lru_unlink(s);
      lru_push_front(s);
    }
    slot.entry = entry;
    return true;
  }

  bool moved = false;  // eviction or growth may relocate the free bucket
  if (!entry.pinned && lru_size_ >= capacity_) {
    evict_one();
    moved = true;
  }
  if ((size_ + 1) * 2 > index_.size()) {
    grow_index();
    moved = true;
  }
  if (moved) b = probe(block);
  const std::uint32_t s = alloc_slot(block, entry);
  index_[b] = Bucket{s, tag_of(block)};
  if (entry.pinned) {
    pinned_keys_.push_back(block);
  } else {
    lru_push_front(s);
  }
  return true;
}

std::optional<TlbEntry> NicTlb::lookup(std::uint64_t block) {
  const std::uint32_t s = find_slot(block);
  if (s == kNil) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  if (!at(s).entry.pinned && s != lru_head_) {
    lru_unlink(s);
    lru_push_front(s);
  }
  return at(s).entry;
}

TlbEntry* NicTlb::find(std::uint64_t block) {
  const std::uint32_t s = find_slot(block);
  return s == kNil ? nullptr : &at(s).entry;
}

void NicTlb::erase(std::uint64_t block) {
  const std::size_t b = probe(block);
  if (index_[b].slot != kNil) remove(b);
}

const TlbEntry* NicTlb::peek(std::uint64_t block) const {
  const std::uint32_t s = find_slot(block);
  return s == kNil ? nullptr : &at(s).entry;
}

std::vector<std::pair<std::uint64_t, TlbEntry>> NicTlb::entries() const {
  std::vector<std::pair<std::uint64_t, TlbEntry>> out;
  out.reserve(size_);
  for (const std::uint64_t key : pinned_keys_) {
    out.emplace_back(key, at(find_slot(key)).entry);
  }
  for (std::uint32_t s = lru_head_; s != kNil; s = at(s).next) {
    out.emplace_back(at(s).key, at(s).entry);
  }
  return out;
}

void NicTlb::unpin_key(std::uint64_t block) {
  auto it = std::find(pinned_keys_.begin(), pinned_keys_.end(), block);
  if (it != pinned_keys_.end()) pinned_keys_.erase(it);
}

void NicTlb::evict_one() {
  NVGAS_CHECK(lru_tail_ != kNil);
  remove(probe(at(lru_tail_).key));
  ++evictions_;
}

}  // namespace nvgas::net
