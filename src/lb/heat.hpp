// Per-block access heat accounting for the adaptive migration subsystem.
//
// HeatMap consumes the full GAS access stream (local hits included, via
// gas::AccessObserver) and maintains one decaying (EWMA) heat counter per
// touched block plus a per-source-node access vector, so a policy can see
// both HOW hot a block is and WHO is hitting it. Everything is integer
// fixed-point and iterates in key order: deterministic, no clocks, no
// floating point. Entries live in a recycled pool (per-node vectors are
// reused, never reallocated per block) so steady-state operation does not
// allocate — simlint/SimSan clean.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "gas/gas_api.hpp"

namespace nvgas::lb {

// Fixed-point scale of a single access: heat counters advance in units of
// kAccessUnit so the right-shift decay keeps precision for warm blocks
// and still drives cold blocks to exactly zero (entry recycled).
inline constexpr std::uint64_t kAccessUnit = 256;

// One block's heat as seen by a snapshot. `by_node` points at the pooled
// per-source vector (ranks entries, same fixed-point units); it is valid
// until the next HeatMap mutation.
struct BlockHeat {
  std::uint64_t key = 0;   // Gva block key (directory/TLB key)
  std::uint64_t heat = 0;  // decayed access units (kAccessUnit per access)
  const std::uint32_t* by_node = nullptr;  // [ranks] per-source units
};

class HeatMap final : public gas::AccessObserver {
 public:
  explicit HeatMap(int ranks) : ranks_(ranks) {}

  // --- gas::AccessObserver -------------------------------------------------
  void on_local_access(int node, std::uint64_t block_key) override {
    record(node, block_key);
  }
  void on_remote_access(int node, std::uint64_t block_key) override {
    record(node, block_key);
  }
  void on_block_freed(std::uint64_t block_key) override;

  // --- epoch maintenance ---------------------------------------------------
  // EWMA decay step, applied once per balancer epoch: every counter is
  // multiplied by 2^-shift (heat >>= shift). With shift 1 this is the
  // classic S_k = (S_{k-1} + new) / 2 when called after an accumulation
  // window. Entries that reach zero heat are recycled into the pool.
  void decay(std::uint32_t shift);

  // Append one view per live block, ordered ascending by key.
  void snapshot(std::vector<BlockHeat>& out) const;

  // --- introspection -------------------------------------------------------
  [[nodiscard]] int ranks() const { return ranks_; }
  [[nodiscard]] std::size_t blocks() const { return index_.size(); }
  // Total accesses observed since construction (monotonic, not decayed).
  [[nodiscard]] std::uint64_t accesses() const { return accesses_; }
  [[nodiscard]] std::uint64_t heat_of(std::uint64_t block_key) const;

 private:
  struct Entry {
    std::uint64_t heat = 0;
    std::vector<std::uint32_t> by_node;  // [ranks] decayed units
  };

  void record(int node, std::uint64_t block_key);

  int ranks_;
  // key -> pool slot; ordered so decay sweeps and snapshots are
  // deterministic regardless of allocation addresses.
  std::map<std::uint64_t, std::uint32_t> index_;
  std::vector<Entry> pool_;          // slots recycled via free_
  std::vector<std::uint32_t> free_;  // recycled slot indices (LIFO)
  std::uint64_t accesses_ = 0;
};

}  // namespace nvgas::lb
