// Thread-block execution context.
//
// Warps within a block run to completion sequentially (warp 0 first) on one
// host thread, which makes block-level phases deterministic; block-wide
// synchronization and reduction therefore need no real barrier but are still
// *charged* to the compute pipeline. Per-thread "registers" that must live
// across phases are modeled as host arrays indexed by thread id, carved out
// of launch-owned ThreadScratch so blocks allocate nothing on the host.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "sim/device.h"
#include "sim/shared_memory.h"
#include "sim/warp.h"
#include "util/logging.h"

namespace glp::sim {

/// \brief Host storage for per-thread values that outlive one warp phase of
/// a block (e.g. the per-thread candidates of Procedure SharedMemBigNodes).
///
/// A launch owns one per worker and every block the worker runs reuses it,
/// so the buffers grow to their high-water mark once and are never freed
/// between blocks. Unlike SharedMemory this models registers, not a counted
/// device resource: nothing here is charged.
class ThreadScratch {
 public:
  static constexpr int kSlots = 8;

  /// `n` values of T, each set to `init`, in buffer `slot`. The span stays
  /// valid until the next Get on the same slot.
  template <typename T>
  std::span<T> Get(int slot, size_t n, const T& init) {
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    GLP_CHECK_GE(slot, 0);
    GLP_CHECK_LT(slot, kSlots);
    std::vector<std::byte>& buf = slots_[slot];
    if (buf.size() < n * sizeof(T)) buf.resize(n * sizeof(T));
    T* data = reinterpret_cast<T*>(buf.data());
    std::uninitialized_fill_n(data, n, init);
    return {data, n};
  }

 private:
  std::array<std::vector<std::byte>, kSlots> slots_;
};

/// Execution context of one thread block.
class Block {
 public:
  /// `shared` is an arena owned by the runner and reused across blocks; the
  /// block Reset()s it on construction. `scratch`, also runner-owned, backs
  /// scratch(); it may be null for blocks that never call it.
  Block(int64_t block_idx, int num_threads, SharedMemory* shared,
        KernelStats* stats, ThreadScratch* scratch = nullptr)
      : block_idx_(block_idx),
        num_threads_(num_threads),
        shared_(shared),
        stats_(stats),
        scratch_(scratch) {
    shared_->Reset();
  }

  int64_t block_idx() const { return block_idx_; }
  int num_threads() const { return num_threads_; }
  int num_warps() const { return (num_threads_ + kWarpSize - 1) / kWarpSize; }
  SharedMemory& shared() { return *shared_; }
  ThreadScratch& scratch() {
    GLP_CHECK(scratch_ != nullptr) << "block has no ThreadScratch";
    return *scratch_;
  }
  KernelStats* stats() { return stats_; }

  /// Runs `fn(Warp&)` once per warp of the block, in warp order. The active
  /// mask of the last warp excludes thread slots beyond num_threads().
  template <typename Fn>
  void ForEachWarp(Fn&& fn) {
    for (int w = 0; w < num_warps(); ++w) {
      const int lanes = std::min(kWarpSize, num_threads_ - w * kWarpSize);
      const LaneMask mask =
          lanes >= kWarpSize ? kFullMask : ((1u << lanes) - 1u);
      Warp warp(w, mask, stats_);
      fn(warp);
    }
  }

  /// __syncthreads.
  void Sync() { stats_->block_syncs += 1; }

  /// Block-wide max over one value per thread (e.g. the per-thread scores in
  /// Procedure SharedMemBigNodes). Charged as a tree reduction + barrier.
  template <typename T>
  T ReduceMax(const std::vector<T>& per_thread, T identity) const {
    stats_->block_reduces += 1;
    stats_->block_syncs += 1;
    T best = identity;
    for (const T& v : per_thread) best = std::max(best, v);
    return best;
  }

  /// Block-wide sum over one value per thread.
  template <typename T>
  T ReduceSum(const std::vector<T>& per_thread) const {
    stats_->block_reduces += 1;
    stats_->block_syncs += 1;
    T sum = T{};
    for (const T& v : per_thread) sum += v;
    return sum;
  }

 private:
  int64_t block_idx_;
  int num_threads_;
  SharedMemory* shared_;
  KernelStats* stats_;
  ThreadScratch* scratch_;
};

}  // namespace glp::sim
