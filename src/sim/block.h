// Thread-block execution context.
//
// Warps within a block run to completion sequentially (warp 0 first) on one
// host thread, which makes block-level phases deterministic; block-wide
// synchronization and reduction therefore need no real barrier but are still
// *charged* to the compute pipeline. Host state that must live across
// phases or blocks (a fallback table, per-warp hash tables) is carved out of
// launch-owned ThreadScratch so blocks allocate nothing on the host.

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

/// \brief Host storage for values that outlive one warp phase of a block
/// (e.g. the high-degree kernel's fallback table), or one block (the
/// warp-per-vertex kernel's hash tables).
///
/// A launch owns one per worker and every block the worker runs reuses it,
/// so the buffers grow to their high-water mark once and are never freed
/// between blocks. Nothing here is charged: unlike SharedMemory it is not a
/// counted device resource, and a kernel that keeps a table's contents here
/// charges the accesses itself.
class ThreadScratch {
 public:
  static constexpr int kSlots = 8;

  /// `n` values of T, each set to `init`, in buffer `slot`. The span stays
  /// valid until the next Get or Kept on the same slot.
  template <typename T>
  std::span<T> Get(int slot, size_t n, const T& init) {
    size_t had = 0;
    const std::span<T> out = Buffer<T>(slot, n, &had);
    std::uninitialized_fill_n(out.data(), n, init);
    return out;
  }

  /// Like Get, but the values carry over from the previous call on `slot`:
  /// only those the buffer did not hold yet are set to `init`. For tables a
  /// kernel returns to `init` after each use, so that no block pays to
  /// re-initialize them.
  template <typename T>
  std::span<T> Kept(int slot, size_t n, const T& init) {
    size_t had = 0;
    const std::span<T> out = Buffer<T>(slot, n, &had);
    if (had < n) std::uninitialized_fill_n(out.data() + had, n - had, init);
    return out;
  }

 private:
  /// Buffer `slot` grown to `n` values of T; `*had` is how many it held.
  template <typename T>
  std::span<T> Buffer(int slot, size_t n, size_t* had) {
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    GLP_CHECK_GE(slot, 0);
    GLP_CHECK_LT(slot, kSlots);
    std::vector<std::byte>& buf = slots_[slot];
    *had = buf.size() / sizeof(T);
    if (*had < n) buf.resize(n * sizeof(T));
    return {reinterpret_cast<T*>(buf.data()), n};
  }

  std::array<std::vector<std::byte>, kSlots> slots_;
};

/// One block's slice of a per-warp memo (see BlockMemo in launch.h): a
/// stats entry and a dirty flag for each of its warps.
struct WarpMemo {
  KernelStats* stats = nullptr;
  const uint8_t* dirty = nullptr;
};

/// Execution context of one thread block.
class Block {
 public:
  /// `shared` is an arena owned by the runner and reused across blocks; the
  /// block Reset()s it on construction. `scratch`, also runner-owned, backs
  /// scratch(); it may be null for blocks that never call it. With a
  /// `memo`, ForEachWarp replays the warps it flags clean.
  Block(int64_t block_idx, int num_threads, SharedMemory* shared,
        KernelStats* stats, ThreadScratch* scratch = nullptr,
        WarpMemo memo = {})
      : block_idx_(block_idx),
        num_threads_(num_threads),
        shared_(shared),
        stats_(stats),
        scratch_(scratch),
        memo_(memo) {
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
  ///
  /// Under a per-warp memo, a dirty warp runs into its own entry and a clean
  /// one is not run: its entry, recorded when it last ran, is added instead.
  /// Such a kernel calls ForEachWarp once per block, and a warp's charges
  /// and writes must be a pure function of what the caller's flags track.
  template <typename Fn>
  void ForEachWarp(Fn&& fn) {
    GLP_CHECK(memo_.stats == nullptr || !warps_ran_)
        << "a per-warp memo needs one ForEachWarp per block";
    warps_ran_ = true;
    for (int w = 0; w < num_warps(); ++w) {
      const int lanes = std::min(kWarpSize, num_threads_ - w * kWarpSize);
      const LaneMask mask =
          lanes >= kWarpSize ? kFullMask : ((1u << lanes) - 1u);
      if (memo_.stats == nullptr) {
        Warp warp(w, mask, stats_);
        fn(warp);
        continue;
      }
      KernelStats& entry = memo_.stats[w];
      if (memo_.dirty[w] != 0) {
        entry = KernelStats{};
        Warp warp(w, mask, &entry);
        fn(warp);
      }
      *stats_ += entry;
    }
  }

  /// __syncthreads.
  void Sync() { stats_->block_syncs += 1; }

  /// Charges one block-wide reduction (a tree reduction + barrier) whose
  /// value the caller computed itself, e.g. as a running best.
  void ChargeReduce() const {
    stats_->block_reduces += 1;
    stats_->block_syncs += 1;
  }

  /// Block-wide max over one value per thread (e.g. the per-thread scores in
  /// Procedure SharedMemBigNodes). Charged as a tree reduction + barrier.
  template <typename T>
  T ReduceMax(const std::vector<T>& per_thread, T identity) const {
    ChargeReduce();
    T best = identity;
    for (const T& v : per_thread) best = std::max(best, v);
    return best;
  }

  /// Block-wide sum over one value per thread.
  template <typename T>
  T ReduceSum(const std::vector<T>& per_thread) const {
    ChargeReduce();
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
  WarpMemo memo_;
  bool warps_ran_ = false;
};

}  // namespace glp::sim
