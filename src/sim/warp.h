// Warp execution context: lockstep lane operations, warp intrinsics, and the
// instrumented memory interfaces.
//
// Kernel code receives a Warp& per warp phase and expresses divergence via
// the active mask. Every warp-wide operation updates KernelStats:
//   - one warp instruction and 32 lane slots (active lanes counted for the
//     utilization metric the low-degree optimization improves),
//   - global accesses grouped into 32-byte sectors (the coalescing model),
//     priced in a device address space: a lane's sector is its element's
//     byte offset from the `base` pointer it was handed, divided by 32, as
//     if `base` were a 256B-aligned cudaMalloc allocation. Counts are thus a
//     pure function of the indices, never of where the host heap put the
//     array. A `base` pointing *into* an allocation (a region of a larger
//     arena) must sit at a 32B multiple from the allocation start, so its
//     sectors line up with the allocation's,
//   - shared accesses charged with bank-conflict replays,
//   - atomics charged with intra-warp address-conflict serialization.
//
// The intrinsics mirror the CUDA primitives the paper's §4.2 warp-centric
// scheduling uses: __ballot_sync, __match_any_sync, __shfl_sync, __popc.

#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <type_traits>

#include "sim/lane.h"
#include "sim/shared_memory.h"
#include "sim/stats.h"

namespace glp::sim {

/// Execution context of one 32-lane warp.
class Warp {
 public:
  Warp(int warp_id, LaneMask active, KernelStats* stats)
      : warp_id_(warp_id), active_(active), stats_(stats) {}

  int warp_id() const { return warp_id_; }
  LaneMask active() const { return active_; }
  void SetActive(LaneMask m) { active_ = m; }
  KernelStats* stats() { return stats_; }

  /// Charges `n` warp-wide ALU instructions under the current active mask.
  /// Kernels call this for untracked per-lane arithmetic so the compute pipe
  /// sees a faithful instruction count.
  void CountInstr(int n = 1) {
    stats_->instructions += n;
    stats_->total_lane_cycles += static_cast<uint64_t>(n) * kWarpSize;
    stats_->active_lane_cycles +=
        static_cast<uint64_t>(n) * static_cast<uint64_t>(Popc(active_));
  }

  // ------------------------------------------------------------------
  // Warp intrinsics
  // ------------------------------------------------------------------

  /// __ballot_sync: mask of active lanes whose predicate is non-zero.
  LaneMask BallotSync(const LaneArray<int>& pred) {
    ChargeIntrinsic();
    LaneMask out = 0;
    ForEachLane(active_, [&](int lane) {
      if (pred[lane] != 0) out |= LaneBit(lane);
    });
    return out;
  }

  /// __match_any_sync: for each active lane, the mask of active lanes holding
  /// an equal value. Inactive lanes get 0.
  template <typename T>
  LaneArray<LaneMask> MatchAnySync(const LaneArray<T>& v) {
    return MatchAnySync(v, active_);
  }

  /// __match_any_sync restricted to a sub-mask (peers within `group`).
  /// Resolves one equality group per step: the lowest unresolved lane's value
  /// is compared against all 32 lanes at once, O(32 * groups).
  template <typename T>
  LaneArray<LaneMask> MatchAnySync(const LaneArray<T>& v, LaneMask group) {
    static_assert(std::is_integral_v<T>,
                  "__match_any_sync compares integer bit patterns");
    ChargeIntrinsic();
    LaneArray<LaneMask> out(0);
    LaneMask rest = group;
    while (rest != 0) {
      const LaneMask peers = EqualLanes(v, v[FirstLane(rest)]) & rest;
      ForEachLane(peers, [&](int lane) { out[lane] = peers; });
      rest &= ~peers;
    }
    return out;
  }

  /// __shfl_sync: every active lane reads lane `src_lane`'s value.
  template <typename T>
  LaneArray<T> ShflSync(const LaneArray<T>& v, int src_lane) {
    ChargeIntrinsic();
    LaneArray<T> out{};
    ForEachLane(active_, [&](int lane) { out[lane] = v[src_lane]; });
    return out;
  }

  /// __shfl_sync with a per-lane source index.
  template <typename T>
  LaneArray<T> ShflIdxSync(const LaneArray<T>& v, const LaneArray<int>& src) {
    ChargeIntrinsic();
    LaneArray<T> out{};
    ForEachLane(active_, [&](int lane) { out[lane] = v[src[lane]]; });
    return out;
  }

  /// Warp-wide max reduction over active lanes (butterfly shuffles, 5 steps).
  template <typename T>
  T ReduceMax(const LaneArray<T>& v, T identity) {
    stats_->intrinsic_ops += 5;
    CountInstr(5);
    T best = identity;
    ForEachLane(active_, [&](int lane) { best = std::max(best, v[lane]); });
    return best;
  }

  /// Warp-wide sum reduction over active lanes.
  template <typename T>
  T ReduceSum(const LaneArray<T>& v) {
    stats_->intrinsic_ops += 5;
    CountInstr(5);
    T sum = T{};
    ForEachLane(active_, [&](int lane) { sum += v[lane]; });
    return sum;
  }

  // ------------------------------------------------------------------
  // Global memory (instrumented, coalescing-aware)
  // ------------------------------------------------------------------

  /// Per-lane gather: out[lane] = base[idx[lane]] for active lanes.
  template <typename T, typename Index>
  LaneArray<T> Gather(const T* base, const LaneArray<Index>& idx) {
    LaneArray<T> out{};
    uint64_t sectors[kWarpSize];
    int n = 0;
    ForEachLane(active_, [&](int lane) {
      out[lane] = base[idx[lane]];
      sectors[n++] = Sector<T>(idx[lane]);
    });
    ChargeGlobalAccess(sectors, n, sizeof(T));
    return out;
  }

  /// Per-lane scatter: base[idx[lane]] = val[lane] for active lanes.
  template <typename T, typename Index>
  void Scatter(T* base, const LaneArray<Index>& idx, const LaneArray<T>& val) {
    uint64_t sectors[kWarpSize];
    int n = 0;
    ForEachLane(active_, [&](int lane) {
      base[idx[lane]] = val[lane];
      sectors[n++] = Sector<T>(idx[lane]);
    });
    ChargeGlobalAccess(sectors, n, sizeof(T));
  }

  /// Contiguous gather: out[lane] = base[start + lane]; the fully-coalesced
  /// fast path for neighbor-list scans.
  template <typename T>
  LaneArray<T> GatherContig(const T* base, int64_t start) {
    LaneArray<T> out{};
    if (active_ == kFullMask) {
      // A block copy: several times faster than the per-lane loop.
      std::copy_n(base + start, kWarpSize, out.v.begin());
    } else {
      ForEachLane(active_, [&](int lane) { out[lane] = base[start + lane]; });
    }
    ChargeContigAccess<T>(start);
    return out;
  }

  /// Per-lane atomic add on global memory; returns the pre-add values.
  /// Safe under concurrent blocks (host threads) via std::atomic_ref.
  template <typename T, typename Index>
  LaneArray<T> AtomicAddGlobal(T* base, const LaneArray<Index>& idx,
                               const LaneArray<T>& val) {
    LaneArray<T> out{};
    uint64_t elems[kWarpSize];
    int n = 0;
    ForEachLane(active_, [&](int lane) {
      std::atomic_ref<T> ref(base[idx[lane]]);
      out[lane] = ref.fetch_add(val[lane], std::memory_order_relaxed);
      elems[n++] = static_cast<uint64_t>(idx[lane]);
    });
    ChargeGlobalAtomic(elems, n);
    CountInstr();
    return out;
  }

  /// Per-lane atomic compare-and-swap on global memory; returns the observed
  /// values (== expected on success).
  template <typename T, typename Index>
  LaneArray<T> AtomicCasGlobal(T* base, const LaneArray<Index>& idx,
                               const LaneArray<T>& expected,
                               const LaneArray<T>& desired) {
    LaneArray<T> out{};
    uint64_t elems[kWarpSize];
    int n = 0;
    ForEachLane(active_, [&](int lane) {
      std::atomic_ref<T> ref(base[idx[lane]]);
      T exp = expected[lane];
      ref.compare_exchange_strong(exp, desired[lane],
                                  std::memory_order_relaxed);
      out[lane] = exp;
      elems[n++] = static_cast<uint64_t>(idx[lane]);
    });
    ChargeGlobalAtomic(elems, n);
    CountInstr();
    return out;
  }

  // ------------------------------------------------------------------
  // Shared memory (instrumented, bank-conflict-aware)
  // ------------------------------------------------------------------

  /// Per-lane load from a shared array.
  template <typename T, typename Index>
  LaneArray<T> SharedLoad(const SharedSpan<T>& s, const LaneArray<Index>& idx) {
    LaneArray<T> out{};
    ForEachLane(active_, [&](int lane) { out[lane] = s.data[idx[lane]]; });
    ChargeSharedAccess(s, idx, sizeof(T));
    return out;
  }

  /// Per-lane store to a shared array.
  template <typename T, typename Index>
  void SharedStore(SharedSpan<T>& s, const LaneArray<Index>& idx,
                   const LaneArray<T>& val) {
    ForEachLane(active_, [&](int lane) { s.data[idx[lane]] = val[lane]; });
    ChargeSharedAccess(s, idx, sizeof(T));
  }

  /// Stride-1 load: out[lane] = s[start + lane] for active lanes (table
  /// clears and scans).
  template <typename T>
  LaneArray<T> SharedLoadContig(const SharedSpan<T>& s, int64_t start) {
    LaneArray<T> out{};
    ForEachLane(active_, [&](int lane) { out[lane] = s.data[start + lane]; });
    ChargeSharedContig<T>();
    return out;
  }

  /// Stride-1 store: s[start + lane] = val[lane] for active lanes.
  template <typename T>
  void SharedStoreContig(SharedSpan<T>& s, int64_t start,
                         const LaneArray<T>& val) {
    ForEachLane(active_, [&](int lane) { s.data[start + lane] = val[lane]; });
    ChargeSharedContig<T>();
  }

  /// Per-lane atomic add on a shared array (warps in a block run serially, so
  /// plain arithmetic is correct; the cost of serialization is charged).
  /// Returns the post-add values, matching CUDA's atomicAdd + operand usage
  /// pattern in the paper's Procedure SharedMemBigNodes (freq after insert).
  template <typename T, typename Index>
  LaneArray<T> SharedAtomicAdd(SharedSpan<T>& s, const LaneArray<Index>& idx,
                               const LaneArray<T>& val) {
    LaneArray<T> out{};
    ForEachLane(active_, [&](int lane) {
      s.data[idx[lane]] += val[lane];
      out[lane] = s.data[idx[lane]];
    });
    ChargeSharedAtomic();
    return out;
  }

  /// Per-lane atomic CAS on a shared array; lanes apply in lane order (the
  /// hardware serializes conflicting atomics in unspecified order; lane order
  /// keeps the simulation deterministic). Returns observed values.
  template <typename T, typename Index>
  LaneArray<T> SharedAtomicCas(SharedSpan<T>& s, const LaneArray<Index>& idx,
                               const LaneArray<T>& expected,
                               const LaneArray<T>& desired) {
    LaneArray<T> out{};
    ForEachLane(active_, [&](int lane) {
      T& slot = s.data[idx[lane]];
      out[lane] = slot;
      if (slot == expected[lane]) slot = desired[lane];
    });
    ChargeSharedAtomic();
    return out;
  }

  /// Charges one shared-memory atomic instruction issued by the active lanes
  /// — exactly what SharedAtomicAdd/SharedAtomicCas charge. For kernels that
  /// apply several atomics' effects in one fused lane loop (in lane order,
  /// as those methods do) and charge each atomic here.
  void ChargeSharedAtomic() {
    stats_->shared_atomics += static_cast<uint64_t>(Popc(active_));
    CountInstr();
  }

  // ------------------------------------------------------------------
  // Charge-only calls: what an access or intrinsic costs, without its
  // lane work. For kernels that know the outcome already (a
  // label-independent prefix computed once per run, a table whose
  // occupied slots are tracked on the host). Each charges exactly what
  // the functional call named beside it does.
  // ------------------------------------------------------------------

  /// One warp intrinsic (ballot, match_any, shfl, popc).
  void ChargeIntrinsic() {
    stats_->intrinsic_ops += 1;
    CountInstr();
  }

  /// Gather(base, idx) or Scatter(base, idx, val) on an array of T.
  template <typename T, typename Index>
  void ChargeGather(const LaneArray<Index>& idx) {
    uint64_t sectors[kWarpSize];
    int n = 0;
    ForEachLane(active_,
                [&](int lane) { sectors[n++] = Sector<T>(idx[lane]); });
    ChargeGlobalAccess(sectors, n, sizeof(T));
  }

  /// GatherContig(base, start) on an array of T.
  template <typename T>
  void ChargeGatherContig(int64_t start) {
    ChargeContigAccess<T>(start);
  }

  /// SharedLoadContig or SharedStoreContig on a shared array of T.
  template <typename T>
  void ChargeSharedContig() {
    // Word-aligned elements put every lane's first byte on a word boundary
    // (SharedMemory aligns each span to alignof(T)).
    static_assert(sizeof(T) % 4 == 0 && alignof(T) % 4 == 0,
                  "stride-1 closed form needs word-sized, word-aligned "
                  "elements; use SharedLoad/SharedStore");
    CountInstr();
    stats_->shared_accesses += 1;
    // Bank conflicts of a stride-1 access s[start + lane] in closed form.
    // With k-word elements lane l's word is w0 + k*l, so lanes l and l'
    // share a bank iff k(l - l') = 0 mod 32, i.e. iff they are congruent
    // mod P = 32 / gcd(k, 32), and then always on distinct words; the
    // replay count is the fullest residue class of active lanes, minus
    // one, whatever the span's offset or `start`.
    constexpr int kWords = static_cast<int>(sizeof(T) / 4);
    constexpr int kPeriod = kWarpSize / std::gcd(kWords, kWarpSize);
    if constexpr (kPeriod < kWarpSize) {
      LaneMask every_period = 0;
      for (int lane = 0; lane < kWarpSize; lane += kPeriod) {
        every_period |= LaneBit(lane);
      }
      int max_mult = 0;
      for (int r = 0; r < kPeriod; ++r) {
        max_mult = std::max(max_mult, Popc((active_ >> r) & every_period));
      }
      if (max_mult > 1) {
        stats_->shared_bank_conflicts += static_cast<uint64_t>(max_mult - 1);
      }
    }
  }

 private:
  /// The 32B sector holding element `i` of an array, in the device address
  /// space: the element's byte offset from the array base over 32. Bases are
  /// modeled as 256B-aligned cudaMalloc allocations, so the offset alone
  /// fixes the sector; host heap addresses never enter a count.
  template <typename T, typename Index>
  static uint64_t Sector(Index i) {
    return static_cast<uint64_t>(i) * sizeof(T) / 32;
  }

  /// Coalescing: one transaction per distinct sector touched by the warp.
  void ChargeGlobalAccess(const uint64_t* sectors, int n, size_t elem_bytes) {
    CountInstr();
    if (n == 0) return;
    stats_->global_transactions +=
        static_cast<uint64_t>(CountDistinct(sectors, n));
    stats_->global_bytes_requested += static_cast<uint64_t>(n) * elem_bytes;
  }

  /// Coalescing of base[start + lane] over the active lanes. A contiguous run
  /// of lanes spans first..last sector in closed form; a gapped mask still
  /// walks sectors in order, so counting sector changes is exact.
  template <typename T>
  void ChargeContigAccess(int64_t start) {
    CountInstr();
    if (active_ == 0) return;
    const int first = FirstLane(active_);
    const int last = kWarpSize - 1 - std::countl_zero(active_);
    const LaneMask run = active_ >> first;
    uint64_t sectors = 0;
    if ((run & (run + 1)) == 0) {
      sectors = Sector<T>(start + last) - Sector<T>(start + first) + 1;
    } else {
      uint64_t prev = Sector<T>(start + first);
      sectors = 1;
      ForEachLane(active_, [&](int lane) {
        const uint64_t sec = Sector<T>(start + lane);
        sectors += sec != prev;
        prev = sec;
      });
    }
    stats_->global_transactions += sectors;
    stats_->global_bytes_requested +=
        static_cast<uint64_t>(Popc(active_)) * sizeof(T);
  }

  /// Atomics: distinct elements proceed in parallel; duplicates serialize.
  void ChargeGlobalAtomic(const uint64_t* elems, int n) {
    if (n == 0) return;
    const int distinct = CountDistinct(elems, n);
    stats_->global_atomics += static_cast<uint64_t>(distinct);
    stats_->global_atomic_conflicts += static_cast<uint64_t>(n - distinct);
  }

  /// Bank conflicts: 32 four-byte banks; lanes hitting different words in the
  /// same bank replay. Same-word accesses broadcast (no conflict). One pass
  /// keeps the first word each bank sees; the exact per-bank word count runs
  /// only once some bank sees a second distinct word.
  template <typename T, typename Index>
  void ChargeSharedAccess(const SharedSpan<T>& s, const LaneArray<Index>& idx,
                          size_t elem_bytes) {
    CountInstr();
    stats_->shared_accesses += 1;
    uint64_t words[kWarpSize];
    uint64_t first_word[kWarpSize];
    uint32_t seen = 0;
    bool conflict = false;
    int n = 0;
    ForEachLane(active_, [&](int lane) {
      const uint64_t word =
          (s.byte_offset + static_cast<uint64_t>(idx[lane]) * elem_bytes) / 4;
      words[n++] = word;
      const int bank = static_cast<int>(word % kWarpSize);
      if ((seen >> bank & 1u) == 0) {
        seen |= 1u << bank;
        first_word[bank] = word;
      } else if (first_word[bank] != word) {
        conflict = true;
      }
    });
    if (!conflict) return;
    LaneKeySet distinct;
    int per_bank[kWarpSize] = {0};
    int max_mult = 1;
    for (int i = 0; i < n; ++i) {
      if (!distinct.Insert(words[i])) continue;  // broadcast
      const int bank = static_cast<int>(words[i] % kWarpSize);
      max_mult = std::max(max_mult, ++per_bank[bank]);
    }
    stats_->shared_bank_conflicts += static_cast<uint64_t>(max_mult - 1);
  }

  /// Mask of all 32 lanes with v[lane] == x. The compares fill one byte per
  /// lane (a vectorizable loop); a multiply then gathers each 8-byte group's
  /// low bits into 8 mask bits, exact because the partial products never
  /// overlap.
  template <typename T>
  static LaneMask EqualLanes(const LaneArray<T>& v, T x) {
    static_assert(std::endian::native == std::endian::little,
                  "lane i's byte must load as byte i of the 64-bit group");
    uint8_t eq[kWarpSize];
    for (int lane = 0; lane < kWarpSize; ++lane) eq[lane] = v[lane] == x;
    LaneMask mask = 0;
    for (int g = 0; g < kWarpSize / 8; ++g) {
      uint64_t bytes = 0;
      std::memcpy(&bytes, eq + 8 * g, 8);
      mask |= static_cast<LaneMask>((bytes * 0x0102040810204080ULL) >> 56)
              << (8 * g);
    }
    return mask;
  }

  /// Open-addressing set of at most kWarpSize keys in 256 slots. Occupancy
  /// lives in four 64-bit words, so a fresh set costs four stores to clear;
  /// slots are read only under their occupancy bit. At most 1/8 full, a
  /// probe rarely meets an occupied slot, which keeps the insert branch
  /// predictable (a 64-slot table measured ~2x slower on random gathers).
  class LaneKeySet {
   public:
    /// Adds `key`; false if it was already present.
    bool Insert(uint64_t key) {
      unsigned h = static_cast<unsigned>((key * 0x9e3779b97f4a7c15ULL) >>
                                         (64 - kLogSlots));
      while ((used_[h / 64] >> (h % 64) & 1u) != 0) {
        if (slots_[h] == key) return false;
        h = (h + 1) & (kSlotCount - 1);
      }
      used_[h / 64] |= uint64_t{1} << (h % 64);
      slots_[h] = key;
      return true;
    }

   private:
    static constexpr int kLogSlots = 8;
    static constexpr unsigned kSlotCount = 1u << kLogSlots;
    uint64_t used_[kSlotCount / 64] = {};
    uint64_t slots_[kSlotCount];
  };

  /// Number of distinct values among keys[0, n), n <= kWarpSize. A
  /// non-decreasing sequence (contiguous runs, CSR walks, broadcasts) is
  /// counted in the same pass that checks its order; anything else goes
  /// through a LaneKeySet.
  static int CountDistinct(const uint64_t* keys, int n) {
    int runs = 1;
    bool sorted = true;
    for (int i = 1; i < n; ++i) {
      runs += keys[i] != keys[i - 1];
      sorted &= keys[i] >= keys[i - 1];
    }
    if (sorted) return runs;
    LaneKeySet set;
    int distinct = 0;
    for (int i = 0; i < n; ++i) distinct += set.Insert(keys[i]);
    return distinct;
  }

  int warp_id_;
  LaneMask active_;
  KernelStats* stats_;
};

}  // namespace glp::sim
