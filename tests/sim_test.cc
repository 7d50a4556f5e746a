// Unit tests for the SIMT simulator: lane primitives, warp intrinsics,
// coalescing / bank-conflict accounting, block execution, launch, cost
// model, segmented sort, transfers.

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/sim.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace glp::sim {
namespace {

TEST(LaneTest, PopcAndFirstLane) {
  EXPECT_EQ(Popc(0u), 0);
  EXPECT_EQ(Popc(kFullMask), 32);
  EXPECT_EQ(Popc(0b1011u), 3);
  EXPECT_EQ(FirstLane(0u), -1);
  EXPECT_EQ(FirstLane(0b1000u), 3);
  EXPECT_EQ(FirstLane(kFullMask), 0);
}

TEST(LaneTest, ForEachLaneVisitsInOrder) {
  std::vector<int> seen;
  ForEachLane(0b10101u, [&](int lane) { seen.push_back(lane); });
  EXPECT_EQ(seen, (std::vector<int>{0, 2, 4}));
}

TEST(WarpTest, BallotSyncMatchesPredicates) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  LaneArray<int> pred(0);
  pred[3] = 1;
  pred[17] = 1;
  EXPECT_EQ(w.BallotSync(pred), LaneBit(3) | LaneBit(17));
  EXPECT_EQ(stats.intrinsic_ops, 1u);
}

TEST(WarpTest, BallotRespectsActiveMask) {
  KernelStats stats;
  Warp w(0, 0b0111u, &stats);
  LaneArray<int> pred(1);  // all lanes claim true
  EXPECT_EQ(w.BallotSync(pred), 0b0111u);  // only active lanes counted
}

TEST(WarpTest, MatchAnyGroupsEqualValues) {
  KernelStats stats;
  Warp w(0, 0b11111u, &stats);
  LaneArray<uint32_t> v(0);
  v[0] = 7;
  v[1] = 7;
  v[2] = 9;
  v[3] = 7;
  v[4] = 9;
  auto m = w.MatchAnySync(v);
  const LaneMask sevens = LaneBit(0) | LaneBit(1) | LaneBit(3);
  const LaneMask nines = LaneBit(2) | LaneBit(4);
  EXPECT_EQ(m[0], sevens);
  EXPECT_EQ(m[1], sevens);
  EXPECT_EQ(m[3], sevens);
  EXPECT_EQ(m[2], nines);
  EXPECT_EQ(m[4], nines);
}

TEST(WarpTest, MatchAnyWithSubgroupIgnoresOutsiders) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  LaneArray<uint32_t> v(5);  // every lane holds 5
  auto m = w.MatchAnySync(v, 0b110u);
  EXPECT_EQ(m[1], 0b110u);
  EXPECT_EQ(m[2], 0b110u);
  EXPECT_EQ(m[0], 0u);  // outside the group
}

TEST(WarpTest, ShflBroadcasts) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  LaneArray<int> v;
  for (int i = 0; i < kWarpSize; ++i) v[i] = i * 10;
  auto out = w.ShflSync(v, 5);
  for (int i = 0; i < kWarpSize; ++i) EXPECT_EQ(out[i], 50);
}

TEST(WarpTest, ShflIdxSyncPermutes) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  LaneArray<int> v;
  LaneArray<int> src;
  for (int i = 0; i < kWarpSize; ++i) {
    v[i] = i * 3;
    src[i] = (i + 1) % kWarpSize;  // rotate left
  }
  auto out = w.ShflIdxSync(v, src);
  for (int i = 0; i < kWarpSize; ++i) {
    EXPECT_EQ(out[i], ((i + 1) % kWarpSize) * 3);
  }
}

TEST(WarpTest, ReduceMaxOverActiveLanesOnly) {
  KernelStats stats;
  Warp w(0, 0b0011u, &stats);
  LaneArray<double> v(0.0);
  v[0] = 1.5;
  v[1] = 2.5;
  v[9] = 99.0;  // inactive lane must be ignored
  EXPECT_DOUBLE_EQ(w.ReduceMax(v, -1.0), 2.5);
}

TEST(WarpTest, ReduceSumOverActiveLanes) {
  KernelStats stats;
  Warp w(0, 0b0111u, &stats);
  LaneArray<int> v(0);
  v[0] = 1;
  v[1] = 2;
  v[2] = 3;
  v[3] = 1000;  // inactive
  EXPECT_EQ(w.ReduceSum(v), 6);
}

TEST(WarpMemoryTest, ContiguousGatherIsCoalesced) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  std::vector<uint32_t> data(64);
  std::iota(data.begin(), data.end(), 0u);
  auto out = w.GatherContig(data.data(), 8);
  for (int i = 0; i < kWarpSize; ++i) EXPECT_EQ(out[i], 8u + i);
  // 32 lanes x 4B contiguous = 128B = 4 or 5 sectors depending on alignment.
  EXPECT_LE(stats.global_transactions, 5u);
  EXPECT_GE(stats.global_transactions, 4u);
  EXPECT_EQ(stats.global_bytes_requested, 32u * 4);
}

TEST(WarpMemoryTest, ScatteredGatherCostsOneSectorPerLane) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  std::vector<uint32_t> data(32 * 64);
  LaneArray<int64_t> idx;
  for (int i = 0; i < kWarpSize; ++i) idx[i] = i * 64;  // 256B apart
  w.Gather(data.data(), idx);
  EXPECT_EQ(stats.global_transactions, 32u);
}

TEST(WarpMemoryTest, DuplicateAddressesCoalesceToOneSector) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  std::vector<uint32_t> data(32, 5);
  LaneArray<int64_t> idx(int64_t{3});  // all lanes read data[3]
  auto out = w.Gather(data.data(), idx);
  EXPECT_EQ(out[31], 5u);
  EXPECT_EQ(stats.global_transactions, 1u);
}

TEST(WarpMemoryTest, ScatterWritesActiveLanesOnly) {
  KernelStats stats;
  Warp w(0, 0b101u, &stats);
  std::vector<uint32_t> data(8, 0);
  LaneArray<int64_t> idx;
  idx[0] = 1;
  idx[2] = 3;
  LaneArray<uint32_t> val;
  val[0] = 11;
  val[2] = 22;
  w.Scatter(data.data(), idx, val);
  EXPECT_EQ(data[1], 11u);
  EXPECT_EQ(data[3], 22u);
  EXPECT_EQ(data[0], 0u);
}

TEST(WarpMemoryTest, AtomicAddGlobalAccumulatesAndCountsConflicts) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  std::vector<uint32_t> data(4, 0);
  LaneArray<int64_t> idx(int64_t{2});  // all 32 lanes hit data[2]
  LaneArray<uint32_t> val(1u);
  w.AtomicAddGlobal(data.data(), idx, val);
  EXPECT_EQ(data[2], 32u);
  EXPECT_EQ(stats.global_atomics, 1u);
  EXPECT_EQ(stats.global_atomic_conflicts, 31u);
}

TEST(WarpMemoryTest, AtomicCasGlobalClaimsOnce) {
  KernelStats stats;
  Warp w(0, 0b11u, &stats);
  std::vector<uint32_t> slot(1, 0xffffffffu);
  LaneArray<int64_t> idx(int64_t{0});
  LaneArray<uint32_t> expected(0xffffffffu);
  LaneArray<uint32_t> desired;
  desired[0] = 100;
  desired[1] = 200;
  auto observed = w.AtomicCasGlobal(slot.data(), idx, expected, desired);
  // Lane 0 wins (lane order); lane 1 observes lane 0's value.
  EXPECT_EQ(observed[0], 0xffffffffu);
  EXPECT_EQ(observed[1], 100u);
  EXPECT_EQ(slot[0], 100u);
}

TEST(SharedMemoryTest, AllocAndOverflow) {
  SharedMemory smem(1024);
  auto a = smem.Alloc<uint32_t>(100);
  EXPECT_EQ(a.size, 100u);
  EXPECT_TRUE(smem.Fits<uint32_t>(156));
  EXPECT_FALSE(smem.Fits<uint32_t>(157));
  smem.Reset();
  EXPECT_EQ(smem.used(), 0u);
  EXPECT_TRUE(smem.Fits<uint32_t>(256));
}

TEST(SharedMemoryTest, AllocZeroInitializes) {
  SharedMemory smem(256);
  auto a = smem.Alloc<float>(16);
  for (size_t i = 0; i < a.size; ++i) EXPECT_EQ(a[i], 0.0f);
}

TEST(SharedMemoryDeathTest, OverflowAborts) {
  SharedMemory smem(64);
  EXPECT_DEATH(smem.Alloc<uint64_t>(100), "shared memory overflow");
}

TEST(SharedAccessTest, StrideOneHasNoBankConflicts) {
  KernelStats stats;
  SharedMemory smem(4096);
  auto arr = smem.Alloc<uint32_t>(64);
  Warp w(0, kFullMask, &stats);
  LaneArray<int> idx;
  for (int i = 0; i < kWarpSize; ++i) idx[i] = i;
  w.SharedLoad(arr, idx);
  EXPECT_EQ(stats.shared_bank_conflicts, 0u);
}

TEST(SharedAccessTest, StrideTwoHasTwoWayConflicts) {
  KernelStats stats;
  SharedMemory smem(4096);
  auto arr = smem.Alloc<uint32_t>(64);
  Warp w(0, kFullMask, &stats);
  LaneArray<int> idx;
  for (int i = 0; i < kWarpSize; ++i) idx[i] = 2 * i;
  w.SharedLoad(arr, idx);
  EXPECT_EQ(stats.shared_bank_conflicts, 1u);  // 2-way -> 1 replay
}

TEST(SharedAccessTest, SameWordBroadcastsWithoutConflict) {
  KernelStats stats;
  SharedMemory smem(4096);
  auto arr = smem.Alloc<uint32_t>(64);
  Warp w(0, kFullMask, &stats);
  LaneArray<int> idx(7);  // all lanes read word 7
  w.SharedLoad(arr, idx);
  EXPECT_EQ(stats.shared_bank_conflicts, 0u);
}

TEST(SharedAccessTest, SharedAtomicAddReturnsPostValue) {
  KernelStats stats;
  SharedMemory smem(4096);
  auto arr = smem.Alloc<float>(8);
  Warp w(0, 0b111u, &stats);
  LaneArray<int> idx(3);  // three lanes hit slot 3
  LaneArray<float> val(1.0f);
  auto post = w.SharedAtomicAdd(arr, idx, val);
  EXPECT_EQ(arr[3], 3.0f);
  // Lane-order serialization: post values are 1, 2, 3.
  EXPECT_EQ(post[0], 1.0f);
  EXPECT_EQ(post[1], 2.0f);
  EXPECT_EQ(post[2], 3.0f);
  EXPECT_EQ(stats.shared_atomics, 3u);
}

TEST(BlockTest, ForEachWarpSplitsThreads) {
  KernelStats stats;
  SharedMemory smem(1024);
  Block blk(0, 80, &smem, &stats);  // 2.5 warps
  std::vector<std::pair<int, int>> seen;  // (warp_id, active_count)
  blk.ForEachWarp([&](Warp& w) {
    seen.push_back({w.warp_id(), Popc(w.active())});
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<int, int>{0, 32}));
  EXPECT_EQ(seen[1], (std::pair<int, int>{1, 32}));
  EXPECT_EQ(seen[2], (std::pair<int, int>{2, 16}));
}

TEST(BlockTest, ReduceMaxChargesAndComputes) {
  KernelStats stats;
  SharedMemory smem(1024);
  Block blk(0, 4, &smem, &stats);
  std::vector<double> vals{1.0, 9.0, 3.0, -2.0};
  EXPECT_DOUBLE_EQ(blk.ReduceMax(vals, -100.0), 9.0);
  EXPECT_EQ(stats.block_reduces, 1u);
}

TEST(BlockTest, ReduceSumAddsAll) {
  KernelStats stats;
  SharedMemory smem(256);
  Block blk(0, 5, &smem, &stats);
  std::vector<int> vals{1, 2, 3, 4, 5};
  EXPECT_EQ(blk.ReduceSum(vals), 15);
  EXPECT_EQ(stats.block_reduces, 1u);
}

TEST(SegmentedSortTest, EmptyAndSingletonSegments) {
  std::vector<uint32_t> keys{9, 3};
  std::vector<int64_t> offsets{0, 0, 1, 1, 2};  // empty, {9}, empty, {3}
  auto stats = DeviceSegmentedSort(DeviceProps::TitanV(), keys, offsets,
                                   nullptr);
  EXPECT_EQ(keys, (std::vector<uint32_t>{9, 3}));
  EXPECT_EQ(stats.kernel_launches, 1u);
}

TEST(LaunchTest, NullPoolRunsInline) {
  std::vector<int> hits(10, 0);
  LaunchConfig cfg{10, 32};
  Launch(DeviceProps::TitanV(), cfg, nullptr,
         [&](Block& blk) { hits[blk.block_idx()] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(LaunchTest, RunsAllBlocks) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  LaunchConfig cfg{100, 64};
  auto stats = Launch(DeviceProps::TitanV(), cfg, &pool, [&](Block& blk) {
    hits[blk.block_idx()].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(stats.kernel_launches, 1u);
  EXPECT_EQ(stats.blocks_executed, 100u);
}

TEST(LaunchTest, StatsAggregateAcrossBlocks) {
  ThreadPool pool(4);
  std::vector<uint32_t> data(32 * 10);
  LaunchConfig cfg{10, 32};
  auto stats = Launch(DeviceProps::TitanV(), cfg, &pool, [&](Block& blk) {
    blk.ForEachWarp([&](Warp& w) {
      w.GatherContig(data.data(), blk.block_idx() * 32);
    });
  });
  EXPECT_EQ(stats.global_bytes_requested, 10u * 32 * 4);
}

TEST(LaunchTest, DeterministicResultsUnderConcurrency) {
  ThreadPool pool(8);
  std::vector<uint32_t> counter(1, 0);
  LaunchConfig cfg{1000, 32};
  Launch(DeviceProps::TitanV(), cfg, &pool, [&](Block& blk) {
    blk.ForEachWarp([&](Warp& w) {
      LaneArray<int64_t> idx(int64_t{0});
      LaneArray<uint32_t> val(1u);
      w.AtomicAddGlobal(counter.data(), idx, val);
    });
  });
  EXPECT_EQ(counter[0], 32u * 1000);
}

TEST(CostModelTest, MemoryBoundKernelPricedByBandwidth) {
  CostModel cost(DeviceProps::TitanV());
  KernelStats s;
  s.kernel_launches = 1;
  s.global_transactions = 1000000;  // 32 MB
  const KernelTime t = cost.KernelCost(s);
  const double expected = 32e6 / (652e9 * 0.8);
  EXPECT_NEAR(t.mem_s, expected, expected * 0.01);
  EXPECT_GT(t.total_s, t.mem_s);  // launch overhead added
}

TEST(CostModelTest, ComputeBoundKernelPricedByIssueRate) {
  CostModel cost(DeviceProps::TitanV());
  KernelStats s;
  s.kernel_launches = 1;
  s.instructions = 1000000000;
  const KernelTime t = cost.KernelCost(s);
  EXPECT_GT(t.compute_s, t.mem_s);
  EXPECT_NEAR(t.total_s, t.compute_s + t.launch_s, 1e-12);
}

TEST(CostModelTest, MonotoneInWork) {
  CostModel cost(DeviceProps::TitanV());
  KernelStats base;
  base.kernel_launches = 1;
  base.global_transactions = 1000;
  base.instructions = 1000;
  const double t0 = cost.KernelCost(base).total_s;

  KernelStats more_mem = base;
  more_mem.global_transactions *= 10;
  EXPECT_GE(cost.KernelCost(more_mem).total_s, t0);

  KernelStats more_compute = base;
  more_compute.instructions += 1000000;
  more_compute.shared_atomics += 1000;
  EXPECT_GE(cost.KernelCost(more_compute).total_s, t0);

  KernelStats more_launches = base;
  more_launches.kernel_launches = 5;
  EXPECT_GT(cost.KernelCost(more_launches).total_s, t0);
}

TEST(CostModelTest, AtomicsPricedCheaperThanSectors) {
  // Global atomics resolve in L2 (8B RMW), not full DRAM sectors.
  CostModel cost(DeviceProps::TitanV());
  KernelStats atomics, sectors;
  atomics.global_atomics = 1000000;
  sectors.global_transactions = 1000000;
  EXPECT_LT(cost.KernelCost(atomics).mem_s, cost.KernelCost(sectors).mem_s);
}

TEST(CostModelTest, TransfersScaleWithBytes) {
  CostModel cost(DeviceProps::TitanV());
  const double t1 = cost.TransferCost(12ull * 1000 * 1000 * 1000);
  EXPECT_NEAR(t1, 1.0, 0.01);  // 12 GB over 12 GB/s
  EXPECT_LT(cost.PeerTransferCost(1000000), cost.TransferCost(1000000));
}

TEST(SegmentedSortTest, SortsEachSegment) {
  std::vector<uint32_t> keys{5, 3, 1, 9, 7, 2, 2, 8};
  std::vector<int64_t> offsets{0, 3, 3, 8};
  auto stats = DeviceSegmentedSort(DeviceProps::TitanV(), keys, offsets,
                                   nullptr);
  EXPECT_EQ(keys, (std::vector<uint32_t>{1, 3, 5, 2, 2, 7, 8, 9}));
  EXPECT_GT(stats.global_transactions, 0u);
}

TEST(SegmentedSortTest, LargeSegmentCostsMoreThanBlockSorted) {
  // A >2048 segment triggers the radix path, whose traffic is ~8x.
  std::vector<uint32_t> small(2048), big(4096);
  for (size_t i = 0; i < small.size(); ++i) small[i] = 2048 - i;
  for (size_t i = 0; i < big.size(); ++i) big[i] = 4096 - i;
  std::vector<int64_t> so{0, 2048}, bo{0, 4096};
  auto s1 = DeviceSegmentedSort(DeviceProps::TitanV(), small, so, nullptr);
  auto s2 = DeviceSegmentedSort(DeviceProps::TitanV(), big, bo, nullptr);
  EXPECT_GT(s2.global_transactions, 4 * s1.global_transactions);
  EXPECT_TRUE(std::is_sorted(big.begin(), big.end()));
}

TEST(TransferLedgerTest, AccumulatesVolumeAndTime) {
  CostModel cost(DeviceProps::TitanV());
  TransferLedger ledger(&cost);
  ledger.HostToDevice(1000);
  ledger.DeviceToHost(2000);
  ledger.PeerToPeer(500);
  ledger.OverlappedHostToDevice(1 << 20);
  EXPECT_EQ(ledger.h2d_bytes(), 1000u + (1 << 20));
  EXPECT_EQ(ledger.d2h_bytes(), 2000u);
  EXPECT_EQ(ledger.p2p_bytes(), 500u);
  EXPECT_GT(ledger.seconds(), 0.0);
}

TEST(KernelStatsTest, UtilizationAndCoalescing) {
  KernelStats s;
  s.active_lane_cycles = 50;
  s.total_lane_cycles = 100;
  EXPECT_DOUBLE_EQ(s.LaneUtilization(), 0.5);
  s.global_transactions = 10;  // 320 B moved
  s.global_bytes_requested = 160;
  EXPECT_DOUBLE_EQ(s.CoalescingEfficiency(), 0.5);
}

TEST(KernelStatsTest, AccumulationAddsAllFields) {
  KernelStats a, b;
  a.instructions = 5;
  a.global_atomics = 2;
  b.instructions = 7;
  b.shared_accesses = 3;
  a += b;
  EXPECT_EQ(a.instructions, 12u);
  EXPECT_EQ(a.global_atomics, 2u);
  EXPECT_EQ(a.shared_accesses, 3u);
}

// ---------------------------------------------------------------------------
// Property test: the warp's charging fast paths against a reference model.
//
// The reference is the original sort-based accounting, kept here only: sort
// the active lanes' keys and count distinct values (sectors for coalescing,
// elements for atomics), and per-bank distinct words for bank conflicts.
// Every fast path must reproduce its KernelStats exactly over seeded random
// lane masks, index shapes and element sizes.

std::vector<uint64_t> StatFields(const KernelStats& k) {
  return {k.global_transactions, k.global_bytes_requested, k.global_atomics,
          k.global_atomic_conflicts, k.shared_accesses, k.shared_bank_conflicts,
          k.shared_atomics, k.instructions, k.intrinsic_ops, k.block_reduces,
          k.block_syncs, k.active_lane_cycles, k.total_lane_cycles,
          k.kernel_launches, k.blocks_executed};
}

uint64_t RefDistinct(std::vector<uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  return static_cast<uint64_t>(std::unique(keys.begin(), keys.end()) -
                               keys.begin());
}

void RefInstr(LaneMask mask, KernelStats* k) {
  k->instructions += 1;
  k->total_lane_cycles += kWarpSize;
  k->active_lane_cycles += static_cast<uint64_t>(Popc(mask));
}

/// One coalesced global access of elements `idx` over `mask`.
KernelStats RefGlobal(LaneMask mask, const LaneArray<int64_t>& idx,
                      size_t elem_bytes) {
  KernelStats k;
  RefInstr(mask, &k);
  std::vector<uint64_t> sectors;
  ForEachLane(mask, [&](int l) {
    sectors.push_back(static_cast<uint64_t>(idx[l]) * elem_bytes / 32);
  });
  if (!sectors.empty()) {
    k.global_transactions = RefDistinct(sectors);
    k.global_bytes_requested = sectors.size() * elem_bytes;
  }
  return k;
}

/// One global atomic over `mask` (the op's own instruction included).
KernelStats RefAtomic(LaneMask mask, const LaneArray<int64_t>& idx) {
  KernelStats k;
  std::vector<uint64_t> elems;
  ForEachLane(mask, [&](int l) {
    elems.push_back(static_cast<uint64_t>(idx[l]));
  });
  if (!elems.empty()) {
    k.global_atomics = RefDistinct(elems);
    k.global_atomic_conflicts = elems.size() - k.global_atomics;
  }
  RefInstr(mask, &k);
  return k;
}

/// One shared access: replays = max distinct words in a bank, minus one.
KernelStats RefShared(LaneMask mask, size_t byte_offset,
                      const LaneArray<int64_t>& idx, size_t elem_bytes) {
  KernelStats k;
  RefInstr(mask, &k);
  k.shared_accesses = 1;
  std::vector<uint64_t> words;
  ForEachLane(mask, [&](int l) {
    words.push_back(
        (byte_offset + static_cast<uint64_t>(idx[l]) * elem_bytes) / 4);
  });
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  int per_bank[kWarpSize] = {0};
  int max_mult = 1;
  for (uint64_t wd : words) {
    max_mult = std::max(max_mult, ++per_bank[wd % kWarpSize]);
  }
  k.shared_bank_conflicts = static_cast<uint64_t>(max_mult - 1);
  return k;
}

LaneArray<LaneMask> RefMatchAny(const LaneArray<uint32_t>& v, LaneMask group) {
  LaneArray<LaneMask> out(0);
  ForEachLane(group, [&](int i) {
    ForEachLane(group, [&](int j) {
      if (v[j] == v[i]) out[i] |= LaneBit(j);
    });
  });
  return out;
}

LaneMask RandomMask(Rng& rng) {
  switch (rng.Bounded(5)) {
    case 0: return kFullMask;
    case 1: {  // prefix, as in tail rounds of a neighbor-list scan
      const int lanes = 1 + static_cast<int>(rng.Bounded(kWarpSize));
      return lanes == kWarpSize ? kFullMask : (1u << lanes) - 1u;
    }
    case 2: {  // one contiguous run anywhere
      const int lo = static_cast<int>(rng.Bounded(kWarpSize));
      const int len = 1 + static_cast<int>(rng.Bounded(kWarpSize - lo));
      const LaneMask run = len == kWarpSize ? kFullMask : (1u << len) - 1u;
      return run << lo;
    }
    case 3: return LaneBit(static_cast<int>(rng.Bounded(kWarpSize)));
    default: return static_cast<LaneMask>(rng.Next());  // gapped (maybe 0)
  }
}

/// Per-lane indices in [0, limit): contiguous, monotone (with repeats),
/// duplicated (few distinct values) or random.
LaneArray<int64_t> RandomIndices(Rng& rng, int64_t limit, int* shape) {
  LaneArray<int64_t> idx(0);
  *shape = static_cast<int>(rng.Bounded(4));
  const int64_t base = static_cast<int64_t>(rng.Bounded(limit - 4 * kWarpSize));
  switch (*shape) {
    case 0:
      for (int l = 0; l < kWarpSize; ++l) idx[l] = base + l;
      break;
    case 1: {
      int64_t cur = base;
      for (int l = 0; l < kWarpSize; ++l) {
        idx[l] = cur;
        cur += static_cast<int64_t>(rng.Bounded(4));  // 0..3: repeats too
      }
      break;
    }
    case 2: {
      int64_t pool[3];
      for (int64_t& p : pool) p = static_cast<int64_t>(rng.Bounded(limit));
      for (int l = 0; l < kWarpSize; ++l) idx[l] = pool[rng.Bounded(3)];
      break;
    }
    default:
      for (int l = 0; l < kWarpSize; ++l) {
        idx[l] = static_cast<int64_t>(rng.Bounded(limit));
      }
  }
  return idx;
}

template <typename T>
void CheckGlobalCharges(Rng& rng, int trials) {
  constexpr int64_t kLen = 4096;
  std::vector<T> data(kLen, T{1});
  for (int t = 0; t < trials; ++t) {
    const LaneMask mask = RandomMask(rng);
    int shape = 0;
    const LaneArray<int64_t> idx = RandomIndices(rng, kLen, &shape);
    const std::string what = "elem=" + std::to_string(sizeof(T)) +
                             " shape=" + std::to_string(shape) +
                             " mask=" + std::to_string(mask) +
                             " trial=" + std::to_string(t);
    {
      KernelStats got;
      Warp w(0, mask, &got);
      w.Gather(data.data(), idx);
      EXPECT_EQ(StatFields(got), StatFields(RefGlobal(mask, idx, sizeof(T))))
          << "Gather " << what;
    }
    {
      KernelStats got;
      Warp w(0, mask, &got);
      w.Scatter(data.data(), idx, LaneArray<T>(T{1}));
      EXPECT_EQ(StatFields(got), StatFields(RefGlobal(mask, idx, sizeof(T))))
          << "Scatter " << what;
    }
    {
      const int64_t start = idx[0] % (kLen - kWarpSize);
      LaneArray<int64_t> contig;
      for (int l = 0; l < kWarpSize; ++l) contig[l] = start + l;
      KernelStats got;
      Warp w(0, mask, &got);
      const LaneArray<T> out = w.GatherContig(data.data(), start);
      ForEachLane(mask, [&](int l) { EXPECT_EQ(out[l], data[start + l]); });
      EXPECT_EQ(StatFields(got), StatFields(RefGlobal(mask, contig, sizeof(T))))
          << "GatherContig " << what;
    }
    {
      KernelStats got;
      Warp w(0, mask, &got);
      w.AtomicAddGlobal(data.data(), idx, LaneArray<T>(T{0}));
      EXPECT_EQ(StatFields(got), StatFields(RefAtomic(mask, idx)))
          << "AtomicAddGlobal " << what;
    }
    {
      KernelStats got;
      Warp w(0, mask, &got);
      w.AtomicCasGlobal(data.data(), idx, LaneArray<T>(T{7}),
                        LaneArray<T>(T{7}));
      EXPECT_EQ(StatFields(got), StatFields(RefAtomic(mask, idx)))
          << "AtomicCasGlobal " << what;
    }
  }
}

TEST(ChargePropertyTest, GlobalAndAtomicChargesMatchSortReference) {
  Rng rng(20261017);
  CheckGlobalCharges<uint32_t>(rng, 3000);
  CheckGlobalCharges<uint64_t>(rng, 3000);
}

template <typename T>
void CheckSharedCharges(Rng& rng, int trials) {
  constexpr int64_t kLen = 1024;
  for (int t = 0; t < trials; ++t) {
    // A leading pad allocation moves the array's byte offset (hence banks).
    SharedMemory smem(64 * 1024);
    smem.Alloc<uint8_t>(rng.Bounded(200));
    SharedSpan<T> arr = smem.Alloc<T>(kLen);
    const LaneMask mask = RandomMask(rng);
    int shape = 0;
    LaneArray<int64_t> idx = RandomIndices(rng, kLen, &shape);
    if (rng.Bounded(4) == 0) {  // strided: 2-, 4-, ... way conflicts
      const int64_t stride = int64_t{1} << rng.Bounded(5);
      for (int l = 0; l < kWarpSize; ++l) idx[l] = (l * stride) % kLen;
    }
    const std::string what = "elem=" + std::to_string(sizeof(T)) +
                             " offset=" + std::to_string(arr.byte_offset) +
                             " shape=" + std::to_string(shape) +
                             " mask=" + std::to_string(mask) +
                             " trial=" + std::to_string(t);
    const KernelStats want = RefShared(mask, arr.byte_offset, idx, sizeof(T));
    {
      KernelStats got;
      Warp w(0, mask, &got);
      w.SharedLoad(arr, idx);
      EXPECT_EQ(StatFields(got), StatFields(want)) << "SharedLoad " << what;
    }
    {
      KernelStats got;
      Warp w(0, mask, &got);
      w.SharedStore(arr, idx, LaneArray<T>(T{3}));
      EXPECT_EQ(StatFields(got), StatFields(want)) << "SharedStore " << what;
    }
    if constexpr (sizeof(T) % 4 == 0) {
      const int64_t start = static_cast<int64_t>(rng.Bounded(kLen - kWarpSize));
      LaneArray<int64_t> contig;
      for (int l = 0; l < kWarpSize; ++l) contig[l] = start + l;
      const KernelStats want_contig =
          RefShared(mask, arr.byte_offset, contig, sizeof(T));
      KernelStats got;
      Warp w(0, mask, &got);
      w.SharedStoreContig(arr, start, LaneArray<T>(T{5}));
      const LaneArray<T> out = w.SharedLoadContig(arr, start);
      ForEachLane(mask, [&](int l) { EXPECT_EQ(out[l], T{5}); });
      KernelStats twice = want_contig;
      twice += want_contig;
      EXPECT_EQ(StatFields(got), StatFields(twice)) << "Shared*Contig " << what;
    }
  }
}

TEST(ChargePropertyTest, SharedChargesMatchSortReference) {
  Rng rng(7);
  CheckSharedCharges<uint32_t>(rng, 3000);
  CheckSharedCharges<float>(rng, 1000);
  CheckSharedCharges<uint64_t>(rng, 3000);
  CheckSharedCharges<uint8_t>(rng, 500);
}

TEST(ChargePropertyTest, MatchAnySyncMatchesPairwiseReference) {
  Rng rng(99);
  for (int t = 0; t < 5000; ++t) {
    const LaneMask active = RandomMask(rng);
    const LaneMask group = rng.Bounded(2) == 0 ? active : RandomMask(rng);
    const uint64_t range = 1 + rng.Bounded(40);  // 1..40 distinct values
    LaneArray<uint32_t> v;
    for (int l = 0; l < kWarpSize; ++l) {
      v[l] = static_cast<uint32_t>(rng.Bounded(range));
    }
    KernelStats got;
    Warp w(0, active, &got);
    const LaneArray<LaneMask> sub = w.MatchAnySync(v, group);
    const LaneArray<LaneMask> all = w.MatchAnySync(v);
    const LaneArray<LaneMask> want_sub = RefMatchAny(v, group);
    const LaneArray<LaneMask> want_all = RefMatchAny(v, active);
    for (int l = 0; l < kWarpSize; ++l) {
      ASSERT_EQ(sub[l], want_sub[l]) << "lane " << l << " trial " << t;
      ASSERT_EQ(all[l], want_all[l]) << "lane " << l << " trial " << t;
    }
    KernelStats want;
    RefInstr(active, &want);
    RefInstr(active, &want);
    want.intrinsic_ops = 2;
    EXPECT_EQ(StatFields(got), StatFields(want)) << "trial " << t;
  }
}

}  // namespace
}  // namespace glp::sim
