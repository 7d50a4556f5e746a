// Microbenchmarks (google-benchmark) for the SIMT simulator primitives:
// intrinsics, instrumented gathers, shared-memory accesses, and the
// segmented-sort building block. These measure *simulator host throughput*
// (how fast experiments run), not simulated device time.

#include <benchmark/benchmark.h>

#include <numeric>

#include "sim/sim.h"
#include "util/rng.h"

namespace {

using namespace glp::sim;

// Arg = number of equality groups among the 32 lanes (lanes interleaved
// across groups, so no group is a contiguous run).
void BM_MatchAnySync(benchmark::State& state) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  LaneArray<uint32_t> v;
  glp::Rng rng(1);
  const uint32_t salt = static_cast<uint32_t>(rng.Next());
  for (int i = 0; i < kWarpSize; ++i) {
    v[i] = salt + static_cast<uint32_t>(i % state.range(0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.MatchAnySync(v));
  }
  state.SetItemsProcessed(state.iterations() * kWarpSize);
}
BENCHMARK(BM_MatchAnySync)->Arg(2)->Arg(8)->Arg(32);

void BM_BallotSync(benchmark::State& state) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  LaneArray<int> pred;
  for (int i = 0; i < kWarpSize; ++i) pred[i] = i & 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.BallotSync(pred));
  }
  state.SetItemsProcessed(state.iterations() * kWarpSize);
}
BENCHMARK(BM_BallotSync);

void BM_GatherContiguous(benchmark::State& state) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  std::vector<uint32_t> data(1 << 16);
  std::iota(data.begin(), data.end(), 0u);
  int64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        w.GatherContig(data.data(), (off += 32) & 0xffff & ~31));
  }
  state.SetItemsProcessed(state.iterations() * kWarpSize);
}
BENCHMARK(BM_GatherContiguous);

// 17 of 32 lanes active: the tail round of a neighbor-list scan.
void BM_GatherContigPartial(benchmark::State& state) {
  KernelStats stats;
  Warp w(0, (1u << 17) - 1u, &stats);
  std::vector<uint32_t> data(1 << 16);
  std::iota(data.begin(), data.end(), 0u);
  int64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        w.GatherContig(data.data(), (off += 37) & 0xffff & ~63));
  }
  state.SetItemsProcessed(state.iterations() * 17);
}
BENCHMARK(BM_GatherContigPartial);

// Random gather: 32 uniform indices over 64K elements (the labels[nbr]
// gather of every LP kernel).
void BM_GatherScattered(benchmark::State& state) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  std::vector<uint32_t> data(1 << 16);
  LaneArray<int64_t> idx;
  glp::Rng rng(2);
  for (int i = 0; i < kWarpSize; ++i) {
    idx[i] = static_cast<int64_t>(rng.Bounded(1 << 16));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.Gather(data.data(), idx));
  }
  state.SetItemsProcessed(state.iterations() * kWarpSize);
}
BENCHMARK(BM_GatherScattered);

// Arg = lane stride in words: 1 is conflict-free, 2 a two-way conflict on
// every bank (exact per-bank count path).
void BM_SharedLoad(benchmark::State& state) {
  KernelStats stats;
  SharedMemory smem(1 << 16);
  auto arr = smem.Alloc<uint32_t>(2048);
  Warp w(0, kFullMask, &stats);
  LaneArray<int> idx;
  for (int i = 0; i < kWarpSize; ++i) {
    idx[i] = i * static_cast<int>(state.range(0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.SharedLoad(arr, idx));
  }
  state.SetItemsProcessed(state.iterations() * kWarpSize);
}
BENCHMARK(BM_SharedLoad)->Arg(1)->Arg(2);

// Stride-1 load through the closed-form charge (hash-table scans).
void BM_SharedLoadContig(benchmark::State& state) {
  KernelStats stats;
  SharedMemory smem(1 << 16);
  auto arr = smem.Alloc<uint32_t>(2048);
  Warp w(0, kFullMask, &stats);
  int64_t base = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.SharedLoadContig(arr, (base += 32) & 1023));
  }
  state.SetItemsProcessed(state.iterations() * kWarpSize);
}
BENCHMARK(BM_SharedLoadContig);

void BM_SharedAtomicAdd(benchmark::State& state) {
  KernelStats stats;
  SharedMemory smem(1 << 16);
  auto arr = smem.Alloc<float>(1024);
  Warp w(0, kFullMask, &stats);
  LaneArray<int> idx;
  glp::Rng rng(3);
  for (int i = 0; i < kWarpSize; ++i) {
    idx[i] = static_cast<int>(rng.Bounded(state.range(0)));
  }
  LaneArray<float> val(1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.SharedAtomicAdd(arr, idx, val));
  }
  state.SetItemsProcessed(state.iterations() * kWarpSize);
}
BENCHMARK(BM_SharedAtomicAdd)->Arg(4)->Arg(1024);

void BM_DeviceSegmentedSort(benchmark::State& state) {
  const int64_t segments = 256;
  const int64_t seg_len = state.range(0);
  glp::Rng rng(4);
  std::vector<uint32_t> keys(segments * seg_len);
  std::vector<int64_t> offsets(segments + 1);
  for (int64_t s = 0; s <= segments; ++s) offsets[s] = s * seg_len;
  for (auto _ : state) {
    state.PauseTiming();
    for (auto& k : keys) k = static_cast<uint32_t>(rng.Next());
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        DeviceSegmentedSort(DeviceProps::TitanV(), keys, offsets, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_DeviceSegmentedSort)->Arg(32)->Arg(512);

void BM_KernelLaunchOverhead(benchmark::State& state) {
  glp::ThreadPool pool(4);
  LaunchConfig cfg{static_cast<int64_t>(state.range(0)), 256};
  for (auto _ : state) {
    auto stats = Launch(DeviceProps::TitanV(), cfg, &pool,
                        [](Block& blk) { (void)blk; });
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KernelLaunchOverhead)->Arg(64)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
