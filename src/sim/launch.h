// Kernel launch: runs a grid of blocks across a host thread pool.
//
// Blocks are independent (as on hardware); global-memory atomics go through
// std::atomic_ref so concurrent blocks are race-free. Stats are accumulated
// per worker chunk and merged, so counting never contends. Results and stats
// are deterministic because all counted quantities are order-independent.
//
// A launch may carry a BlockMemo: per-block or per-warp stats kept from an
// earlier launch of the same grid. Blocks (or warps) the caller flags clean
// are not simulated; their cached stats are added instead. That is exact
// only when the caller knows each clean one would count and write the same
// as when its entry was recorded (and restores those writes itself).

#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "sim/block.h"
#include "sim/device.h"
#include "sim/stats.h"
#include "util/thread_pool.h"

namespace glp::sim {

/// Grid geometry for one launch.
struct LaunchConfig {
  int64_t num_blocks = 1;
  int threads_per_block = 256;
};

/// \brief Per-block or per-warp stats of one launch site, kept across
/// launches.
///
/// `dirty` has one flag per entry; the caller sets it before each launch.
/// An entry is a block of the grid, or with `per_warp` a warp (entry
/// b * warps_per_block + w). A dirty entry is simulated into its own
/// `stats` slot; a clean one adds the slot recorded when it last ran. Under
/// `per_warp` every block runs, and Block::ForEachWarp skips its clean warps.
struct BlockMemo {
  bool per_warp = false;
  std::vector<KernelStats> stats;
  std::vector<uint8_t> dirty;
};

/// Executes `kernel(Block&)` for every block in the grid and returns the
/// accumulated stats (kernel_launches == 1). `pool == nullptr` runs on the
/// calling thread only. With a `memo`, only its dirty blocks or warps run
/// (see BlockMemo); the returned stats are the same sum either way, since
/// every field is a counter.
template <typename KernelFn>
KernelStats Launch(const DeviceProps& props, const LaunchConfig& cfg,
                   glp::ThreadPool* pool, KernelFn&& kernel,
                   BlockMemo* memo = nullptr) {
  GLP_CHECK_GT(cfg.threads_per_block, 0);
  GLP_CHECK_LE(cfg.threads_per_block, props.max_threads_per_block);
  const int64_t warps = (cfg.threads_per_block + kWarpSize - 1) / kWarpSize;
  if (memo != nullptr) {
    const int64_t per_block = memo->per_warp ? warps : 1;
    GLP_CHECK_EQ(memo->dirty.size(),
                 static_cast<size_t>(cfg.num_blocks * per_block));
    memo->stats.resize(memo->dirty.size());
  }

  KernelStats total;
  total.kernel_launches = 1;
  total.blocks_executed = static_cast<uint64_t>(cfg.num_blocks);
  std::mutex merge_mu;

  auto run_range = [&](int64_t lo, int64_t hi) {
    KernelStats local;
    SharedMemory shared(props.shared_mem_per_block);
    ThreadScratch scratch;
    for (int64_t b = lo; b < hi; ++b) {
      if (memo == nullptr) {
        Block blk(b, cfg.threads_per_block, &shared, &local, &scratch);
        kernel(blk);
        continue;
      }
      if (memo->per_warp) {
        const WarpMemo slice{&memo->stats[b * warps], &memo->dirty[b * warps]};
        Block blk(b, cfg.threads_per_block, &shared, &local, &scratch, slice);
        kernel(blk);
        continue;
      }
      KernelStats& entry = memo->stats[b];
      if (memo->dirty[b] != 0) {
        entry = KernelStats{};
        Block blk(b, cfg.threads_per_block, &shared, &entry, &scratch);
        kernel(blk);
      }
      local += entry;
    }
    std::lock_guard<std::mutex> lock(merge_mu);
    total += local;
  };

  if (pool == nullptr || cfg.num_blocks <= 1) {
    run_range(0, cfg.num_blocks);
  } else {
    pool->ParallelFor(0, cfg.num_blocks, run_range);
  }
  return total;
}

}  // namespace glp::sim
