// Warp-per-vertex LabelPropagation kernel with a warp-private shared-memory
// hash table — GLP's mid-degree path (32 <= degree <= 128), where the whole
// neighborhood's label set fits comfortably in shared memory.
//
// Per vertex: clear the warp's HT slice, lockstep-insert all neighbor labels
// (coalesced neighbor-id reads, scattered label gathers — the irreducible
// traffic), then scan the HT evaluating LabelScore and elect the argmax.
//
// The simulation charges the full clear and the full scan, but does the
// lane work only for the slots the vertex claimed: a bitmap records them as
// the inserts claim them, the scan reads and empties just those, and a
// chunk of 32 slots none of them falls in charges only its loads, as on the
// device. The tables live in launch-owned scratch that every warp leaves
// empty, so no block zero-fills shared memory on the host.

#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "glp/kernels/common.h"
#include "sim/block.h"
#include "sim/launch.h"
#include "util/logging.h"

namespace glp::lp {

/// ThreadScratch slots of the warp-per-vertex kernel: the per-warp hash
/// tables and their claimed-slot bitmaps, empty between uses.
enum WarpPerVertexScratch : int {
  kWpvKeys,
  kWpvCounts,
  kWpvClaimed,
};

/// Runs one LabelPropagation pass over `vertices`, one warp per vertex.
/// `ht_capacity` is the per-warp table size (slots); callers size it at
/// twice the largest degree in the bin. `memo` is passed to sim::Launch; a
/// per-warp memo has one entry per vertex (padded to whole blocks).
template <typename Variant>
sim::KernelStats RunWarpPerVertexSmemKernel(
    const sim::DeviceProps& props, glp::ThreadPool* pool,
    const DeviceView<Variant>& view,
    const std::vector<graph::VertexId>& vertices, int ht_capacity,
    int threads_per_block, sim::BlockMemo* memo = nullptr) {
  // A partial warp would map to the next block's first vertex.
  GLP_CHECK_EQ(threads_per_block % sim::kWarpSize, 0);
  const int warps_per_block = threads_per_block / sim::kWarpSize;
  const int64_t num_vertices = static_cast<int64_t>(vertices.size());
  sim::LaunchConfig cfg;
  cfg.threads_per_block = threads_per_block;
  cfg.num_blocks = (num_vertices + warps_per_block - 1) / warps_per_block;
  if (cfg.num_blocks == 0) return sim::KernelStats{};
  const graph::VertexId* vlist = vertices.data();
  const size_t cap = static_cast<size_t>(ht_capacity);
  const size_t table = static_cast<size_t>(warps_per_block) * cap;
  const size_t words = (cap + 63) / 64;
  // The block's tables: keys, then counts, one slice per warp.
  GLP_CHECK_LE(table * (sizeof(graph::Label) + sizeof(float)),
               static_cast<size_t>(props.shared_mem_per_block))
      << "warp hash tables exceed shared memory";

  // Charges of clearing a slice and of loading it back for the scan: fixed
  // by the capacity (stride-1 bank conflicts do not depend on the offset).
  auto chunk_mask = [&](size_t base) {
    const size_t lanes = std::min<size_t>(sim::kWarpSize, cap - base);
    return lanes >= sim::kWarpSize ? sim::kFullMask : ((1u << lanes) - 1u);
  };
  sim::KernelStats clear_and_load;
  {
    sim::Warp w(0, sim::kFullMask, &clear_and_load);
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t base = 0; base < cap; base += sim::kWarpSize) {
        w.SetActive(chunk_mask(base));
        w.ChargeSharedContig<graph::Label>();
        w.ChargeSharedContig<float>();
      }
    }
  }

  return sim::Launch(props, cfg, pool, [&](sim::Block& blk) {
    const std::span<graph::Label> keys =
        blk.scratch().Kept(kWpvKeys, table, graph::kInvalidLabel);
    const std::span<float> counts =
        blk.scratch().Kept(kWpvCounts, table, 0.0f);
    const std::span<uint64_t> claimed_all = blk.scratch().Kept(
        kWpvClaimed, static_cast<size_t>(warps_per_block) * words,
        uint64_t{0});

    blk.ForEachWarp([&](sim::Warp& w) {
      const int64_t vi = blk.block_idx() * warps_per_block + w.warp_id();
      if (vi >= num_vertices) return;
      const graph::VertexId v = vlist[vi];
      const graph::EdgeId begin = view.offsets[v];
      const int64_t degree = view.offsets[v + 1] - begin;

      if (degree == 0) {
        sim::LaneArray<int64_t> idx(0);
        sim::LaneArray<graph::Label> val(graph::kInvalidLabel);
        idx[0] = v;
        w.SetActive(sim::LaneBit(0));
        w.Scatter(view.next, idx, val);
        w.SetActive(sim::kFullMask);
        return;
      }

      const size_t slice = static_cast<size_t>(w.warp_id()) * cap;
      sim::SharedSpan<graph::Label> ht_keys{keys.data() + slice, cap,
                                            slice * sizeof(graph::Label)};
      sim::SharedSpan<float> ht_counts{
          counts.data() + slice, cap,
          table * sizeof(graph::Label) + slice * sizeof(float)};
      uint64_t* claimed =
          claimed_all.data() + static_cast<size_t>(w.warp_id()) * words;

      // Clear the warp's HT slice (it is empty already) and, below, load it
      // back for the scan.
      *w.stats() += clear_and_load;

      // Insert all neighbor labels.
      for (int64_t base = 0; base < degree; base += sim::kWarpSize) {
        const int lanes =
            static_cast<int>(std::min<int64_t>(sim::kWarpSize, degree - base));
        w.SetActive(lanes >= sim::kWarpSize ? sim::kFullMask
                                            : ((1u << lanes) - 1u));
        const sim::LaneArray<graph::VertexId> nbr =
            w.GatherContig(view.neighbors, begin + base);
        sim::LaneArray<int64_t> lidx;
        sim::ForEachLane(w.active(), [&](int l) { lidx[l] = nbr[l]; });
        const sim::LaneArray<graph::Label> lbl = w.Gather(view.labels, lidx);
        sim::LaneArray<float> wgt;
        sim::ForEachLane(w.active(), [&](int l) {
          wgt[l] = static_cast<float>(view.variant->NeighborWeight(v, nbr[l]));
        });
        w.CountInstr();
        ApplyEdgeWeightsContig(w, view, begin + base, &wgt);
        sim::LaneArray<float> post;
        SharedHtInsert(w, ht_keys, ht_counts, ht_capacity,
                       /*max_probes=*/ht_capacity, lbl, wgt, &post, claimed);
      }

      // Scan the HT for the best-scoring label, emptying the claimed slots.
      Candidate best;
      for (size_t base = 0; base < cap; base += sim::kWarpSize) {
        uint64_t& word = claimed[base / 64];
        const sim::LaneMask valid =
            static_cast<sim::LaneMask>(word >> (base % 64)) & chunk_mask(base);
        if (valid == 0) continue;
        sim::LaneArray<graph::Label> k;
        sim::LaneArray<float> c;
        sim::ForEachLane(valid, [&](int l) {
          k[l] = ht_keys.data[base + l];
          c[l] = ht_counts.data[base + l];
        });
        // A separate loop: fused with the loads, g++ 12 -O3 turned the
        // full-mask stores into fills placed ahead of them.
        sim::ForEachLane(valid, [&](int l) {
          ht_keys.data[base + l] = graph::kInvalidLabel;
          ht_counts.data[base + l] = 0.0f;
        });
        word &= ~(uint64_t{valid} << (base % 64));
        w.SetActive(valid);
        const sim::LaneArray<double> aux = GatherAux(w, view, k);
        sim::LaneArray<double> score;
        sim::ForEachLane(valid, [&](int l) {
          score[l] = view.variant->Score(v, k[l], c[l], aux[l]);
        });
        w.CountInstr();
        best.Merge(WarpArgMax(w, valid, score, k));
      }

      // Leader lane commits the choice.
      sim::LaneArray<int64_t> idx(0);
      sim::LaneArray<graph::Label> val(best.label);
      idx[0] = v;
      w.SetActive(sim::LaneBit(0));
      w.Scatter(view.next, idx, val);
      w.SetActive(sim::kFullMask);
    });
  }, memo);
}

}  // namespace glp::lp
