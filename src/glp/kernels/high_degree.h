// Block-per-vertex LabelPropagation kernel for high-degree vertices —
// Procedure SharedMemBigNodes of the paper (§4.1).
//
// One thread block scans the (large) neighbor list once. Labels are counted
// in a bounded shared-memory hash table; labels that fail to claim a slot
// spill into a shared-memory Count-Min Sketch. Because LabelScore is
// monotone in frequency and CMS only overestimates, the block can commit the
// HT winner whenever s(HT) >= s(CMS); otherwise it falls back to an exact
// recount through a global-memory hash table (rare — Theorem 1 bounds the
// probability by m*2^-d + e^-h).

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "glp/kernels/common.h"
#include "glp/run.h"
#include "sim/block.h"
#include "sim/launch.h"
#include "util/hash.h"

namespace glp::lp {

/// Per-row CMS seeds are fixed so results are reproducible.
inline constexpr uint64_t kCmsSeedBase = 0xc3a5c85c97cb3127ULL;

/// ThreadScratch slots of the high-degree kernel's fallback global hash
/// table.
enum HighDegreeScratch : int {
  kGhtKeys,    ///< keys
  kGhtCounts,  ///< counts
};

/// Runs one LabelPropagation pass over `vertices`, one block per vertex,
/// using the CMS+HT shared-memory strategy. `fell_back`, if non-null, holds
/// one flag per block: each block that runs sets its flag to whether its
/// vertex needed the global-memory path (summed, the quantity Theorem 1
/// bounds). `memo` is passed to sim::Launch; blocks it replays leave their
/// flag as it was.
///
/// Each thread's candidates are merged straight into one block-wide best
/// per phase (the order-free argmax of the repository-wide tie-break), and
/// each BlockReduce over them is charged without the per-thread arrays.
template <typename Variant>
sim::KernelStats RunHighDegreeBlockKernel(
    const sim::DeviceProps& props, glp::ThreadPool* pool,
    const DeviceView<Variant>& view,
    const std::vector<graph::VertexId>& vertices, const GlpOptions& opts,
    uint8_t* fell_back = nullptr, sim::BlockMemo* memo = nullptr) {
  // The strided scans hand every warp whole 32-lane chunks.
  GLP_CHECK_EQ(opts.threads_per_block % sim::kWarpSize, 0);
  const int64_t num_vertices = static_cast<int64_t>(vertices.size());
  if (num_vertices == 0) return sim::KernelStats{};
  sim::LaunchConfig cfg;
  cfg.threads_per_block = opts.threads_per_block;
  cfg.num_blocks = num_vertices;
  const graph::VertexId* vlist = vertices.data();
  const int h = opts.ht_capacity;
  const int d = opts.cms_depth;
  const int cw = opts.cms_width;
  // Probe budget before an insert is declared unsuccessful and routed to the
  // CMS: a fraction of the table keeps worst-case probing bounded.
  const int max_probes = std::max(8, h / 16);
  // Charges of the cooperative zero-fill of the HT keys, whichever warp
  // clears which chunk: one stride-1 store per 32 slots.
  sim::KernelStats clear_keys;
  {
    sim::Warp w(0, sim::kFullMask, &clear_keys);
    for (int base = 0; base < h; base += sim::kWarpSize) {
      const int lanes = std::min(sim::kWarpSize, h - base);
      w.SetActive(lanes >= sim::kWarpSize ? sim::kFullMask
                                          : ((1u << lanes) - 1u));
      w.ChargeSharedContig<graph::Label>();
    }
  }

  return sim::Launch(props, cfg, pool, [=](sim::Block& blk) {
    const graph::VertexId v = vlist[blk.block_idx()];
    const graph::EdgeId begin = view.offsets[v];
    const int64_t degree = view.offsets[v + 1] - begin;
    const int threads = blk.num_threads();

    auto ht_keys = blk.shared().Alloc<graph::Label>(h);
    auto ht_counts = blk.shared().Alloc<float>(h);
    // The CMS is allocated right after the HT (so at the same offset) when
    // the first label spills; most blocks never touch it.
    sim::SharedSpan<float> cms;

    // Clear the HT keys (the warps' cooperative stores, charged as such;
    // counts and the CMS arrive zeroed from Alloc, as a real kernel's
    // memset would leave them).
    std::fill_n(ht_keys.data, h, graph::kInvalidLabel);
    *blk.stats() += clear_keys;
    blk.Sync();

    // --- Phase 1: single scan of the neighbor list (Procedure 1, lines
    // 1-10), threads strided across the list. ---
    Candidate s_ht, s_cm;

    blk.ForEachWarp([&](sim::Warp& w) {
      for (int64_t base = static_cast<int64_t>(w.warp_id()) * sim::kWarpSize;
           base < degree; base += threads) {
        const int lanes =
            static_cast<int>(std::min<int64_t>(sim::kWarpSize, degree - base));
        const sim::LaneMask mask =
            lanes >= sim::kWarpSize ? sim::kFullMask : ((1u << lanes) - 1u);
        w.SetActive(mask);

        const sim::LaneArray<graph::VertexId> nbr =
            w.GatherContig(view.neighbors, begin + base);
        sim::LaneArray<int64_t> lidx;
        sim::ForEachLane(mask, [&](int l) { lidx[l] = nbr[l]; });
        const sim::LaneArray<graph::Label> lbl = w.Gather(view.labels, lidx);
        sim::LaneArray<float> wgt;
        sim::ForEachLane(mask, [&](int l) {
          wgt[l] = static_cast<float>(view.variant->NeighborWeight(v, nbr[l]));
        });
        w.CountInstr();
        ApplyEdgeWeightsContig(w, view, begin + base, &wgt);

        // HT insert (atomicAdd on success).
        sim::LaneArray<float> post;
        const sim::LaneMask ok = SharedHtInsert(
            w, ht_keys, ht_counts, h, max_probes, lbl, wgt, &post);

        // Successful lanes score through the HT count.
        if (ok != 0) {
          w.SetActive(ok);
          const sim::LaneArray<double> aux = GatherAux(w, view, lbl);
          sim::ForEachLane(ok, [&](int l) {
            const double score =
                view.variant->Score(v, lbl[l], post[l], aux[l]);
            s_ht.Merge(Candidate{score, lbl[l]});
          });
          w.CountInstr();
        }

        // Unsuccessful lanes spill to the CMS.
        const sim::LaneMask spill = mask & ~ok;
        if (spill != 0) {
          if (cms.data == nullptr) {
            cms = blk.shared().Alloc<float>(static_cast<size_t>(d) * cw);
          }
          sim::LaneArray<float> est(std::numeric_limits<float>::max());
          for (int r = 0; r < d; ++r) {
            sim::LaneArray<int> bucket;
            sim::ForEachLane(spill, [&](int l) {
              bucket[l] = r * cw +
                          static_cast<int>(glp::HashToBucket(
                              glp::HashSeeded(lbl[l], kCmsSeedBase + r),
                              static_cast<uint32_t>(cw)));
            });
            w.SetActive(spill);
            const sim::LaneArray<float> after =
                w.SharedAtomicAdd(cms, bucket, wgt);
            sim::ForEachLane(spill, [&](int l) {
              est[l] = std::min(est[l], after[l]);
            });
          }
          w.SetActive(spill);
          const sim::LaneArray<double> aux = GatherAux(w, view, lbl);
          sim::ForEachLane(spill, [&](int l) {
            const double score = view.variant->Score(v, lbl[l], est[l], aux[l]);
            s_cm.Merge(Candidate{score, lbl[l]});
          });
          w.CountInstr();
        }
        w.SetActive(sim::kFullMask);
      }
    });

    // --- Phase 2: block reductions (lines 11-12). ---
    blk.ChargeReduce();
    blk.ChargeReduce();

    Candidate winner = s_ht;
    // The paper commits the HT winner when s(HT) >= s(CMS); with the
    // repository-wide smaller-label tie-break the equality case must go
    // through the exact path too (the true winner could be an equal-scoring
    // spilled label with a smaller id), so commit only on strict dominance.
    const bool fallback = degree > 0 && s_ht.score <= s_cm.score;
    if (fell_back != nullptr) fell_back[blk.block_idx()] = fallback ? 1 : 0;
    if (fallback) {
      // --- Fallback: exact recount via the global hash table (lines
      // 16-24). Rare by Theorem 1. ---
      int ghtc = 64;
      while (ghtc < 2 * degree) ghtc <<= 1;
      const std::span<graph::Label> ght_keys =
          blk.scratch().Get(kGhtKeys, ghtc, graph::kInvalidLabel);
      const std::span<float> ght_counts =
          blk.scratch().Get(kGhtCounts, ghtc, 0.0f);
      // Charge the GHT memset a real kernel would issue.
      blk.stats()->global_transactions +=
          (static_cast<uint64_t>(ghtc) * 8 + 31) / 32;
      blk.stats()->global_bytes_requested += static_cast<uint64_t>(ghtc) * 8;

      Candidate s_gt;
      blk.ForEachWarp([&](sim::Warp& w) {
        for (int64_t base =
                 static_cast<int64_t>(w.warp_id()) * sim::kWarpSize;
             base < degree; base += threads) {
          const int lanes = static_cast<int>(
              std::min<int64_t>(sim::kWarpSize, degree - base));
          const sim::LaneMask mask =
              lanes >= sim::kWarpSize ? sim::kFullMask : ((1u << lanes) - 1u);
          w.SetActive(mask);
          const sim::LaneArray<graph::VertexId> nbr =
              w.GatherContig(view.neighbors, begin + base);
          sim::LaneArray<int64_t> lidx;
          sim::ForEachLane(mask, [&](int l) { lidx[l] = nbr[l]; });
          const sim::LaneArray<graph::Label> lbl = w.Gather(view.labels, lidx);
          sim::LaneArray<float> wgt;
          sim::ForEachLane(mask, [&](int l) {
            wgt[l] =
                static_cast<float>(view.variant->NeighborWeight(v, nbr[l]));
          });
          w.CountInstr();
          ApplyEdgeWeightsContig(w, view, begin + base, &wgt);

          // Labels resident in the HT are already exact — skip them (their
          // scores are merged through s_ht below).
          sim::LaneArray<float> ht_count;
          const sim::LaneMask in_ht = SharedHtLookup(
              w, ht_keys, ht_counts, h, max_probes, lbl, &ht_count);
          const sim::LaneMask miss = mask & ~in_ht;
          if (miss != 0) {
            w.SetActive(miss);
            sim::LaneArray<float> post;
            GlobalHtInsert(w, ght_keys.data(), ght_counts.data(), ghtc, lbl,
                           wgt, &post);
            const sim::LaneArray<double> aux = GatherAux(w, view, lbl);
            sim::ForEachLane(miss, [&](int l) {
              const double score =
                  view.variant->Score(v, lbl[l], post[l], aux[l]);
              s_gt.Merge(Candidate{score, lbl[l]});
            });
            w.CountInstr();
          }
          w.SetActive(sim::kFullMask);
        }
      });
      blk.ChargeReduce();
      winner.Merge(s_gt);
    }

    if (degree == 0) winner.label = graph::kInvalidLabel;

    // Leader thread commits Lnext[v].
    sim::Warp leader(0, sim::LaneBit(0), blk.stats());
    sim::LaneArray<int64_t> idx(0);
    sim::LaneArray<graph::Label> val(winner.label);
    idx[0] = v;
    leader.Scatter(view.next, idx, val);
  }, memo);
}

}  // namespace glp::lp
