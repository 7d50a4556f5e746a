// The LabelPropagation kernels as they simulated every operation lane by
// lane: the low-degree kernel recomputing its label-independent round
// prefix on every pass, the warp-per-vertex kernel clearing and scanning its
// whole table, and the high-degree kernel keeping per-thread candidates and
// a CMS in every block. Test-only references: kernels_test checks that the
// production kernels count, write and fall back exactly as these do.

#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "glp/kernels/common.h"
#include "glp/kernels/high_degree.h"
#include "glp/kernels/low_degree.h"
#include "glp/run.h"
#include "sim/block.h"
#include "sim/launch.h"
#include "util/hash.h"

namespace glp::lp::ref {

/// Block-wide argmax over one candidate per thread, charged as a tree
/// reduction (BlockReduce in the paper's Procedure 1).
inline Candidate BlockArgMax(sim::Block& blk,
                             std::span<const Candidate> per_thread) {
  blk.stats()->block_reduces += 1;
  blk.stats()->block_syncs += 1;
  Candidate best;
  for (const Candidate& c : per_thread) best.Merge(c);
  return best;
}

/// Carves a warp-private sub-span out of a block-level shared array.
template <typename T>
sim::SharedSpan<T> SubSpan(const sim::SharedSpan<T>& s, size_t offset,
                           size_t len) {
  return sim::SharedSpan<T>{s.data + offset, len,
                            s.byte_offset + offset * sizeof(T)};
}

/// Runs one LabelPropagation pass over the packed low-degree rounds, one
/// warp per round.
template <typename Variant>
sim::KernelStats LowDegreeWarpKernel(const sim::DeviceProps& props,
                                     glp::ThreadPool* pool,
                                     const DeviceView<Variant>& view,
                                     const LowDegreePlan& plan,
                                     int threads_per_block) {
  const int warps_per_block = threads_per_block / sim::kWarpSize;
  const int64_t rounds =
      static_cast<int64_t>(plan.slot_vertex.size()) / sim::kWarpSize;
  if (rounds == 0) return sim::KernelStats{};
  sim::LaunchConfig cfg;
  cfg.threads_per_block = threads_per_block;
  cfg.num_blocks = (rounds + warps_per_block - 1) / warps_per_block;
  const graph::VertexId* slot_vertex = plan.slot_vertex.data();

  return sim::Launch(props, cfg, pool, [=](sim::Block& blk) {
    blk.ForEachWarp([&](sim::Warp& w) {
      const int64_t round =
          blk.block_idx() * warps_per_block + w.warp_id();
      if (round >= rounds) return;
      const int64_t base = round * sim::kWarpSize;

      // Load this round's slot assignment (fully coalesced).
      const sim::LaneArray<graph::VertexId> vid =
          w.GatherContig(slot_vertex, base);

      // Step 1: __ballot_sync over slot validity.
      sim::LaneArray<int> valid_pred;
      sim::ForEachLane(sim::kFullMask, [&](int l) {
        valid_pred[l] = vid[l] != graph::kInvalidVertex ? 1 : 0;
      });
      const sim::LaneMask active = w.BallotSync(valid_pred);
      if (active == 0) return;
      w.SetActive(active);

      // Step 2 (early): group lanes by vertex — also yields each lane's rank
      // within its vertex, from which the edge index is derived without a
      // materialized slot_edge array.
      const sim::LaneArray<sim::LaneMask> vmask = w.MatchAnySync(vid, active);

      // Each vertex's lanes cover its full neighbor list in lane order:
      // edge = offsets[v] + rank(lane within vmask).
      sim::LaneArray<int64_t> voff_idx;
      sim::ForEachLane(active, [&](int l) { voff_idx[l] = vid[l]; });
      const sim::LaneArray<graph::EdgeId> voff =
          w.Gather(view.offsets, voff_idx);
      sim::LaneArray<graph::EdgeId> eidx;
      sim::ForEachLane(active, [&](int l) {
        const int rank = sim::Popc(vmask[l] & (sim::LaneBit(l) - 1u));
        eidx[l] = voff[l] + rank;
      });
      w.stats()->intrinsic_ops += 1;  // popc for the rank
      w.CountInstr();

      // Load the assigned neighbor and its label.
      const sim::LaneArray<graph::VertexId> nbr =
          w.Gather(view.neighbors, eidx);
      sim::LaneArray<int64_t> lidx;
      sim::ForEachLane(active, [&](int l) { lidx[l] = nbr[l]; });
      const sim::LaneArray<graph::Label> lbl = w.Gather(view.labels, lidx);

      // Step 3: sub-group by label within each vertex group.
      const sim::LaneArray<sim::LaneMask> lmask_raw =
          w.MatchAnySync(lbl, active);
      sim::LaneArray<sim::LaneMask> lmask;
      sim::ForEachLane(active,
                       [&](int l) { lmask[l] = lmask_raw[l] & vmask[l]; });
      w.CountInstr();

      // Step 4: frequency = __popc(lmask); one label leader per group.
      w.stats()->intrinsic_ops += 1;  // popc
      sim::LaneMask label_leaders = 0;
      sim::ForEachLane(active, [&](int l) {
        if (sim::FirstLane(lmask[l]) == l) label_leaders |= sim::LaneBit(l);
      });

      // Label leaders score their group's frequency.
      sim::LaneArray<double> score(
          -std::numeric_limits<double>::infinity());
      if (label_leaders != 0) {
        w.SetActive(label_leaders);
        const sim::LaneArray<double> aux = GatherAux(w, view, lbl);
        sim::ForEachLane(label_leaders, [&](int l) {
          const double freq = sim::Popc(lmask[l]);
          score[l] = view.variant->Score(vid[l], lbl[l], freq, aux[l]);
        });
        w.CountInstr();
      }

      // Per-vertex argmax across that vertex's label leaders (butterfly
      // shuffles over vmask groups).
      w.stats()->intrinsic_ops += 5;
      w.SetActive(active);
      w.CountInstr(5);
      sim::LaneMask vertex_leaders = 0;
      sim::LaneArray<graph::Label> winner(graph::kInvalidLabel);
      sim::ForEachLane(active, [&](int l) {
        if (sim::FirstLane(vmask[l]) != l) return;
        vertex_leaders |= sim::LaneBit(l);
        Candidate best;
        sim::ForEachLane(vmask[l] & label_leaders, [&](int peer) {
          best.Merge(Candidate{score[peer], lbl[peer]});
        });
        winner[l] = best.label;
      });

      // Vertex leaders scatter Lnext (one store per vertex in the round).
      w.SetActive(vertex_leaders);
      sim::LaneArray<int64_t> out_idx;
      sim::ForEachLane(vertex_leaders,
                       [&](int l) { out_idx[l] = vid[l]; });
      w.Scatter(view.next, out_idx, winner);
      w.SetActive(sim::kFullMask);
    });
  });
}

/// Runs one LabelPropagation pass over `vertices`, one warp per vertex.
/// `ht_capacity` is the per-warp table size (slots); callers size it at
/// twice the largest degree in the bin.
template <typename Variant>
sim::KernelStats WarpPerVertexSmemKernel(
    const sim::DeviceProps& props, glp::ThreadPool* pool,
    const DeviceView<Variant>& view,
    const std::vector<graph::VertexId>& vertices, int ht_capacity,
    int threads_per_block) {
  const int warps_per_block = threads_per_block / sim::kWarpSize;
  const int64_t num_vertices = static_cast<int64_t>(vertices.size());
  sim::LaunchConfig cfg;
  cfg.threads_per_block = threads_per_block;
  cfg.num_blocks = (num_vertices + warps_per_block - 1) / warps_per_block;
  if (cfg.num_blocks == 0) return sim::KernelStats{};
  const graph::VertexId* vlist = vertices.data();

  return sim::Launch(props, cfg, pool, [&, vlist](sim::Block& blk) {
    auto keys = blk.shared().Alloc<graph::Label>(
        static_cast<size_t>(warps_per_block) * ht_capacity);
    auto counts = blk.shared().Alloc<float>(
        static_cast<size_t>(warps_per_block) * ht_capacity);

    blk.ForEachWarp([&](sim::Warp& w) {
      const int64_t vi =
          blk.block_idx() * warps_per_block + w.warp_id();
      if (vi >= num_vertices) return;
      const graph::VertexId v = vlist[vi];
      const graph::EdgeId begin = view.offsets[v];
      const int64_t degree = view.offsets[v + 1] - begin;

      auto ht_keys = SubSpan(keys, static_cast<size_t>(w.warp_id()) * ht_capacity,
                             ht_capacity);
      auto ht_counts = SubSpan(counts,
                               static_cast<size_t>(w.warp_id()) * ht_capacity,
                               ht_capacity);

      if (degree == 0) {
        sim::LaneArray<int64_t> idx(0);
        sim::LaneArray<graph::Label> val(graph::kInvalidLabel);
        idx[0] = v;
        w.SetActive(sim::LaneBit(0));
        w.Scatter(view.next, idx, val);
        w.SetActive(sim::kFullMask);
        return;
      }

      // Clear the warp's HT slice.
      for (int base = 0; base < ht_capacity; base += sim::kWarpSize) {
        const int lanes = std::min(sim::kWarpSize, ht_capacity - base);
        w.SetActive(lanes >= sim::kWarpSize ? sim::kFullMask
                                            : ((1u << lanes) - 1u));
        sim::LaneArray<graph::Label> inv(graph::kInvalidLabel);
        sim::LaneArray<float> zero(0.0f);
        w.SharedStoreContig(ht_keys, base, inv);
        w.SharedStoreContig(ht_counts, base, zero);
      }

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
                       /*max_probes=*/ht_capacity, lbl, wgt, &post);
      }

      // Scan the HT for the best-scoring label.
      Candidate best;
      for (int base = 0; base < ht_capacity; base += sim::kWarpSize) {
        const int lanes = std::min(sim::kWarpSize, ht_capacity - base);
        w.SetActive(lanes >= sim::kWarpSize ? sim::kFullMask
                                            : ((1u << lanes) - 1u));
        const sim::LaneArray<graph::Label> k =
            w.SharedLoadContig(ht_keys, base);
        const sim::LaneArray<float> c = w.SharedLoadContig(ht_counts, base);
        sim::LaneMask valid = 0;
        sim::ForEachLane(w.active(), [&](int l) {
          if (k[l] != graph::kInvalidLabel) valid |= sim::LaneBit(l);
        });
        if (valid == 0) continue;
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
  });
}

/// ThreadScratch slots of the high-degree kernel's per-block host state.
enum HighDegreeScratch : int {
  kHtCandidates,    ///< per-thread best HT-counted candidate
  kCmsCandidates,   ///< per-thread best CMS-estimated candidate
  kGhtCandidates,   ///< per-thread best exact-recount candidate
  kGhtKeys,         ///< fallback global hash table: keys
  kGhtCounts,       ///< fallback global hash table: counts
};

/// Runs one LabelPropagation pass over `vertices`, one block per vertex,
/// using the CMS+HT shared-memory strategy. `fell_back`, if non-null, holds
/// one flag per block: each block that runs sets its flag to whether its
/// vertex needed the global-memory path (summed, the quantity Theorem 1
/// bounds).
template <typename Variant>
sim::KernelStats HighDegreeBlockKernel(
    const sim::DeviceProps& props, glp::ThreadPool* pool,
    const DeviceView<Variant>& view,
    const std::vector<graph::VertexId>& vertices, const GlpOptions& opts,
    uint8_t* fell_back = nullptr) {
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

  return sim::Launch(props, cfg, pool, [=](sim::Block& blk) {
    const graph::VertexId v = vlist[blk.block_idx()];
    const graph::EdgeId begin = view.offsets[v];
    const int64_t degree = view.offsets[v + 1] - begin;
    const int threads = blk.num_threads();

    auto ht_keys = blk.shared().Alloc<graph::Label>(h);
    auto ht_counts = blk.shared().Alloc<float>(h);
    auto cms = blk.shared().Alloc<float>(static_cast<size_t>(d) * cw);

    // Zero-fill HT keys cooperatively (counts/CMS arrive zeroed from Alloc,
    // but a real kernel would memset; charge the stores).
    blk.ForEachWarp([&](sim::Warp& w) {
      for (int base = w.warp_id() * sim::kWarpSize; base < h;
           base += threads) {
        const int lanes = std::min(sim::kWarpSize, h - base);
        w.SetActive(lanes >= sim::kWarpSize ? sim::kFullMask
                                            : ((1u << lanes) - 1u));
        sim::LaneArray<graph::Label> inv(graph::kInvalidLabel);
        w.SharedStoreContig(ht_keys, base, inv);
      }
    });
    blk.Sync();

    // --- Phase 1: single scan of the neighbor list (Procedure 1, lines
    // 1-10), threads strided across the list. ---
    const std::span<Candidate> ht_cand =
        blk.scratch().Get(kHtCandidates, threads, Candidate{});
    const std::span<Candidate> cm_cand =
        blk.scratch().Get(kCmsCandidates, threads, Candidate{});

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
            const int tid = w.warp_id() * sim::kWarpSize + l;
            const double score =
                view.variant->Score(v, lbl[l], post[l], aux[l]);
            ht_cand[tid].Merge(Candidate{score, lbl[l]});
          });
          w.CountInstr();
        }

        // Unsuccessful lanes spill to the CMS.
        const sim::LaneMask spill = mask & ~ok;
        if (spill != 0) {
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
            const int tid = w.warp_id() * sim::kWarpSize + l;
            const double score = view.variant->Score(v, lbl[l], est[l], aux[l]);
            cm_cand[tid].Merge(Candidate{score, lbl[l]});
          });
          w.CountInstr();
        }
        w.SetActive(sim::kFullMask);
      }
    });

    // --- Phase 2: block reductions (lines 11-12). ---
    const Candidate s_ht = BlockArgMax(blk, ht_cand);
    const Candidate s_cm = BlockArgMax(blk, cm_cand);

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

      const std::span<Candidate> gt_cand =
          blk.scratch().Get(kGhtCandidates, threads, Candidate{});
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
              const int tid = w.warp_id() * sim::kWarpSize + l;
              const double score =
                  view.variant->Score(v, lbl[l], post[l], aux[l]);
              gt_cand[tid].Merge(Candidate{score, lbl[l]});
            });
            w.CountInstr();
          }
          w.SetActive(sim::kFullMask);
        }
      });
      const Candidate s_gt = BlockArgMax(blk, gt_cand);
      winner.Merge(s_gt);
    }

    if (degree == 0) winner.label = graph::kInvalidLabel;

    // Leader thread commits Lnext[v].
    sim::Warp leader(0, sim::LaneBit(0), blk.stats());
    sim::LaneArray<int64_t> idx(0);
    sim::LaneArray<graph::Label> val(winner.label);
    idx[0] = v;
    leader.Scatter(view.next, idx, val);
  });
}

}  // namespace glp::lp::ref
