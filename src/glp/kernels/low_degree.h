// One-warp-multi-vertices LabelPropagation kernel for low-degree vertices —
// the warp-centric scheduling of paper §4.2 (Figure 3).
//
// A packing plan assigns (vertex, edge) pairs of several low-degree vertices
// to the 32 lanes of a warp round, never splitting a vertex across rounds.
// Peer discovery then uses warp intrinsics exactly as the paper describes:
//   1. __ballot_sync     -> activemask of lanes holding a valid slot
//   2. __match_any_sync  on vertex ids -> vmask (same-vertex peers)
//   3. __match_any_sync  on labels, intersected with vmask -> lmask
//   4. __popc(lmask)     -> the label's frequency
// followed by a shuffle-based per-vertex argmax and a scatter of Lnext.
//
// Frequencies come from popcounts, so this kernel requires unit neighbor
// weights (all of the paper's variants are unit-weight); engines route
// non-unit-weight variants to the warp-per-vertex kernel instead.
//
// Most of a round does not depend on labels: the slot load, the ballot, the
// match on vertex ids, the offsets and neighbor gathers, and the sector
// counts of the label gather and the Lnext scatter are fixed by the graph
// and the plan. The plan builder works them out once per run from the CSR
// and charges them through sim::Warp's charge-only calls; each pass then
// loads labels, groups them within each vertex, scores and writes Lnext,
// and adds the round's recorded prefix charges.

#pragma once

#include <algorithm>
#include <bit>
#include <vector>

#include "glp/kernels/common.h"
#include "sim/block.h"
#include "sim/launch.h"
#include "util/logging.h"

namespace glp::lp {

/// Lane assignment for the low-degree kernel: rounds of 32 slots, each slot
/// one lane of a vertex, vertices never straddling rounds. On the device
/// only the vertex id is materialized — a lane derives its edge index as
/// offsets[v] + popc(vmask & lanes_below), since a vertex's slots are
/// contiguous in lane order and cover its whole neighbor list. Built once
/// per run (the graph is static) and resident on the device.
///
/// The plan also carries the host-side round prefix: per slot the neighbor
/// its lane reads, and per round the lanes the ballot selects, the first
/// lane of each vertex, and the charges of the round's label-independent
/// operations. The simulated kernel would recompute these every pass; they
/// are a host memo, not device state, so device_bytes() leaves them out.
struct LowDegreePlan {
  /// The label-independent part of one round.
  struct Round {
    sim::LaneMask active = 0;          ///< the ballot over valid slots
    sim::LaneMask vertex_leaders = 0;  ///< the first lane of each vertex
    sim::KernelStats prefix;           ///< charges of the fixed operations
  };

  std::vector<graph::VertexId> slot_vertex;  ///< kInvalidVertex = padding
  int64_t num_rounds = 0;
  /// Low-bin vertices with zero degree (handled by a trivial map kernel).
  std::vector<graph::VertexId> isolated;
  /// Fraction of lane slots carrying real work (packing efficiency).
  double occupancy = 0;
  /// Host memo: the neighbor each slot reads (kInvalidVertex = padding).
  std::vector<graph::VertexId> slot_neighbor;
  /// Host memo: one entry per round.
  std::vector<Round> rounds;

  uint64_t device_bytes() const {
    return slot_vertex.size() * sizeof(graph::VertexId);
  }
};

/// Records round `r`'s lanes and the charges of everything the kernel does
/// in it that does not read a label, in the kernel's order of operations.
inline LowDegreePlan::Round LowDegreeRoundPrefix(const graph::Graph& g,
                                                 const LowDegreePlan& plan,
                                                 int64_t r) {
  LowDegreePlan::Round round;
  const int64_t base = r * sim::kWarpSize;
  const graph::VertexId* vid = plan.slot_vertex.data() + base;
  sim::Warp w(0, sim::kFullMask, &round.prefix);
  w.ChargeGatherContig<graph::VertexId>(base);  // slot assignment
  w.ChargeIntrinsic();                          // __ballot_sync
  for (int l = 0; l < sim::kWarpSize; ++l) {
    if (vid[l] == graph::kInvalidVertex) continue;
    round.active |= sim::LaneBit(l);
    if (l == 0 || vid[l - 1] != vid[l]) {
      round.vertex_leaders |= sim::LaneBit(l);
    }
  }
  if (round.active == 0) return round;
  w.SetActive(round.active);
  w.ChargeIntrinsic();  // __match_any_sync on vertex ids
  sim::LaneArray<int64_t> vidx, eidx, nidx;
  sim::ForEachLane(round.active, [&](int l) {
    vidx[l] = vid[l];
    const int rank = l - (31 - std::countl_zero(round.vertex_leaders &
                                                (sim::LaneBit(l) * 2 - 1)));
    eidx[l] = g.offsets_data()[vid[l]] + rank;
    nidx[l] = plan.slot_neighbor[base + l];
  });
  w.ChargeGather<graph::EdgeId>(vidx);    // offsets[v]
  w.ChargeIntrinsic();                    // popc for the rank
  w.ChargeGather<graph::VertexId>(eidx);  // neighbors[edge]
  w.ChargeGather<graph::Label>(nidx);     // labels[neighbor]
  w.ChargeIntrinsic();                    // __match_any_sync on labels
  w.CountInstr();                         // lmask &= vmask
  w.stats()->intrinsic_ops += 1;          // popc: frequencies
  // (The label leaders' scoring is label-dependent: charged per pass.)
  w.stats()->intrinsic_ops += 5;  // per-vertex argmax shuffles
  w.CountInstr(5);
  w.SetActive(round.vertex_leaders);
  w.ChargeGather<graph::Label>(vidx);  // Lnext scatter
  return round;
}

/// Greedy first-fit packing of the low bin. Vertices are packed in *id*
/// order so that the slot_edge sequence walks the CSR nearly contiguously —
/// the neighbor-id gathers of a round then coalesce (packing by degree
/// instead scatters each lane into a distant CSR range and costs one
/// transaction per lane).
inline LowDegreePlan BuildLowDegreePlan(
    const graph::Graph& g, const std::vector<graph::VertexId>& low_vertices) {
  LowDegreePlan plan;
  std::vector<graph::VertexId> by_id(low_vertices);
  std::sort(by_id.begin(), by_id.end());
  int fill = sim::kWarpSize;  // force a fresh round on first vertex
  int64_t used_slots = 0;
  auto pad = [&] {
    while (fill < sim::kWarpSize) {
      plan.slot_vertex.push_back(graph::kInvalidVertex);
      plan.slot_neighbor.push_back(graph::kInvalidVertex);
      ++fill;
    }
  };
  for (graph::VertexId v : by_id) {
    const int deg = static_cast<int>(g.degree(v));
    if (deg == 0) {
      plan.isolated.push_back(v);
      continue;
    }
    if (fill + deg > sim::kWarpSize) {
      // Pad the current round and open a new one.
      pad();
      fill = 0;
    }
    for (graph::VertexId u : g.neighbors(v)) {
      plan.slot_vertex.push_back(v);
      plan.slot_neighbor.push_back(u);
    }
    fill += deg;
    used_slots += deg;
  }
  if (fill > 0) pad();
  plan.num_rounds =
      static_cast<int64_t>(plan.slot_vertex.size()) / sim::kWarpSize;
  plan.occupancy = plan.slot_vertex.empty()
                       ? 1.0
                       : static_cast<double>(used_slots) /
                             static_cast<double>(plan.slot_vertex.size());
  plan.rounds.reserve(static_cast<size_t>(plan.num_rounds));
  for (int64_t r = 0; r < plan.num_rounds; ++r) {
    plan.rounds.push_back(LowDegreeRoundPrefix(g, plan, r));
  }
  return plan;
}

/// Runs one LabelPropagation pass over the packed low-degree rounds, one
/// warp per round, adding each round's prefix charges and doing its
/// label-dependent work. `memo` is passed to sim::Launch; a per-warp memo
/// has one entry per round (padded to whole blocks).
template <typename Variant>
sim::KernelStats RunLowDegreeWarpKernel(const sim::DeviceProps& props,
                                        glp::ThreadPool* pool,
                                        const DeviceView<Variant>& view,
                                        const LowDegreePlan& plan,
                                        int threads_per_block,
                                        sim::BlockMemo* memo = nullptr) {
  // A round fills a whole warp: the slot load runs on all 32 lanes.
  GLP_CHECK_EQ(threads_per_block % sim::kWarpSize, 0);
  const int warps_per_block = threads_per_block / sim::kWarpSize;
  const int64_t rounds = plan.num_rounds;
  if (rounds == 0) return sim::KernelStats{};
  sim::LaunchConfig cfg;
  cfg.threads_per_block = threads_per_block;
  cfg.num_blocks = (rounds + warps_per_block - 1) / warps_per_block;

  return sim::Launch(props, cfg, pool, [&](sim::Block& blk) {
    blk.ForEachWarp([&](sim::Warp& w) {
      const int64_t round = blk.block_idx() * warps_per_block + w.warp_id();
      if (round >= rounds) return;
      const LowDegreePlan::Round& r = plan.rounds[round];
      *w.stats() += r.prefix;
      if (r.active == 0) return;
      const int64_t base = round * sim::kWarpSize;
      const graph::VertexId* nbr = plan.slot_neighbor.data() + base;

      // Load the neighbors' labels.
      sim::LaneArray<graph::Label> lbl(graph::kInvalidLabel);
      sim::ForEachLane(r.active, [&](int l) { lbl[l] = view.labels[nbr[l]]; });

      // Group equal labels within each vertex's lanes (the label match
      // intersected with vmask): the lowest lane of a group leads it and
      // its frequency is the group's size.
      sim::LaneMask label_leaders = 0;
      sim::LaneArray<int> freq(0);
      auto for_each_vertex = [&](auto&& fn) {
        for (sim::LaneMask lead = r.vertex_leaders; lead != 0;
             lead &= lead - 1) {
          const int first = std::countr_zero(lead);
          const sim::LaneMask later = lead & (lead - 1);
          const sim::LaneMask below_next =
              later == 0 ? sim::kFullMask : (later & -later) - 1u;
          fn(first, r.active & below_next & ~(sim::LaneBit(first) - 1u));
        }
      };
      for_each_vertex([&](int, sim::LaneMask group) {
        for (sim::LaneMask rest = group; rest != 0;) {
          const int lead = std::countr_zero(rest);
          const graph::Label x = lbl[lead];
          sim::LaneMask peers = 0;
          for (sim::LaneMask m = rest; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            if (lbl[l] == x) peers |= sim::LaneBit(l);
          }
          label_leaders |= sim::LaneBit(lead);
          freq[lead] = sim::Popc(peers);
          rest &= ~peers;
        }
      });

      // Label leaders score their group's frequency.
      w.SetActive(label_leaders);
      const sim::LaneArray<double> aux = GatherAux(w, view, lbl);
      w.CountInstr();

      // Per-vertex argmax across its label leaders; Lnext[v] = winner.
      for_each_vertex([&](int first, sim::LaneMask group) {
        const graph::VertexId v = plan.slot_vertex[base + first];
        Candidate best;
        sim::ForEachLane(group & label_leaders, [&](int l) {
          best.Merge(Candidate{view.variant->Score(v, lbl[l], freq[l], aux[l]),
                               lbl[l]});
        });
        view.next[v] = best.label;
      });
    });
  }, memo);
}

}  // namespace glp::lp
