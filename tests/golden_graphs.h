// Graphs and the KernelStats field list shared by the simulator's exactness
// gates (sim_golden_test, replay_test).

#pragma once

#include <cstdint>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "sim/stats.h"
#include "util/rng.h"

namespace glp::lp::golden {

/// Every KernelStats field, in declaration order.
inline std::vector<uint64_t> Fields(const sim::KernelStats& k) {
  return {k.global_transactions, k.global_bytes_requested, k.global_atomics,
          k.global_atomic_conflicts, k.shared_accesses, k.shared_bank_conflicts,
          k.shared_atomics, k.instructions, k.intrinsic_ops, k.block_reduces,
          k.block_syncs, k.active_lane_cycles, k.total_lane_cycles,
          k.kernel_launches, k.blocks_executed};
}

/// Power-law graph: low, mid and high degree bins all populated.
inline graph::Graph PowerLawGraph() {
  graph::ChungLuParams p;
  p.num_vertices = 3000;
  p.num_edges = 24000;
  p.exponent = 2.1;
  p.seed = 7;
  return graph::GenerateChungLu(p);
}

/// Weighted user-item multigraph (parallel edges collapsed to weights) with
/// Zipf item popularity: exercises the edge-weight gathers and hub vertices.
inline graph::Graph WeightedBipartiteGraph() {
  const graph::VertexId users = 1500;
  const graph::VertexId items = 300;
  graph::GraphBuilder b(users + items);
  Rng rng(11);
  for (int e = 0; e < 16000; ++e) {
    const auto u = static_cast<graph::VertexId>(rng.Bounded(users));
    // Squaring a uniform draw skews popularity toward low item ids.
    const uint64_t r = rng.Bounded(items);
    const auto i = static_cast<graph::VertexId>(r * r / items);
    b.AddEdgeUnchecked(u, users + i);
  }
  return b.BuildCollapsed(true);
}

}  // namespace glp::lp::golden
