// Unit tests for the GLP engine and its kernels: the low-degree packing
// plan, the warp-centric kernel, the CMS+HT high-degree kernel (including
// the Theorem-1 fallback path), mode dispatch, and cost accounting.

#include <gtest/gtest.h>

#include "cpu/seq_engine.h"
#include "glp/glp_engine.h"
#include "glp/kernels/low_degree.h"
#include "glp/variants/classic.h"
#include "glp/variants/llp.h"
#include "glp/variants/slp.h"
#include "graph/builder.h"
#include "graph/generators.h"

namespace glp::lp {
namespace {

using graph::BuildGraph;
using graph::Edge;
using graph::Graph;
using graph::VertexId;

TEST(LowDegreePlanTest, PacksMultipleVerticesPerRound) {
  // 16 vertices of degree 4 -> 64 slots -> 2 full rounds.
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 16; ++v) {
    for (VertexId k = 0; k < 4; ++k) {
      edges.push_back({v, static_cast<VertexId>(16 + (v * 4 + k) % 8)});
    }
  }
  Graph g = BuildGraph(24, edges, /*symmetrize=*/false, /*dedupe=*/false);
  std::vector<VertexId> low;
  for (VertexId v = 16; v < 24; ++v) low.push_back(v);  // in-degree 8 each
  LowDegreePlan plan = BuildLowDegreePlan(g, low);
  EXPECT_EQ(plan.num_rounds, 2);
  EXPECT_DOUBLE_EQ(plan.occupancy, 1.0);
  EXPECT_TRUE(plan.isolated.empty());
}

TEST(LowDegreePlanTest, VerticesNeverStraddleRounds) {
  Graph g = graph::GenerateChungLu(
      {.num_vertices = 512, .num_edges = 2048, .exponent = 2.1, .seed = 6});
  graph::DegreeBins bins = graph::ComputeDegreeBins(g);
  LowDegreePlan plan = BuildLowDegreePlan(g, bins.low);
  for (size_t i = 0; i < plan.slot_vertex.size(); ++i) {
    if (plan.slot_vertex[i] == graph::kInvalidVertex) continue;
    // All slots of one vertex lie in the same round.
    const int64_t round = static_cast<int64_t>(i) / sim::kWarpSize;
    const VertexId v = plan.slot_vertex[i];
    // Walk this vertex's contiguous slot range.
    size_t j = i;
    while (j + 1 < plan.slot_vertex.size() && plan.slot_vertex[j + 1] == v) {
      ++j;
    }
    EXPECT_EQ(static_cast<int64_t>(j) / sim::kWarpSize, round)
        << "vertex " << v << " straddles rounds";
    i = j;
  }
}

TEST(LowDegreePlanTest, IsolatedVerticesSeparated) {
  Graph g = BuildGraph(4, {{0, 1}});  // 2, 3 isolated
  LowDegreePlan plan = BuildLowDegreePlan(g, {0, 1, 2, 3});
  EXPECT_EQ(plan.isolated.size(), 2u);
}

TEST(LowDegreePlanTest, PlanCoversEveryEdgeExactlyOnce) {
  Graph g = graph::GenerateGrid2d(12, 12);
  graph::DegreeBins bins = graph::ComputeDegreeBins(g);
  LowDegreePlan plan = BuildLowDegreePlan(g, bins.low);
  // Reconstruct each slot's edge index the way the kernel does: a vertex's
  // slots are contiguous within a round and rank within them is the edge
  // offset.
  std::vector<int> edge_seen(g.num_edges(), 0);
  for (size_t i = 0; i < plan.slot_vertex.size();) {
    const VertexId v = plan.slot_vertex[i];
    if (v == graph::kInvalidVertex) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < plan.slot_vertex.size() && plan.slot_vertex[j] == v) ++j;
    const int64_t run = static_cast<int64_t>(j - i);
    ASSERT_EQ(run, g.degree(v)) << "vertex " << v << " slot run mismatch";
    for (int64_t k = 0; k < run; ++k) edge_seen[g.offset(v) + k]++;
    i = j;
  }
  int64_t covered = 0;
  for (int c : edge_seen) {
    EXPECT_LE(c, 1);
    covered += c;
  }
  // Every edge of a low-bin vertex appears exactly once.
  int64_t expected = 0;
  for (VertexId v : bins.low) expected += g.degree(v);
  EXPECT_EQ(covered, expected);
}

TEST(GlpEngineTest, MatchesSeqOnAllVariants) {
  Graph g = graph::GenerateRmat(
      {.num_vertices = 512, .num_edges = 4096, .seed = 13});
  RunConfig run;
  run.max_iterations = 5;
  run.seed = 7;

  {
    cpu::SeqEngine<ClassicVariant> seq;
    GlpEngine<ClassicVariant> glp;
    EXPECT_EQ(seq.Run(g, run).value().labels, glp.Run(g, run).value().labels);
  }
  {
    VariantParams p;
    p.llp_gamma = 4.0;
    cpu::SeqEngine<LlpVariant> seq(p);
    GlpEngine<LlpVariant> glp(p);
    EXPECT_EQ(seq.Run(g, run).value().labels, glp.Run(g, run).value().labels);
  }
  {
    cpu::SeqEngine<SlpVariant> seq;
    GlpEngine<SlpVariant> glp;
    EXPECT_EQ(seq.Run(g, run).value().labels, glp.Run(g, run).value().labels);
  }
}

TEST(GlpEngineTest, ThreadsPerBlockMustBeWholeWarps) {
  // The warp-mapped kernels give every warp of a block its own vertex or
  // round: below 32 a block has no whole warp (this used to die on a
  // division by zero), and at 48 a partial second warp would redo the next
  // block's first vertex.
  Graph g = graph::GenerateChungLu(
      {.num_vertices = 500, .num_edges = 3000, .exponent = 2.2, .seed = 4});
  RunConfig run;
  run.max_iterations = 4;
  const int too_many = sim::DeviceProps::TitanV().max_threads_per_block + 32;
  for (int threads : {16, 48, 0, -32, too_many}) {
    GlpOptions opts;
    opts.threads_per_block = threads;
    GlpEngine<ClassicVariant> glp({}, opts);
    EXPECT_TRUE(glp.Run(g, run).status().IsInvalidArgument()) << threads;
  }
  GlpOptions opts;
  opts.threads_per_block = 32;
  GlpEngine<ClassicVariant> glp({}, opts);
  cpu::SeqEngine<ClassicVariant> seq;
  auto r = glp.Run(g, run);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().labels, seq.Run(g, run).value().labels);
}

TEST(GlpEngineTest, HighDegreeStarCorrect) {
  // Star with 1000 leaves: center is a high-degree vertex; after one
  // iteration the center takes the smallest leaf label and every leaf takes
  // the center's.
  std::vector<Edge> edges;
  for (VertexId i = 1; i <= 1000; ++i) edges.push_back({0, i});
  Graph g = BuildGraph(1001, edges);
  RunConfig run;
  run.max_iterations = 1;
  GlpEngine<ClassicVariant> glp;
  auto r = glp.Run(g, run);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().labels[0], 1u);
  for (VertexId i = 1; i <= 1000; ++i) EXPECT_EQ(r.value().labels[i], 0u);
}

TEST(GlpEngineTest, FallbackRareAfterConvergence) {
  // A dense community graph whose degrees exceed the shared HT capacity:
  // iteration 1 spills (all labels distinct), but labels consolidate and
  // the CMS+HT path stops falling back to global memory.
  graph::PlantedPartitionParams p;
  p.num_communities = 3;
  p.community_size = 700;
  p.intra_degree = 400;
  p.inter_degree = 2;
  p.seed = 17;
  Graph g = graph::GeneratePlantedPartition(p);
  GlpOptions opts;
  opts.ht_capacity = 256;  // force early-iteration spills
  GlpEngine<ClassicVariant> glp({}, opts);
  RunConfig run;
  run.max_iterations = 8;
  auto r = glp.Run(g, run);
  ASSERT_TRUE(r.ok());
  const graph::DegreeBins bins = graph::ComputeDegreeBins(g);
  ASSERT_GT(bins.high.size(), 0u);
  const uint64_t high_slots = bins.high.size() * run.max_iterations;
  // Iteration 1 may fall back on most high-degree vertices; amortized over
  // the run the rate stays a small fraction.
  EXPECT_LT(glp.last_fallback_count(), high_slots / 3)
      << "fallbacks: " << glp.last_fallback_count() << " of " << high_slots;
  // The exact count is part of what the kernels compute (bench/sweep_ht_cms
  // and bench/theory_bounds report it), so it is pinned too.
  EXPECT_EQ(glp.last_fallback_count(), 2100u);
  // The kernel did exercise the CMS+HT structures correctly vs Seq.
  cpu::SeqEngine<ClassicVariant> seq;
  EXPECT_EQ(seq.Run(g, run).value().labels, r.value().labels);
}

TEST(GlpEngineTest, TinyHtFallbackCountIsExact) {
  // 300 five-cliques keep 300 distinct labels; 8 hubs each touch one vertex
  // of 150 different cliques. A 32-slot shared HT cannot hold a hub's 150
  // labels, so every hub spills and falls back in every iteration, long
  // after the cliques have settled.
  constexpr VertexId kCliques = 300, kHubs = 8, kHubDegree = 150;
  graph::GraphBuilder b(kCliques * 5 + kHubs);
  for (VertexId c = 0; c < kCliques; ++c) {
    for (VertexId i = 0; i < 5; ++i) {
      for (VertexId j = i + 1; j < 5; ++j) {
        b.AddEdgeUnchecked(c * 5 + i, c * 5 + j);
      }
    }
  }
  for (VertexId h = 0; h < kHubs; ++h) {
    for (VertexId k = 0; k < kHubDegree; ++k) {
      const VertexId clique = (h * 37 + k) % kCliques;
      b.AddEdgeUnchecked(kCliques * 5 + h, clique * 5 + h % 5);
    }
  }
  Graph g = b.Build();
  ASSERT_EQ(graph::ComputeDegreeBins(g).high.size(), kHubs);
  GlpOptions opts;
  opts.ht_capacity = 32;
  GlpEngine<ClassicVariant> glp({}, opts);
  RunConfig run;
  run.max_iterations = 6;
  auto r = glp.Run(g, run);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(glp.last_fallback_count(), kHubs * run.max_iterations);
  EXPECT_EQ(glp.last_fallback_count(), 48u);
  cpu::SeqEngine<ClassicVariant> seq;
  EXPECT_EQ(seq.Run(g, run).value().labels, r.value().labels);
}

TEST(GlpEngineTest, SmemBeatsGlobalOnHighDegreeGraph) {
  auto g = graph::GenerateBipartite(
      {.num_left = 500, .num_right = 300, .num_edges = 200000,
       .zipf_skew = 0.7, .seed = 2});
  RunConfig run;
  run.max_iterations = 4;
  GlpOptions global_opts, smem_opts;
  global_opts.mode = GlpOptions::Mode::kGlobal;
  smem_opts.mode = GlpOptions::Mode::kSmem;
  GlpEngine<ClassicVariant> glob({}, global_opts);
  GlpEngine<ClassicVariant> smem({}, smem_opts);
  auto a = glob.Run(g, run);
  auto b = smem.Run(g, run);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().labels, b.value().labels);
  EXPECT_LT(b.value().simulated_seconds, a.value().simulated_seconds);
  // The point of the optimization: far fewer global transactions.
  EXPECT_LT(b.value().stats.global_transactions,
            a.value().stats.global_transactions);
}

TEST(GlpEngineTest, WarpPackingBeatsWarpPerVertexOnRoadNet) {
  Graph g = graph::GenerateGrid2d(120, 120);
  RunConfig run;
  run.max_iterations = 4;
  GlpOptions smem_opts, full_opts;
  smem_opts.mode = GlpOptions::Mode::kSmem;
  full_opts.mode = GlpOptions::Mode::kSmemWarp;
  GlpEngine<ClassicVariant> smem({}, smem_opts);
  GlpEngine<ClassicVariant> full({}, full_opts);
  auto a = smem.Run(g, run);
  auto b = full.Run(g, run);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().labels, b.value().labels);
  EXPECT_LT(b.value().simulated_seconds, a.value().simulated_seconds);
  // Packing raises lane utilization.
  EXPECT_GT(b.value().stats.LaneUtilization(),
            a.value().stats.LaneUtilization());
  EXPECT_GT(full.last_plan_occupancy(), 0.8);
}

TEST(GlpEngineTest, DeviceBytesStayNearGraphSize) {
  // GLP's memory overhead is O(V) (plan + bins), not O(E) like G-Sort/G-Hash.
  Graph g = graph::GenerateRmat(
      {.num_vertices = 1024, .num_edges = 16384, .seed = 4});
  RunConfig run;
  run.max_iterations = 1;
  GlpEngine<ClassicVariant> glp;
  auto r = glp.Run(g, run);
  ASSERT_TRUE(r.ok());
  const uint64_t labels_bytes = 2ull * g.num_vertices() * 4;
  // Plan is ~12B per low-bin edge; bound generously by 2x graph size.
  EXPECT_LT(r.value().device_bytes, 2 * g.bytes() + labels_bytes + (1 << 20));
}

TEST(GlpEngineTest, StopWhenStableEndsEarly) {
  // Two cliques converge fast.
  std::vector<Edge> edges;
  for (VertexId base : {0u, 6u}) {
    for (VertexId i = 0; i < 6; ++i) {
      for (VertexId j = i + 1; j < 6; ++j) edges.push_back({base + i, base + j});
    }
  }
  Graph g = BuildGraph(12, edges);
  GlpEngine<ClassicVariant> glp;
  RunConfig run;
  run.max_iterations = 30;
  run.stop_when_stable = true;
  auto r = glp.Run(g, run);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r.value().iterations, 10);
}

TEST(GlpEngineTest, NameReflectsMode) {
  GlpOptions o;
  o.mode = GlpOptions::Mode::kGlobal;
  EXPECT_EQ((GlpEngine<ClassicVariant>({}, o).name()), "GLP-global");
  o.mode = GlpOptions::Mode::kSmem;
  EXPECT_EQ((GlpEngine<ClassicVariant>({}, o).name()), "GLP-smem");
  o.mode = GlpOptions::Mode::kSmemWarp;
  EXPECT_EQ((GlpEngine<ClassicVariant>({}, o).name()), "GLP");
}

TEST(GlpEngineTest, IsolatedVerticesKeepLabelsUnderWarpPack) {
  // Regression: the warp-pack low-bin path used to commit kInvalidLabel for
  // degree-0 vertices (they have no plan slots), clobbering their labels.
  // They must carry their current label through every iteration instead.
  Graph g = BuildGraph(8, {{0, 1}, {1, 2}, {2, 0}, {0, 3}});  // 4..7 isolated
  RunConfig run;
  run.max_iterations = 5;
  GlpOptions opts;
  opts.mode = GlpOptions::Mode::kSmemWarp;
  GlpEngine<ClassicVariant> glp({}, opts);
  cpu::SeqEngine<ClassicVariant> seq;
  auto r = glp.Run(g, run);
  ASSERT_TRUE(r.ok());
  for (graph::Label l : r.value().labels) {
    EXPECT_NE(l, graph::kInvalidLabel);
  }
  const auto seq_labels = seq.Run(g, run).value().labels;
  EXPECT_EQ(r.value().labels, seq_labels);
  // Isolated vertices never hear a neighbor: their label is their seed.
  for (VertexId v = 4; v < 8; ++v) {
    EXPECT_EQ(r.value().labels[v], seq_labels[v]) << v;
  }
}

TEST(GlpEngineTest, IsolatedVerticesKeepLabelsUnderWarpPackSlp) {
  // SLP's EndIteration does not remap kInvalidLabel, so the same regression
  // is observable directly through the variant that skips the safety net.
  Graph g = BuildGraph(8, {{0, 1}, {1, 2}, {2, 0}, {0, 3}});
  RunConfig run;
  run.max_iterations = 5;
  run.seed = 99;
  GlpOptions opts;
  opts.mode = GlpOptions::Mode::kSmemWarp;
  GlpEngine<SlpVariant> glp({}, opts);
  cpu::SeqEngine<SlpVariant> seq;
  auto r = glp.Run(g, run);
  ASSERT_TRUE(r.ok());
  for (graph::Label l : r.value().labels) {
    EXPECT_NE(l, graph::kInvalidLabel);
  }
  EXPECT_EQ(r.value().labels, seq.Run(g, run).value().labels);
}

TEST(GlpEngineTest, CustomDeviceCapacityTriggersHybrid) {
  Graph g = graph::GenerateRmat(
      {.num_vertices = 1024, .num_edges = 8192, .seed = 3});
  RunConfig run;
  run.max_iterations = 2;
  // Capacity below the graph size -> hybrid engaged automatically.
  auto device = sim::DeviceProps::TitanVWithCapacity(g.bytes() / 2);
  GlpEngine<ClassicVariant> glp({}, {}, nullptr, device);
  auto r = glp.Run(g, run);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().transfer_seconds, 0.0);
}

}  // namespace
}  // namespace glp::lp
