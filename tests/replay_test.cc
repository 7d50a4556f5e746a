// Host block replay (DESIGN.md §4.1) against a reference that never
// replays.
//
// The GLP engine skips simulating a LabelPropagation block whose neighbors
// speak the same labels as two iterations earlier, and reuses that
// iteration's stats and choices. A single-iteration run never replays, and
// for the classic and degree-weighted variants the labels are the whole
// state, so T chained single-iteration runs — each seeded with the previous
// run's labels — are the reference: their summed KernelStats, final labels,
// summed simulated seconds and summed fallback counts must equal one
// T-iteration run's, field for field and bit for bit.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/seq_engine.h"
#include "glp/glp_engine.h"
#include "glp/variants/classic.h"
#include "glp/variants/degree_weighted.h"
#include "glp/variants/llp.h"
#include "glp/variants/slp.h"
#include "golden_graphs.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace glp::lp {
namespace {

using graph::Graph;

using golden::Fields;
using golden::PowerLawGraph;
using golden::WeightedBipartiteGraph;

/// Dense communities that converge within a few iterations, with hubs past
/// the high-degree threshold.
Graph PlantedPartitionGraph() {
  graph::PlantedPartitionParams p;
  p.num_communities = 12;
  p.community_size = 160;
  p.intra_degree = 70;
  p.inter_degree = 1;
  p.seed = 3;
  return graph::GeneratePlantedPartition(p);
}

/// Directed random graph: a vertex's readers are the rows that hold it,
/// not the vertices in its own row.
Graph DirectedGraph() {
  graph::GraphBuilder b(2000);
  Rng rng(5);
  for (int e = 0; e < 30000; ++e) {
    const auto u = static_cast<graph::VertexId>(rng.Bounded(2000));
    const uint64_t r = rng.Bounded(2000);
    // Skewed targets give some vertices in-degrees past the high bin.
    const auto v = static_cast<graph::VertexId>(r * r / 2000);
    if (u != v) b.AddEdgeUnchecked(u, v);
  }
  return b.Build(/*symmetrize=*/false);
}

struct Outcome {
  std::vector<uint64_t> fields;
  std::vector<graph::Label> labels;
  double simulated_seconds = 0;
  uint64_t fallbacks = 0;
  uint64_t replayed = 0;
};

template <typename Variant>
Outcome RunChained(const Graph& g, const GlpOptions& opts, int iterations,
                   ThreadPool* pool) {
  GlpEngine<Variant> engine({}, opts, pool);
  RunConfig run;
  run.max_iterations = 1;
  sim::KernelStats stats;
  Outcome out;
  for (int t = 0; t < iterations; ++t) {
    auto r = engine.Run(g, run);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) return out;
    stats += r.value().stats;
    out.simulated_seconds += r.value().simulated_seconds;
    out.fallbacks += engine.last_fallback_count();
    out.replayed += engine.last_replayed_blocks();
    run.initial_labels = r.value().labels;
  }
  out.fields = Fields(stats);
  out.labels = run.initial_labels;
  return out;
}

template <typename Variant>
Outcome RunWhole(const Graph& g, const GlpOptions& opts, int iterations,
                 ThreadPool* pool) {
  GlpEngine<Variant> engine({}, opts, pool);
  RunConfig run;
  run.max_iterations = iterations;
  auto r = engine.Run(g, run);
  EXPECT_TRUE(r.ok());
  Outcome out;
  if (!r.ok()) return out;
  out.fields = Fields(r.value().stats);
  out.labels = r.value().labels;
  out.simulated_seconds = r.value().simulated_seconds;
  out.fallbacks = engine.last_fallback_count();
  out.replayed = engine.last_replayed_blocks();
  EXPECT_EQ(out.replayed, r.value().host_blocks_replayed);
  return out;
}

template <typename Variant>
void ExpectReplayMatchesChain(const std::string& what, const Graph& g,
                              const GlpOptions& opts) {
  constexpr int kIterations = 8;
  ThreadPool serial(1);
  const Outcome want = RunChained<Variant>(g, opts, kIterations, &serial);
  EXPECT_EQ(want.replayed, 0u) << what;
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    const Outcome got = RunWhole<Variant>(g, opts, kIterations, &pool);
    const std::string where = what + " threads=" + std::to_string(threads);
    EXPECT_EQ(want.fields, got.fields) << where;
    EXPECT_EQ(want.labels, got.labels) << where;
    EXPECT_EQ(want.simulated_seconds, got.simulated_seconds) << where;
    EXPECT_EQ(want.fallbacks, got.fallbacks) << where;
  }
}

std::vector<std::pair<std::string, GlpOptions>> Modes() {
  std::vector<std::pair<std::string, GlpOptions>> out;
  for (int gpus : {1, 2}) {
    const std::string suffix = "/gpus=" + std::to_string(gpus);
    GlpOptions glp;
    glp.num_gpus = gpus;
    out.push_back({"GLP" + suffix, glp});
    GlpOptions smem = glp;
    smem.mode = GlpOptions::Mode::kSmem;
    out.push_back({"GLP-smem" + suffix, smem});
    // Labels spill to the CMS and hubs take the global fallback.
    GlpOptions tiny = glp;
    tiny.ht_capacity = 32;
    tiny.cms_width = 64;
    out.push_back({"GLP-tinyHT" + suffix, tiny});
  }
  return out;
}

TEST(BlockReplayTest, MatchesChainedSingleIterationRuns) {
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"powerlaw", PowerLawGraph()},
      {"weighted", WeightedBipartiteGraph()},
      {"planted", PlantedPartitionGraph()},
      {"directed", DirectedGraph()}};
  for (const auto& [gname, g] : graphs) {
    for (const auto& [mname, opts] : Modes()) {
      ExpectReplayMatchesChain<ClassicVariant>(gname + " " + mname +
                                                   " classic",
                                               g, opts);
      ExpectReplayMatchesChain<DegreeWeightedVariant>(
          gname + " " + mname + " degree-weighted", g, opts);
    }
  }
}

TEST(BlockReplayTest, ConvergingGraphReplaysBlocks) {
  const Graph g = PlantedPartitionGraph();
  GlpEngine<ClassicVariant> engine;
  RunConfig run;
  run.max_iterations = 8;
  auto r = engine.Run(g, run);
  ASSERT_TRUE(r.ok());
  const RunResult& res = r.value();
  EXPECT_GT(engine.last_replayed_blocks(), 0u);
  EXPECT_EQ(res.host_blocks_replayed, engine.last_replayed_blocks());
  EXPECT_GT(res.host_blocks_executed, 0u);
  // The host replays warps of the low and mid kernels and blocks of the
  // high kernel; every pass simulates or replays each of them: one per
  // packed low-degree round, mid-bin vertex and high-bin vertex.
  const graph::DegreeBins bins = graph::ComputeDegreeBins(g);
  const uint64_t per_pass = BuildLowDegreePlan(g, bins.low).num_rounds +
                            bins.mid.size() + bins.high.size();
  EXPECT_EQ(res.host_blocks_executed + res.host_blocks_replayed,
            static_cast<uint64_t>(res.iterations) * per_pass);
}

/// Disjoint pairs, a star whose center is in the mid bin and one whose
/// center is in the high bin; every other vertex has degree 1.
Graph PairsAndStarsGraph() {
  graph::GraphBuilder b(282);
  for (graph::VertexId p = 0; p < 20; ++p) {
    b.AddEdgeUnchecked(2 * p, 2 * p + 1);
  }
  for (graph::VertexId leaf = 41; leaf <= 80; ++leaf) {
    b.AddEdgeUnchecked(40, leaf);
  }
  for (graph::VertexId leaf = 82; leaf <= 281; ++leaf) {
    b.AddEdgeUnchecked(81, leaf);
  }
  return b.Build();
}

TEST(BlockReplayTest, HostWorkItemsPinnedOnSmallGraph) {
  // Labels start as vertex ids. Pairs swap every iteration (period 2). A
  // star's center first takes its smallest leaf's label and its leaves the
  // center's; from iteration 1 on the labels repeat with period 2 too. So
  // against t-2 only iteration 2 sees a change: the leaves left their own
  // ids, which touches the two centers. Everything runs in iterations 0
  // and 1 (no t-2 yet), the two centers also in iteration 2.
  const Graph g = PairsAndStarsGraph();
  const graph::DegreeBins bins = graph::ComputeDegreeBins(g);
  ASSERT_EQ(bins.low.size(), 280u);
  ASSERT_EQ(bins.mid, std::vector<graph::VertexId>{40});
  ASSERT_EQ(bins.high, std::vector<graph::VertexId>{81});
  RunConfig run;
  run.max_iterations = 8;
  // GLP packs the 280 degree-1 vertices into 9 rounds (9 low warps);
  // GLP-smem runs one warp per low-bin vertex.
  struct Case {
    GlpOptions::Mode mode;
    uint64_t executed, replayed;
  };
  for (const Case& c : {Case{GlpOptions::Mode::kSmemWarp, 2 * 9 + 3 + 3,
                             6 * 9 + 5 + 5},
                        Case{GlpOptions::Mode::kSmem, 2 * 280 + 3 + 3,
                             6 * 280 + 5 + 5}}) {
    GlpOptions opts;
    opts.mode = c.mode;
    GlpEngine<ClassicVariant> engine({}, opts);
    auto r = engine.Run(g, run);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().host_blocks_executed, c.executed) << engine.name();
    EXPECT_EQ(r.value().host_blocks_replayed, c.replayed) << engine.name();
  }
}

TEST(BlockReplayTest, SlpMatchesSeqWhileReplaying) {
  // SLP keeps Lnext apart from its label memory, so a replayed block's
  // choices must be restored from iteration t-2 (the classic variants'
  // double buffer happens to hold them already). With one memory slot a
  // vertex speaks its latest choice, and the bipartite graph oscillates:
  // t-1's choices differ from t-2's where blocks replay.
  const Graph g = WeightedBipartiteGraph();
  VariantParams params;
  params.slp_max_labels = 1;
  RunConfig run;
  run.max_iterations = 8;
  GlpEngine<SlpVariant> glp(params);
  cpu::SeqEngine<SlpVariant> seq(params);
  auto r = glp.Run(g, run);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(glp.last_replayed_blocks(), 0u);
  EXPECT_EQ(r.value().labels, seq.Run(g, run).value().labels);
}

TEST(BlockReplayTest, ReplayStaysOutOfGlobalFrontierAndAuxRuns) {
  const Graph g = PlantedPartitionGraph();
  RunConfig run;
  run.max_iterations = 8;
  GlpOptions global;
  global.mode = GlpOptions::Mode::kGlobal;
  GlpEngine<ClassicVariant> global_engine({}, global);
  ASSERT_TRUE(global_engine.Run(g, run).ok());
  EXPECT_EQ(global_engine.last_replayed_blocks(), 0u);
  GlpOptions frontier;
  frontier.use_frontier = true;
  GlpEngine<ClassicVariant> frontier_engine({}, frontier);
  ASSERT_TRUE(frontier_engine.Run(g, run).ok());
  EXPECT_EQ(frontier_engine.last_replayed_blocks(), 0u);
  // LLP's scores read per-label volumes, which no block's inputs cover.
  GlpEngine<LlpVariant> llp_engine;
  ASSERT_TRUE(llp_engine.Run(g, run).ok());
  EXPECT_EQ(llp_engine.last_replayed_blocks(), 0u);
}

}  // namespace
}  // namespace glp::lp
