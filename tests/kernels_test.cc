// Direct tests of the LabelPropagation kernels against the sequential
// reference, one pass at a time — finer-grained than the engine-level
// integration tests, covering each kernel's dispatch shape in isolation.

#include <gtest/gtest.h>

#include "cpu/mfl.h"
#include "golden_graphs.h"
#include "graph/builder.h"
#include "glp/kernels/accounting.h"
#include "glp/kernels/global_ht.h"
#include "glp/kernels/high_degree.h"
#include "glp/kernels/low_degree.h"
#include "glp/kernels/thread_per_vertex.h"
#include "glp/kernels/warp_per_vertex.h"
#include "glp/variants/classic.h"
#include "glp/variants/degree_weighted.h"
#include "glp/variants/llp.h"
#include "graph/binning.h"
#include "graph/generators.h"
#include "reference_kernels.h"
#include "util/bits.h"
#include "util/rng.h"

namespace glp::lp {
namespace {

using graph::Graph;
using graph::Label;
using graph::VertexId;

/// Expected Lnext for one synchronous pass over `vertices`.
template <typename Variant>
std::vector<Label> ReferencePass(const Graph& g, Variant& variant,
                                 const std::vector<VertexId>& vertices) {
  std::vector<Label> expected(g.num_vertices(), graph::kInvalidLabel);
  cpu::LabelCounter counter;
  for (VertexId v : vertices) {
    expected[v] = cpu::ComputeMfl(g, variant, v, &counter);
  }
  return expected;
}

template <typename Variant>
void CheckAgainstReference(const Graph& g,
                           const std::vector<VertexId>& vertices,
                           const std::vector<Label>& next,
                           Variant& variant) {
  const auto expected = ReferencePass(g, variant, vertices);
  for (VertexId v : vertices) {
    ASSERT_EQ(next[v], expected[v]) << "vertex " << v;
  }
}

class KernelSeedTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelSeedTest, WarpPerVertexMatchesReference) {
  Graph g = graph::GenerateRmat({.num_vertices = 256,
                                 .num_edges = 2048,
                                 .seed = static_cast<uint64_t>(GetParam())});
  ClassicVariant variant;
  RunConfig cfg;
  variant.Init(g, cfg);
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  int64_t maxd = 1;
  for (VertexId v : all) maxd = std::max(maxd, g.degree(v));
  int cap = 8;
  while (cap < 2 * maxd) cap <<= 1;

  auto view = DeviceView<ClassicVariant>::Of(g, variant);
  RunWarpPerVertexSmemKernel(sim::DeviceProps::TitanV(), nullptr, view, all,
                             cap, 256);
  CheckAgainstReference(g, all, variant.next_labels(), variant);
}

TEST_P(KernelSeedTest, LowDegreeWarpKernelMatchesReference) {
  Graph g = graph::GenerateChungLu({.num_vertices = 512,
                                    .num_edges = 2048,
                                    .exponent = 2.4,
                                    .seed = static_cast<uint64_t>(GetParam())});
  ClassicVariant variant;
  RunConfig cfg;
  variant.Init(g, cfg);
  const auto bins = graph::ComputeDegreeBins(g);
  const LowDegreePlan plan = BuildLowDegreePlan(g, bins.low);

  auto view = DeviceView<ClassicVariant>::Of(g, variant);
  RunLowDegreeWarpKernel(sim::DeviceProps::TitanV(), nullptr, view, plan, 256);
  // The kernel covers non-isolated low-bin vertices.
  std::vector<VertexId> covered;
  for (VertexId v : bins.low) {
    if (g.degree(v) > 0) covered.push_back(v);
  }
  CheckAgainstReference(g, covered, variant.next_labels(), variant);
}

TEST_P(KernelSeedTest, ThreadPerVertexMatchesReference) {
  Graph g = graph::GenerateChungLu({.num_vertices = 256,
                                    .num_edges = 1024,
                                    .exponent = 2.4,
                                    .seed = static_cast<uint64_t>(GetParam())});
  ClassicVariant variant;
  RunConfig cfg;
  variant.Init(g, cfg);
  const auto bins = graph::ComputeDegreeBins(g);

  auto view = DeviceView<ClassicVariant>::Of(g, variant);
  RunThreadPerVertexKernel(sim::DeviceProps::TitanV(), nullptr, view,
                           bins.low, 256);
  CheckAgainstReference(g, bins.low, variant.next_labels(), variant);
}

TEST_P(KernelSeedTest, GlobalHtKernelMatchesReference) {
  Graph g = graph::GenerateRmat({.num_vertices = 256,
                                 .num_edges = 4096,
                                 .seed = static_cast<uint64_t>(GetParam())});
  ClassicVariant variant;
  RunConfig cfg;
  variant.Init(g, cfg);
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  GlobalHtArena arena;
  arena.Build(g, all);
  arena.Reset();

  auto view = DeviceView<ClassicVariant>::Of(g, variant);
  RunGlobalHtKernel(sim::DeviceProps::TitanV(), nullptr, view, all, &arena,
                    256);
  CheckAgainstReference(g, all, variant.next_labels(), variant);
}

TEST_P(KernelSeedTest, HighDegreeBlockKernelMatchesReference) {
  // Dense bipartite: degrees well above the HT capacity, exercising both
  // the CMS spill path and (on ties in iteration one) the fallback.
  Graph g = graph::GenerateBipartite({.num_left = 100,
                                      .num_right = 60,
                                      .num_edges = 30000,
                                      .zipf_skew = 0.7,
                                      .seed = static_cast<uint64_t>(GetParam())});
  ClassicVariant variant;
  RunConfig cfg;
  variant.Init(g, cfg);
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;

  GlpOptions opts;
  opts.ht_capacity = 128;  // force spills
  opts.cms_depth = 4;
  opts.cms_width = 512;
  std::vector<uint8_t> fell_back(all.size());
  auto view = DeviceView<ClassicVariant>::Of(g, variant);
  RunHighDegreeBlockKernel(sim::DeviceProps::TitanV(), nullptr, view, all,
                           opts, fell_back.data());
  CheckAgainstReference(g, all, variant.next_labels(), variant);
}

TEST(HighDegreeKernelTest, FallbackTriggersWhenMflSpills) {
  // Adversarial construction: a 200-neighbor vertex whose first 64 distinct
  // labels fill a 32-slot HT and whose dominant label (frequency 136)
  // arrives only afterwards — it must spill to the CMS, whose estimate
  // (>= 136) exceeds every HT score (1), forcing the exact global fallback,
  // which must still return the dominant label.
  graph::GraphBuilder b(201);
  for (VertexId s = 1; s <= 200; ++s) b.AddEdgeUnchecked(s, 0);
  Graph g = b.Build(/*symmetrize=*/false, /*dedupe=*/false);
  RunConfig cfg;
  cfg.initial_labels.resize(201);
  for (VertexId v = 0; v <= 200; ++v) {
    cfg.initial_labels[v] = v <= 64 ? v : 999;
  }
  ClassicVariant variant;
  variant.Init(g, cfg);

  GlpOptions opts;
  opts.ht_capacity = 32;
  opts.cms_depth = 4;
  opts.cms_width = 256;
  uint8_t fell_back = 0;
  auto view = DeviceView<ClassicVariant>::Of(g, variant);
  RunHighDegreeBlockKernel(sim::DeviceProps::TitanV(), nullptr, view, {0},
                           opts, &fell_back);
  EXPECT_EQ(fell_back, 1u);
  EXPECT_EQ(variant.next_labels()[0], 999u);
}

TEST_P(KernelSeedTest, HighDegreeKernelWithLlpAux) {
  Graph g = graph::GenerateBipartite({.num_left = 80,
                                      .num_right = 40,
                                      .num_edges = 20000,
                                      .zipf_skew = 0.6,
                                      .seed = static_cast<uint64_t>(GetParam())});
  VariantParams params;
  params.llp_gamma = 2.0;
  LlpVariant variant(params);
  RunConfig cfg;
  variant.Init(g, cfg);
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;

  GlpOptions opts;
  opts.ht_capacity = 128;
  auto view = DeviceView<LlpVariant>::Of(g, variant);
  RunHighDegreeBlockKernel(sim::DeviceProps::TitanV(), nullptr, view, all,
                           opts, nullptr);
  CheckAgainstReference(g, all, variant.next_labels(), variant);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelSeedTest, ::testing::Range(1, 6));

// ---------------------------------------------------------------------------
// The production kernels against the lane-by-lane references of
// reference_kernels.h: same KernelStats field for field, same Lnext, same
// fallback flags, on seeded graphs and labels.

/// Seeded labels: few distinct values (large groups per vertex), some, or
/// one per vertex.
std::vector<Label> SeededLabels(VertexId n, uint64_t seed) {
  Rng rng(seed);
  const uint64_t ranges[] = {3, 40, n};
  const uint64_t range = ranges[seed % 3];
  std::vector<Label> labels(n);
  for (Label& l : labels) l = static_cast<Label>(rng.Bounded(range));
  return labels;
}

/// In-degrees drawn per vertex from `degrees` (rows hold in-neighbors),
/// neighbors uniform over all vertices, duplicates kept.
Graph RandomInDegreeGraph(VertexId n, const std::vector<int>& degrees,
                          uint64_t seed) {
  Rng rng(seed);
  graph::GraphBuilder b(n);
  for (VertexId v = 0; v < n; ++v) {
    const int deg = degrees[rng.Bounded(degrees.size())];
    for (int i = 0; i < deg; ++i) {
      b.AddEdgeUnchecked(static_cast<VertexId>(rng.Bounded(n)), v);
    }
  }
  return b.Build(/*symmetrize=*/false, /*dedupe=*/false);
}

/// Runs the reference and the production kernel on the same labels and
/// expects the same stats and the same Lnext (pre-filled with a sentinel).
template <typename Variant, typename Ref, typename Prod>
void ExpectSameAsReference(const std::string& what, const Graph& g,
                           Variant& variant, Ref&& ref, Prod&& prod) {
  constexpr Label kUnwritten = 0xfeedbeefu;
  auto view = DeviceView<Variant>::Of(g, variant);
  std::fill(variant.next_labels().begin(), variant.next_labels().end(),
            kUnwritten);
  const sim::KernelStats want = ref(view);
  const std::vector<Label> want_next = variant.next_labels();
  std::fill(variant.next_labels().begin(), variant.next_labels().end(),
            kUnwritten);
  const sim::KernelStats got = prod(view);
  EXPECT_EQ(golden::Fields(want), golden::Fields(got)) << what;
  EXPECT_EQ(want_next, variant.next_labels()) << what;
}

template <typename Variant>
void InitWithLabels(Variant& variant, const Graph& g, uint64_t seed) {
  RunConfig cfg;
  cfg.initial_labels = SeededLabels(g.num_vertices(), seed);
  variant.Init(g, cfg);
}

class KernelReferenceTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelReferenceTest, LowDegreeKernelMatchesReference) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  // Isolated vertices, whole-round degree-31 vertices (one padding lane),
  // and small degrees that share rounds and leave padded tails.
  const Graph g =
      RandomInDegreeGraph(700, {0, 1, 1, 2, 3, 5, 8, 13, 20, 31}, seed);
  const auto bins = graph::ComputeDegreeBins(g);
  ASSERT_TRUE(bins.mid.empty() && bins.high.empty());
  const LowDegreePlan plan = BuildLowDegreePlan(g, bins.low);
  ASSERT_FALSE(plan.isolated.empty());
  const sim::DeviceProps props = sim::DeviceProps::TitanV();
  for (int threads : {32, 256}) {
    const std::string what =
        "seed=" + std::to_string(seed) + " threads=" + std::to_string(threads);
    ClassicVariant classic;
    InitWithLabels(classic, g, seed);
    ExpectSameAsReference(
        what + " classic", g, classic,
        [&](const auto& view) {
          return ref::LowDegreeWarpKernel(props, nullptr, view, plan, threads);
        },
        [&](const auto& view) {
          return RunLowDegreeWarpKernel(props, nullptr, view, plan, threads);
        });
    VariantParams params;
    params.llp_gamma = 2.0;
    LlpVariant llp(params);
    InitWithLabels(llp, g, seed);
    ExpectSameAsReference(
        what + " llp", g, llp,
        [&](const auto& view) {
          return ref::LowDegreeWarpKernel(props, nullptr, view, plan, threads);
        },
        [&](const auto& view) {
          return RunLowDegreeWarpKernel(props, nullptr, view, plan, threads);
        });
  }
}

TEST_P(KernelReferenceTest, WarpPerVertexKernelMatchesReference) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  const Graph g =
      RandomInDegreeGraph(500, {0, 1, 7, 31, 32, 33, 64, 100, 128}, seed);
  std::vector<VertexId> all(g.num_vertices());
  int64_t maxd = 1;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    all[v] = v;
    maxd = std::max(maxd, g.degree(v));
  }
  const sim::DeviceProps props = sim::DeviceProps::TitanV();
  // Sized as the engine sizes it, and the smallest table that holds the
  // labels (chunks of it fill up).
  for (int cap : {NextPow2(2 * maxd), 128}) {
    const std::string what =
        "seed=" + std::to_string(seed) + " cap=" + std::to_string(cap);
    auto check = [&](const std::string& name, auto& variant) {
      InitWithLabels(variant, g, seed);
      ExpectSameAsReference(
          what + " " + name, g, variant,
          [&](const auto& view) {
            return ref::WarpPerVertexSmemKernel(props, nullptr, view, all,
                                                cap, 256);
          },
          [&](const auto& view) {
            return RunWarpPerVertexSmemKernel(props, nullptr, view, all, cap,
                                              256);
          });
    };
    ClassicVariant classic;
    check("classic", classic);
    DegreeWeightedVariant weighted;
    check("degree-weighted", weighted);
    LlpVariant llp;
    check("llp", llp);
  }
}

TEST_P(KernelReferenceTest, HighDegreeKernelMatchesReference) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  const Graph g = graph::GenerateBipartite({.num_left = 60,
                                            .num_right = 40,
                                            .num_edges = 16000,
                                            .zipf_skew = 0.7,
                                            .seed = seed});
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  const sim::DeviceProps props = sim::DeviceProps::TitanV();
  // The default HT holds every label; the small ones spill to the CMS, and
  // on the wider label ranges some blocks fall back to the global table.
  for (int h : {1024, 64, 32}) {
    GlpOptions opts;
    opts.ht_capacity = h;
    opts.cms_width = h == 1024 ? 2048 : 64;
    const std::string what =
        "seed=" + std::to_string(seed) + " ht=" + std::to_string(h);
    auto check = [&](const std::string& name, auto& variant) {
      InitWithLabels(variant, g, seed);
      std::vector<uint8_t> want_flags(all.size(), 7), got_flags(all.size(), 7);
      ExpectSameAsReference(
          what + " " + name, g, variant,
          [&](const auto& view) {
            return ref::HighDegreeBlockKernel(props, nullptr, view, all, opts,
                                              want_flags.data());
          },
          [&](const auto& view) {
            return RunHighDegreeBlockKernel(props, nullptr, view, all, opts,
                                            got_flags.data());
          });
      EXPECT_EQ(want_flags, got_flags) << what << " " << name;
    };
    ClassicVariant classic;
    check("classic", classic);
    DegreeWeightedVariant weighted;
    check("degree-weighted", weighted);
    LlpVariant llp;
    check("llp", llp);
  }
}

TEST(KernelReferenceTest, HighDegreeFallbackMatchesReference) {
  // FallbackTriggersWhenMflSpills' hub: its dominant label spills, so the
  // block takes the exact global-memory path.
  graph::GraphBuilder b(201);
  for (VertexId s = 1; s <= 200; ++s) b.AddEdgeUnchecked(s, 0);
  const Graph g = b.Build(/*symmetrize=*/false, /*dedupe=*/false);
  RunConfig cfg;
  cfg.initial_labels.resize(201);
  for (VertexId v = 0; v <= 200; ++v) {
    cfg.initial_labels[v] = v <= 64 ? v : 999;
  }
  ClassicVariant variant;
  variant.Init(g, cfg);
  GlpOptions opts;
  opts.ht_capacity = 32;
  opts.cms_width = 256;
  const sim::DeviceProps props = sim::DeviceProps::TitanV();
  uint8_t want_flag = 7, got_flag = 7;
  ExpectSameAsReference(
      "hub", g, variant,
      [&](const auto& view) {
        return ref::HighDegreeBlockKernel(props, nullptr, view, {0}, opts,
                                          &want_flag);
      },
      [&](const auto& view) {
        return RunHighDegreeBlockKernel(props, nullptr, view, {0}, opts,
                                        &got_flag);
      });
  EXPECT_EQ(want_flag, 1u);
  EXPECT_EQ(got_flag, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelReferenceTest, ::testing::Range(1, 7));

TEST(KernelAccountingTest, MapKernelStatsShape) {
  const auto s = MapKernelStats(1024, 4096, 4096);
  EXPECT_EQ(s.kernel_launches, 1u);
  EXPECT_EQ(s.global_transactions, 2u * 128);
  EXPECT_EQ(s.global_bytes_requested, 8192u);
  EXPECT_EQ(s.instructions, 2u * 32);
  EXPECT_DOUBLE_EQ(s.LaneUtilization(), 1.0);
}

TEST(KernelAccountingTest, HistogramChargesAtomics) {
  const auto s = HistogramKernelStats(1000);
  EXPECT_EQ(s.global_atomics, 1000u);
  EXPECT_GT(s.global_transactions, 1000u);
}

TEST(KernelAccountingTest, AccumulatorConcurrentVsSequential) {
  sim::CostModel cost(sim::DeviceProps::TitanV());
  GpuRunAccumulator a(&cost), b(&cost);
  sim::KernelStats s = MapKernelStats(1 << 20, 1 << 22, 1 << 22);
  // Sequential: times add. Concurrent: caller takes the max.
  a.AddLaunch(s);
  a.AddLaunch(s);
  const double t1 = b.AddLaunchConcurrent(s);
  const double t2 = b.AddLaunchConcurrent(s);
  b.AddSeconds(std::max(t1, t2));
  EXPECT_NEAR(a.seconds(), 2 * b.seconds(), 1e-12);
  EXPECT_EQ(a.total().global_transactions, b.total().global_transactions);
}

TEST(ThreadPerVertexTest, QuadraticCostVisibleInStats) {
  // Same total edges, different degree: higher degree -> superlinear local
  // traffic for thread-per-vertex.
  ClassicVariant variant;
  RunConfig cfg;

  auto run_with_degree = [&](int degree) {
    graph::GraphBuilder b(64 + degree);
    for (VertexId v = 0; v < 64; ++v) {
      for (int i = 0; i < degree; ++i) {
        b.AddEdgeUnchecked(64 + ((v + i) % degree), v);
      }
    }
    Graph g = b.Build(/*symmetrize=*/false, /*dedupe=*/false);
    variant.Init(g, cfg);
    std::vector<VertexId> targets;
    for (VertexId v = 0; v < 64; ++v) targets.push_back(v);
    auto view = DeviceView<ClassicVariant>::Of(g, variant);
    return RunThreadPerVertexKernel(sim::DeviceProps::TitanV(), nullptr, view,
                                    targets, 256);
  };

  const auto s8 = run_with_degree(8);
  const auto s24 = run_with_degree(24);
  // 3x the degree -> superlinear transactions and clearly quadratic
  // requested bytes (the O(d^2) local-memory rescans dominate).
  EXPECT_GT(s24.global_transactions, 3 * s8.global_transactions);
  EXPECT_GT(s24.global_bytes_requested, 5 * s8.global_bytes_requested);
}

}  // namespace
}  // namespace glp::lp
