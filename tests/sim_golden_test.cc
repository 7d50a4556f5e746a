// Determinism gates for the simulated cost model.
//
// SimDeterminismTest: one LP run must produce identical KernelStats (and
// labels) whatever the host thread-pool size and wherever the host heap
// places the engine's arrays — counts are priced in a device address space
// (sim/warp.h), never on host pointers.
//
// SimGoldenTest: a digest of every KernelStats field (plus labels and
// iteration counts) over a fixed matrix of graphs x engines x variants x GPU
// counts. Host-side speedups of the simulator must leave it byte-identical;
// a changed counter is a bug in the accounting, not a tradeoff. When a change
// deliberately re-prices the model, regenerate the constant from the digest
// this test prints and say why in the commit.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "glp/factory.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace glp::lp {
namespace {

using graph::Graph;

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<uint64_t> Fields(const sim::KernelStats& k) {
  return {k.global_transactions, k.global_bytes_requested, k.global_atomics,
          k.global_atomic_conflicts, k.shared_accesses, k.shared_bank_conflicts,
          k.shared_atomics, k.instructions, k.intrinsic_ops, k.block_reduces,
          k.block_syncs, k.active_lane_cycles, k.total_lane_cycles,
          k.kernel_launches, k.blocks_executed};
}

uint64_t Digest(const RunResult& r) {
  uint64_t h = kFnvBasis;
  for (uint64_t v : Fields(r.stats)) h = Fnv(h, v);
  h = Fnv(h, static_cast<uint64_t>(r.iterations));
  for (graph::Label l : r.labels) h = Fnv(h, l);
  return h;
}

/// Power-law graph: low, mid and high degree bins all populated.
Graph PowerLawGraph() {
  graph::ChungLuParams p;
  p.num_vertices = 3000;
  p.num_edges = 24000;
  p.exponent = 2.1;
  p.seed = 7;
  return graph::GenerateChungLu(p);
}

/// Weighted user-item multigraph (parallel edges collapsed to weights) with
/// Zipf item popularity: exercises the edge-weight gathers and hub vertices.
Graph WeightedBipartiteGraph() {
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

struct EngineConfig {
  std::string name;
  EngineKind kind;
  GlpOptions options;
};

std::vector<EngineConfig> GoldenEngines() {
  std::vector<EngineConfig> out;
  for (int gpus : {1, 2}) {
    const std::string suffix = "/gpus=" + std::to_string(gpus);
    GlpOptions glp;
    glp.num_gpus = gpus;
    out.push_back({"GLP" + suffix, EngineKind::kGlp, glp});
    GlpOptions smem = glp;
    smem.mode = GlpOptions::Mode::kSmem;
    out.push_back({"GLP-smem" + suffix, EngineKind::kGlp, smem});
    GlpOptions global = glp;
    global.mode = GlpOptions::Mode::kGlobal;
    out.push_back({"GLP-global" + suffix, EngineKind::kGlp, global});
    GlpOptions frontier = glp;
    frontier.use_frontier = true;
    out.push_back({"GLP+frontier" + suffix, EngineKind::kGlp, frontier});
    // A hash table far smaller than the hubs' label sets: labels spill to
    // the CMS and blocks take the exact global-hash-table fallback.
    GlpOptions tiny = glp;
    tiny.ht_capacity = 32;
    tiny.cms_width = 64;
    out.push_back({"GLP-tinyHT" + suffix, EngineKind::kGlp, tiny});
  }
  out.push_back({"G-Hash", EngineKind::kGHash, {}});
  out.push_back({"G-Sort", EngineKind::kGSort, {}});
  return out;
}

RunResult RunOnce(const Graph& g, EngineKind kind, VariantKind variant,
                  const GlpOptions& options, ThreadPool* pool) {
  auto engine = MakeEngine(kind, variant, {}, options, pool);
  RunConfig run;
  run.max_iterations = 6;
  run.seed = 5;
  RunContext ctx;
  ctx.pool = pool;
  auto r = engine->Run(g, run, ctx);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).ValueOrDie() : RunResult{};
}

void ExpectSameStats(const RunResult& want, const RunResult& got,
                     const std::string& what) {
  EXPECT_EQ(Fields(want.stats), Fields(got.stats))
      << what << "\nwant " << want.stats.ToString() << "\ngot  "
      << got.stats.ToString();
  EXPECT_EQ(want.labels, got.labels) << what;
  EXPECT_EQ(want.simulated_seconds, got.simulated_seconds) << what;
}

TEST(SimDeterminismTest, PoolSizeAndHeapPlacementDoNotChangeCounts) {
  const Graph g = PowerLawGraph();
  struct Case {
    std::string name;
    EngineKind kind;
    VariantKind variant;
    GlpOptions options;
  };
  GlpOptions two_gpus;
  two_gpus.num_gpus = 2;
  GlpOptions global;
  global.mode = GlpOptions::Mode::kGlobal;
  const std::vector<Case> cases = {
      {"GLP/classic", EngineKind::kGlp, VariantKind::kClassic, {}},
      {"GLP/llp/gpus=2", EngineKind::kGlp, VariantKind::kLlp, two_gpus},
      {"GLP-global/classic", EngineKind::kGlp, VariantKind::kClassic, global},
      {"G-Sort/classic", EngineKind::kGSort, VariantKind::kClassic, {}},
  };
  for (const Case& c : cases) {
    ThreadPool serial(1);
    const RunResult want = RunOnce(g, c.kind, c.variant, c.options, &serial);
    for (int threads : {1, 2, 4, 8}) {
      for (int pad_round = 0; pad_round < 3; ++pad_round) {
        // Live allocations of odd sizes shift where the engine's arrays
        // land on the host heap.
        std::vector<std::unique_ptr<char[]>> pads;
        for (int i = 0; i <= pad_round * 3; ++i) {
          pads.push_back(std::make_unique<char[]>(8 + 24 * i + 40 * pad_round));
        }
        ThreadPool pool(threads);
        const RunResult got = RunOnce(g, c.kind, c.variant, c.options, &pool);
        ExpectSameStats(want, got,
                        c.name + " threads=" + std::to_string(threads) +
                            " pad_round=" + std::to_string(pad_round));
      }
    }
  }
}

// Digest of the golden matrix below. Regenerate only for a deliberate
// re-pricing of the cost model (see the file comment).
constexpr uint64_t kGoldenDigest = 0x4c7147cdf67ab2d4ULL;

TEST(SimGoldenTest, KernelStatsDigestMatchesGolden) {
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"powerlaw", PowerLawGraph()}, {"weighted", WeightedBipartiteGraph()}};
  const std::vector<std::pair<std::string, VariantKind>> variants = {
      {"classic", VariantKind::kClassic},
      {"llp", VariantKind::kLlp},
      {"slp", VariantKind::kSlp},
      {"degree-weighted", VariantKind::kDegreeWeighted}};
  ThreadPool pool(4);
  uint64_t digest = kFnvBasis;
  std::string table;
  for (const auto& [gname, g] : graphs) {
    for (const EngineConfig& e : GoldenEngines()) {
      for (const auto& [vname, variant] : variants) {
        // G-Sort counts by run length: unit neighbor weights only.
        if (e.kind == EngineKind::kGSort &&
            (g.has_weights() || variant == VariantKind::kDegreeWeighted)) {
          continue;
        }
        const RunResult r = RunOnce(g, e.kind, variant, e.options, &pool);
        if (e.options.ht_capacity < 64) {
          EXPECT_GT(r.stats.global_atomics, 0u)
              << e.name << " never took the global-hash-table fallback";
        }
        const uint64_t d = Digest(r);
        digest = Fnv(digest, d);
        char line[160];
        std::snprintf(line, sizeof(line), "  %-9s %-18s %-16s %016llx\n",
                      gname.c_str(), e.name.c_str(), vname.c_str(),
                      static_cast<unsigned long long>(d));
        table += line;
      }
    }
  }
  EXPECT_EQ(digest, kGoldenDigest)
      << "KernelStats golden digest changed: got 0x" << std::hex << digest
      << std::dec << "\nper-run digests:\n"
      << table;
}

}  // namespace
}  // namespace glp::lp
