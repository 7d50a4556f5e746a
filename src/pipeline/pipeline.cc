#include "pipeline/pipeline.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "obs/kernel_export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace glp::pipeline {

using graph::Label;
using graph::VertexId;

namespace {

/// Per-engine failpoint name, so chaos schedules can fault one device class
/// (e.g. only the GPU engines) and leave the CPU fallback path healthy.
const char* EngineFailpointName(lp::EngineKind kind) {
  switch (kind) {
    case lp::EngineKind::kSeq: return "lp.engine.seq";
    case lp::EngineKind::kTg: return "lp.engine.tg";
    case lp::EngineKind::kLigra: return "lp.engine.ligra";
    case lp::EngineKind::kOmp: return "lp.engine.omp";
    case lp::EngineKind::kGSort: return "lp.engine.gsort";
    case lp::EngineKind::kGHash: return "lp.engine.ghash";
    case lp::EngineKind::kGlp: return "lp.engine.glp";
  }
  return "lp.engine.unknown";
}

}  // namespace

FraudDetectionPipeline::FraudDetectionPipeline(const TransactionStream* stream)
    : stream_(stream), window_(stream->edges) {}

Result<PipelineResult> DetectOnSnapshot(
    const graph::WindowSnapshot& snap, const PipelineConfig& config,
    const lp::RunContext& ctx, const std::vector<VertexId>& seeds,
    const TransactionStream* ground_truth, double window_start,
    double window_end, const DetectDelta* delta) {
  PipelineResult out;
  prof::PhaseProfiler* const profiler = ctx.profiler;
  out.window_vertices = snap.graph.num_vertices();
  out.window_edges = snap.graph.num_edges();
  if (snap.graph.num_vertices() == 0) {
    return Status::InvalidArgument("window contains no transactions");
  }
  const VertexId num_local = snap.graph.num_vertices();
  const bool incremental = delta != nullptr;
  if (incremental) {
    if (delta->dirty.size() != static_cast<size_t>(num_local) ||
        delta->clean_labels.size() != static_cast<size_t>(num_local)) {
      return Status::InvalidArgument(
          "DetectDelta arrays do not match the snapshot");
    }
    // Exactness preconditions (DESIGN.md §4.10). Per-component LP equals
    // whole-graph LP only when the dynamics are component-local and
    // equivariant under the monotone dirty-rank relabeling: no caller-
    // supplied initial labels, synchronous updates, no per-vertex-id
    // randomness (SLP's speaker draws hash the raw vertex id), and — under
    // stop_when_stable — an even iteration budget so a budget-exhausted
    // stop lands on the same period-2 phase as StabilityTracker's
    // even-commit stop.
    if (!config.lp.initial_labels.empty() || !config.lp.synchronous ||
        config.variant == lp::VariantKind::kSlp ||
        (config.lp.stop_when_stable && config.lp.max_iterations % 2 != 0)) {
      return Status::InvalidArgument(
          "incremental detection requires synchronous LP with default "
          "initialization, a non-SLP variant, and an even iteration budget "
          "under stop_when_stable");
    }
  }

  // The caller's tick trace (serve layer): stage spans parent to the
  // tick's detect span so the wire-to-publish tree crosses this boundary.
  const obs::SpanContext trace_parent{ctx.trace_id, ctx.trace_parent_span,
                                      ctx.trace_id != 0};

  // --- Stage 2: LP clustering ---
  GLP_FAILPOINT("pipeline.lp_dispatch");
  GLP_FAILPOINT(EngineFailpointName(config.engine));
  auto engine = lp::MakeEngine(config.engine, config.variant,
                               config.variant_params, config.glp_options,
                               ctx.pool);
  obs::ScopedSpan lp_span(ctx.trace_sink, trace_parent, "pipeline.lp");
  if (lp_span.active()) {
    lp_span.AddLabel("engine", engine->name());
    if (incremental) lp_span.AddLabel("incremental", "1");
  }
  glp::Timer lp_timer;
  const double lp_host_start = profiler != nullptr ? profiler->HostNow() : 0;
  lp::RunResult lp_run;
  if (!incremental) {
    auto lp_result = engine->Run(snap.graph, config.lp, ctx);
    if (!lp_result.ok()) return lp_result.status();
    lp_run = std::move(lp_result).value();
  } else {
    // LP over the dirty subgraph only. The dirty set is component-closed,
    // so every neighbor of a dirty vertex is dirty: copying the dirty
    // vertices' CSR rows with ids remapped through the dirty-rank
    // bijection yields the exact induced subgraph — same neighbor order,
    // no re-symmetrization — and the bijection is monotone, so the
    // subgraph run's labels are the whole-graph run's labels under the
    // same remap (un-done by the scatter below).
    std::vector<VertexId> sub_l2g;
    std::vector<VertexId> sub_of(num_local, 0);
    for (VertexId v = 0; v < num_local; ++v) {
      if (delta->dirty[v]) {
        sub_of[v] = static_cast<VertexId>(sub_l2g.size());
        sub_l2g.push_back(v);
      }
    }
    if (sub_l2g.empty()) {
      lp_run.labels = delta->clean_labels;
    } else {
      const VertexId num_sub = static_cast<VertexId>(sub_l2g.size());
      std::vector<graph::EdgeId> offsets(static_cast<size_t>(num_sub) + 1, 0);
      graph::EdgeId total = 0;
      for (VertexId s = 0; s < num_sub; ++s) {
        offsets[s] = total;
        total += snap.graph.degree(sub_l2g[s]);
      }
      offsets[num_sub] = total;
      const bool weighted = snap.graph.has_weights();
      std::vector<VertexId> neighbors;
      neighbors.reserve(total);
      std::vector<float> weights;
      if (weighted) weights.reserve(total);
      for (VertexId s = 0; s < num_sub; ++s) {
        const VertexId v = sub_l2g[s];
        const graph::EdgeId begin = snap.graph.offset(v);
        const auto nbrs = snap.graph.neighbors(v);
        for (size_t i = 0; i < nbrs.size(); ++i) {
          neighbors.push_back(sub_of[nbrs[i]]);
          if (weighted) {
            weights.push_back(snap.graph.edge_weight(
                begin + static_cast<graph::EdgeId>(i)));
          }
        }
      }
      graph::Graph sub =
          weighted ? graph::Graph(num_sub, std::move(offsets),
                                  std::move(neighbors), std::move(weights))
                   : graph::Graph(num_sub, std::move(offsets),
                                  std::move(neighbors));
      auto lp_result = engine->Run(sub, config.lp, ctx);
      if (!lp_result.ok()) return lp_result.status();
      lp_run = std::move(lp_result).value();
      std::vector<graph::Label> full = delta->clean_labels;
      for (VertexId s = 0; s < num_sub; ++s) {
        full[sub_l2g[s]] = sub_l2g[lp_run.labels[s]];
      }
      lp_run.labels = std::move(full);
    }
  }
  out.lp_wall_seconds = lp_timer.Seconds();
  if (lp_span.active()) {
    lp_span.AddLabel("iterations", std::to_string(lp_run.iterations));
    // The span's own duration is host wall time; device_s puts the
    // simulated device seconds of the same run beside it, and
    // replayed_share the fraction of LP host work items (warps of the low
    // and mid kernels, blocks of the high kernel) the host replayed.
    const double replayed = static_cast<double>(lp_run.host_blocks_replayed);
    const double items =
        static_cast<double>(lp_run.host_blocks_executed) + replayed;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", lp_run.simulated_seconds);
    lp_span.AddLabel("device_s", buf);
    std::snprintf(buf, sizeof(buf), "%.4f",
                  items > 0 ? replayed / items : 0.0);
    lp_span.AddLabel("replayed_share", buf);
  }
  lp_span.End();
  if (profiler != nullptr) {
    profiler->RecordHostEvent("lp-clustering", lp_host_start,
                              out.lp_wall_seconds);
  }
  out.lp = std::move(lp_run);
  out.lp_seconds = out.lp.simulated_seconds;
  if (ctx.metrics != nullptr) {
    // Whole-run hardware counters under kernel="all"; the per-phase split
    // (one series per kernel) when a profiler was attached.
    obs::ExportKernelStats(ctx.metrics, engine->name(), "all", out.lp.stats);
    obs::ExportPhaseBreakdown(ctx.metrics, engine->name(),
                              out.lp.phase_breakdown);
    ctx.metrics
        ->GetHistogram("glp_pipeline_stage_seconds",
                       "Wall time of one pipeline stage",
                       {{"stage", "lp"}})
        ->Observe(out.lp_wall_seconds);
  }

  // --- Stage 3: suspicious-cluster extraction + downstream scoring ---
  GLP_FAILPOINT("pipeline.extract");
  obs::ScopedSpan extract_span(ctx.trace_sink, trace_parent,
                               "pipeline.extract");
  glp::Timer extract_timer;
  const double extract_host_start =
      profiler != nullptr ? profiler->HostNow() : 0;

  // Seeds present in this window (local ids).
  std::unordered_set<VertexId> seed_globals(seeds.begin(), seeds.end());
  std::vector<uint8_t> is_seed_local(snap.graph.num_vertices(), 0);
  for (VertexId local = 0; local < snap.graph.num_vertices(); ++local) {
    if (seed_globals.count(snap.local_to_global[local])) {
      is_seed_local[local] = 1;
    }
  }

  // Group vertices by final label. Incremental ticks group only dirty
  // vertices: a label group is always contained in one component, so clean
  // components' clusters are exactly the `reused` records appended below.
  std::unordered_map<Label, std::vector<VertexId>> groups;
  for (VertexId local = 0; local < snap.graph.num_vertices(); ++local) {
    if (incremental && !delta->extract_all && delta->dirty[local] == 0) {
      continue;
    }
    groups[out.lp.labels[local]].push_back(local);
  }

  for (auto& [label, base_members] : groups) {
    if (base_members.size() > config.max_cluster_size ||
        base_members.size() < 2) {
      continue;
    }
    int seeds_in_group = 0;
    for (VertexId local : base_members) {
      seeds_in_group += is_seed_local[local];
    }
    if (seeds_in_group == 0) continue;

    // Expand with companion label groups: synchronous LP two-colors
    // bipartite clusters (buyers and items oscillate between a label pair),
    // so the ring's items sit in a sibling group most of this group's edges
    // point into. Merge any group receiving >= 30% of the outgoing edges,
    // subject to the same size cap.
    std::vector<VertexId> members = base_members;
    std::unordered_map<Label, double> out_edges;
    double total_out = 0;
    for (VertexId local : base_members) {
      const graph::EdgeId begin = snap.graph.offset(local);
      const auto neighbors = snap.graph.neighbors(local);
      for (size_t i = 0; i < neighbors.size(); ++i) {
        const double w =
            snap.graph.edge_weight(begin + static_cast<graph::EdgeId>(i));
        out_edges[out.lp.labels[neighbors[i]]] += w;
        total_out += w;
      }
    }
    for (const auto& [other_label, count] : out_edges) {
      if (other_label == label || total_out == 0) continue;
      if (count < 0.3 * total_out) continue;
      auto it = groups.find(other_label);
      if (it == groups.end() || it->second.size() > config.max_cluster_size) {
        continue;
      }
      members.insert(members.end(), it->second.begin(), it->second.end());
    }

    SuspiciousCluster cluster;
    cluster.label = label;
    // Count seeds over the *merged* membership: companion groups carry
    // seeds too (the items side of a two-colored bipartite ring), so the
    // base group's count alone undercounts.
    cluster.num_seeds = 0;
    for (VertexId local : members) {
      cluster.num_seeds += is_seed_local[local];
    }
    // Internal interaction count (each undirected edge appears twice in the
    // CSR; weighted graphs carry the purchase multiplicity as weights, so
    // multigraph and collapsed windows score identically).
    std::unordered_set<VertexId> member_set(members.begin(), members.end());
    double internal2 = 0;
    for (VertexId local : members) {
      const graph::EdgeId begin = snap.graph.offset(local);
      const auto neighbors = snap.graph.neighbors(local);
      for (size_t i = 0; i < neighbors.size(); ++i) {
        if (member_set.count(neighbors[i])) {
          internal2 += snap.graph.edge_weight(
              begin + static_cast<graph::EdgeId>(i));
        }
      }
    }
    cluster.internal_edges = static_cast<int64_t>(internal2 / 2);
    const double pairs =
        static_cast<double>(members.size()) * (members.size() - 1) / 2.0;
    // Window graphs are multigraphs (purchase multiplicity); density can
    // exceed 1.0 on heavily collusive clusters — cap for interpretability.
    cluster.density =
        pairs == 0 ? 0 : std::min(1.0, cluster.internal_edges / pairs);
    cluster.confirmed = cluster.density >= config.min_cluster_density;
    cluster.members.reserve(members.size());
    for (VertexId local : members) {
      cluster.members.push_back(snap.local_to_global[local]);
    }
    std::sort(cluster.members.begin(), cluster.members.end());
    out.clusters.push_back(std::move(cluster));
  }
  if (incremental && !delta->extract_all) {
    out.clusters.insert(out.clusters.end(), delta->reused.begin(),
                        delta->reused.end());
  }
  std::sort(out.clusters.begin(), out.clusters.end(),
            [](const SuspiciousCluster& a, const SuspiciousCluster& b) {
              return a.label < b.label;
            });
  // Mutual companion merges emit the same ring twice (A absorbs B and B
  // absorbs A, differing only in label): keep one record per member set —
  // the first after the label sort, i.e. the smallest label.
  {
    std::set<std::vector<VertexId>> seen;
    size_t kept = 0;
    for (size_t i = 0; i < out.clusters.size(); ++i) {
      if (!seen.insert(out.clusters[i].members).second) continue;
      if (kept != i) out.clusters[kept] = std::move(out.clusters[i]);
      ++kept;
    }
    out.clusters.resize(kept);
  }

  // --- Metrics against the injected ground truth, over window-active
  // entities. ---
  if (ground_truth != nullptr) {
    std::unordered_set<VertexId> detected_lp, detected_confirmed;
    for (const SuspiciousCluster& c : out.clusters) {
      for (VertexId g : c.members) {
        detected_lp.insert(g);
        if (c.confirmed) detected_confirmed.insert(g);
      }
    }
    // Ground truth for this window: ring members whose ring colluded inside
    // the window (a dormant ring leaves no signature to detect).
    auto score = [&](const std::unordered_set<VertexId>& detected) {
      DetectionMetrics m;
      for (VertexId local = 0; local < snap.graph.num_vertices(); ++local) {
        const VertexId g = snap.local_to_global[local];
        const bool fraud =
            ground_truth->IsFraudActiveIn(g, window_start, window_end);
        const bool hit = detected.count(g) > 0;
        if (fraud && hit) ++m.true_positives;
        if (!fraud && hit) ++m.false_positives;
        if (fraud && !hit) ++m.false_negatives;
      }
      return m;
    };
    out.lp_metrics = score(detected_lp);
    out.confirmed_metrics = score(detected_confirmed);
  }

  out.extract_seconds = extract_timer.Seconds();
  if (extract_span.active()) {
    extract_span.AddLabel("clusters", std::to_string(out.clusters.size()));
  }
  extract_span.End();
  if (profiler != nullptr) {
    profiler->RecordHostEvent("cluster-extract", extract_host_start,
                              out.extract_seconds);
  }
  if (ctx.metrics != nullptr) {
    ctx.metrics
        ->GetHistogram("glp_pipeline_stage_seconds",
                       "Wall time of one pipeline stage",
                       {{"stage", "extract"}})
        ->Observe(out.extract_seconds);
    ctx.metrics
        ->GetCounter("glp_pipeline_clusters_total",
                     "Suspicious clusters extracted", {{"kind", "all"}})
        ->Increment(out.clusters.size());
    uint64_t confirmed = 0;
    for (const SuspiciousCluster& c : out.clusters) confirmed += c.confirmed;
    ctx.metrics
        ->GetCounter("glp_pipeline_clusters_total",
                     "Suspicious clusters extracted", {{"kind", "confirmed"}})
        ->Increment(confirmed);
  }
  return out;
}

Result<PipelineResult> DetectOnSnapshot(
    const graph::WindowSnapshot& snap, const PipelineConfig& config,
    const lp::RunContext& ctx, const std::vector<VertexId>& seeds,
    const TransactionStream* ground_truth, double window_start,
    double window_end) {
  return DetectOnSnapshot(snap, config, ctx, seeds, ground_truth,
                          window_start, window_end, /*delta=*/nullptr);
}

Result<PipelineResult> FraudDetectionPipeline::Run(
    const PipelineConfig& config) const {
  return Run(config, lp::RunContext());
}

Result<PipelineResult> FraudDetectionPipeline::Run(
    const PipelineConfig& config, const lp::RunContext& ctx) const {
  prof::PhaseProfiler* const profiler = ctx.profiler;

  // --- Stage 1: sliding-window graph construction ---
  glp::Timer build_timer;
  const double build_host_start =
      profiler != nullptr ? profiler->HostNow() : 0;
  const double end = config.end_day < 0
                         ? stream_->config.days
                         : config.end_day;
  graph::SlidingWindow::Scratch scratch;
  const graph::WindowSnapshot snap =
      window_.Snapshot(end - config.window_days, end, &scratch,
                       config.collapse_window_graphs);
  const double build_seconds = build_timer.Seconds();
  if (profiler != nullptr) {
    profiler->RecordHostEvent("window-build", build_host_start,
                              build_seconds);
  }
  if (ctx.metrics != nullptr) {
    ctx.metrics
        ->GetHistogram("glp_pipeline_stage_seconds",
                       "Wall time of one pipeline stage",
                       {{"stage", "window_build"}})
        ->Observe(build_seconds);
  }

  auto result = DetectOnSnapshot(snap, config, ctx, stream_->seeds, stream_,
                                 end - config.window_days, end);
  if (!result.ok()) return result.status();
  PipelineResult out = std::move(result).value();
  out.build_seconds = build_seconds;
  return out;
}

}  // namespace glp::pipeline
