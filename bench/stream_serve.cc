// Streaming serving benchmark: the serve-path numbers no other bench takes.
//
// 1. The scaled TaoBao stream replayed cold (every window solved from
//    singleton labels), warm (previous tick's labels carried forward) and
//    warm with a weekly cold refresh. Warm ticks converge in a fraction of
//    the iterations, but pure warm slowly coarsens label granularity (warm
//    LP merges communities but never splits them); the AvgF1 column shows
//    that drift and what the refresh buys back.
// 2. A bursty 16-tenant stream replayed cold, warm and warm+incremental
//    (DESIGN.md §4.10): steady-state ticks where most components are clean.
// 3. 1/2/4-shard cold replays of a 16-tenant stream: per-tick device time,
//    the critical path across owner shards (DESIGN.md §4.9).
// 4. The migration pause of one live Resize() mid-replay (DESIGN.md §4.14).
//
// Every section replays through the same loop: canonical edges in
// 4000-edge batches into a serve::Server at a 1-day tick cadence. With
// --json-out [path] the results are also written as JSON (default
// BENCH_stream_serve.json) for the CI trajectory.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "serve/server.h"
#include "util/json.h"

namespace {

using namespace glp;

/// What one replay recorded, tick by tick.
struct Replay {
  serve::ServerStats stats;
  std::vector<double> wall;  // tick wall seconds, in tick order
  std::vector<double> sim;   // LP simulated (device) seconds per tick
  std::vector<double> f1;    // confirmed-cluster F1 per tick
  int64_t iterations = 0;
  double migration_pause_seconds = 0;  // wall time of the Resize() call

  double ticks() const { return static_cast<double>(wall.size()); }
  double AvgIterations() const {
    return wall.empty() ? 0 : static_cast<double>(iterations) / ticks();
  }
};

/// Sum of `xs[from..]`, in tick order.
double Sum(const std::vector<double>& xs, size_t from = 0) {
  double s = 0;
  for (size_t i = from; i < xs.size(); ++i) s += xs[i];
  return s;
}

/// Mean of the ticks from `from` on: steady-state averages need the tail
/// ticks alone, not run totals.
double SteadyAvg(const std::vector<double>& xs, size_t from) {
  return xs.size() <= from
             ? 0
             : Sum(xs, from) / static_cast<double>(xs.size() - from);
}

/// The setup every section shares: GLP (GPU cost-model) engine, 30-day
/// window, 1-day ticks, LP stopped once labels are stable.
serve::ServerConfig BaseConfig(const std::vector<graph::VertexId>& seeds,
                               int iterations) {
  serve::ServerConfig cfg;
  cfg.detect.window_days = 30;
  cfg.detect.engine = lp::EngineKind::kGlp;
  cfg.detect.lp.max_iterations = iterations;
  cfg.detect.lp.stop_when_stable = true;
  cfg.seeds = seeds;
  cfg.tick.every_days = 1.0;
  return cfg;
}

/// Replays `edges` (canonical order) through a `shards`-shard server. With
/// `resize_to` > 0 the server is resized to that many shards once half the
/// edges are in; the queue is drained first, so the pause measures the
/// migration itself, not the detection backlog in front of it.
Replay RunReplay(const serve::ServerConfig& cfg,
                 const std::vector<graph::TimedEdge>& edges, int shards,
                 int resize_to = 0) {
  Replay out;
  std::unique_ptr<serve::Server> server = serve::MakeServer(cfg, shards);
  server->Subscribe([&](const serve::TickResult& t) {
    out.wall.push_back(t.tick_wall_seconds);
    out.sim.push_back(t.detection.lp.simulated_seconds);
    out.f1.push_back(t.detection.confirmed_metrics.F1());
    out.iterations += t.detection.lp.iterations;
  });
  GLP_CHECK(server->Start().ok());
  const size_t batch_size = 4000;
  const size_t resize_at = resize_to > 0 ? edges.size() / 2 : edges.size();
  bool resized = false;
  for (size_t pos = 0; pos < edges.size(); pos += batch_size) {
    if (!resized && pos >= resize_at) {
      server->Flush();
      const auto t0 = std::chrono::steady_clock::now();
      GLP_CHECK(server->Resize(resize_to).ok());
      out.migration_pause_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      resized = true;
    }
    const size_t n = std::min(batch_size, edges.size() - pos);
    GLP_CHECK(server->Ingest(std::vector<graph::TimedEdge>(
        edges.begin() + static_cast<ptrdiff_t>(pos),
        edges.begin() + static_cast<ptrdiff_t>(pos + n))));
  }
  server->Flush();
  out.stats = server->stats();
  server->Stop();
  GLP_CHECK(server->last_error().ok()) << server->last_error().ToString();
  return out;
}

/// A multi-tenant stream: several independent regional streams unioned with
/// offset entity-id ranges. Shard scale-out parallelizes across connected
/// components, and one organic stream is dominated by a single giant
/// component (DESIGN.md §4.9), so the multi-tenant shape is the workload
/// where sharding pays, and the honest one to benchmark it on.
struct MultiTenantStream {
  std::vector<graph::TimedEdge> edges;  // canonical order
  std::vector<graph::VertexId> seeds;
};

/// `burst_days` > 0 compresses each tenant's activity into a burst of that
/// length, placed `stagger_days` apart: the bursty multi-tenant shape (most
/// tenants quiet at any tick) that the incremental serve path is built for.
/// 0 keeps every tenant continuously active over 40 days.
MultiTenantStream MakeMultiTenantStream(int tenants, double scale,
                                        uint64_t seed, int burst_days = 0,
                                        double stagger_days = 0) {
  MultiTenantStream out;
  graph::VertexId offset = 0;
  for (int t = 0; t < tenants; ++t) {
    pipeline::TransactionConfig tc;
    tc.num_buyers = static_cast<uint32_t>(2500 * scale);
    tc.num_items = static_cast<uint32_t>(700 * scale);
    tc.days = burst_days > 0 ? burst_days : 40;
    tc.num_rings = 8;
    tc.seed = seed + static_cast<uint64_t>(t) * 1000003;
    const auto s = pipeline::GenerateTransactions(tc);
    const double shift = burst_days > 0 ? stagger_days * t : 0;
    for (const graph::TimedEdge& e : s.edges) {
      out.edges.push_back({e.src + offset, e.dst + offset, e.time + shift});
    }
    for (graph::VertexId v : s.seeds) out.seeds.push_back(v + offset);
    offset += s.num_entities();
  }
  std::sort(out.edges.begin(), out.edges.end(), graph::CanonicalEdgeLess);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // --json-out [path] is stripped before BenchFlags parsing.
  std::string json_path;
  std::vector<char*> kept;
  kept.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--json-out")) {
      json_path = "BENCH_stream_serve.json";
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else if (!std::strncmp(argv[i], "--json-out=", 11)) {
      json_path = argv[i] + 11;
    } else {
      kept.push_back(argv[i]);
    }
  }
  const auto flags =
      bench::BenchFlags::Parse(static_cast<int>(kept.size()), kept.data());
  json::Writer w;
  w.BeginObject();
  w.Key("bench").String("stream_serve");
  w.Key("scale").Double(flags.scale);
  w.Key("iterations").Int(flags.iterations);

  // --- 1. TaoBao stream: cold vs warm vs warm with a weekly refresh ---
  const auto stream = pipeline::GenerateTransactions(
      bench::TaobaoStreamConfig(flags.scale, flags.seed));
  std::vector<graph::TimedEdge> taobao = stream.edges;
  std::sort(taobao.begin(), taobao.end(), graph::CanonicalEdgeLess);
  std::printf("=== TaoBao stream: warm-started ticks vs from-scratch "
              "(scale=%.2f) ===\n\n"
              "stream: %zu purchases over 100 days, 30-day window, "
              "1-day ticks\n\n",
              flags.scale, taobao.size());
  struct Mode {
    const char* name;
    bool warm;
    int64_t refresh;
  };
  const Mode modes[] = {
      {"cold", false, 0}, {"warm", true, 0}, {"warm+wk", true, 7}};
  bench::PrintHeader({"Mode", "Ticks", "AvgIters", "SimTime", "WallTime",
                      "Tick-p50", "Tick-p99", "AvgF1"});
  w.Key("taobao_modes").BeginObject();
  std::vector<Replay> taobao_runs;
  for (const Mode& m : modes) {
    serve::ServerConfig cfg = BaseConfig(stream.seeds, flags.iterations);
    cfg.ground_truth = &stream;
    cfg.tick.warm_start = m.warm;
    cfg.tick.cold_refresh_every_ticks = m.refresh;
    const Replay r = RunReplay(cfg, taobao, /*shards=*/1);
    const double avg_f1 = r.wall.empty() ? 0 : Sum(r.f1) / r.ticks();
    std::printf("%-12s%-12zu%-12.1f%-12s%-12s%-12s%-12s%-12.3f\n", m.name,
                r.wall.size(), r.AvgIterations(),
                bench::Duration(Sum(r.sim)).c_str(),
                bench::Duration(Sum(r.wall)).c_str(),
                bench::Duration(r.stats.tick_p50_seconds).c_str(),
                bench::Duration(r.stats.tick_p99_seconds).c_str(), avg_f1);
    w.Key(m.name).BeginObject();
    w.Key("ticks").Uint(r.wall.size());
    w.Key("avg_iterations").Double(r.AvgIterations());
    w.Key("simulated_seconds").Double(Sum(r.sim));
    w.Key("wall_seconds").Double(Sum(r.wall));
    w.Key("tick_p50_seconds").Double(r.stats.tick_p50_seconds);
    w.Key("tick_p99_seconds").Double(r.stats.tick_p99_seconds);
    w.Key("avg_f1").Double(avg_f1);
    w.EndObject();
    taobao_runs.push_back(r);
  }
  w.EndObject();
  const Replay& cold = taobao_runs[0];
  const Replay& warm = taobao_runs[1];
  std::printf(
      "\nwarm-start amortized speedup: %s simulated, %s wall\n"
      "(Every tick equals a one-shot pipeline run given the same initial "
      "labels;\n see tests/serve_test.cc.)\n",
      bench::Speedup(Sum(cold.sim), Sum(warm.sim)).c_str(),
      bench::Speedup(Sum(cold.wall), Sum(warm.wall)).c_str());

  // --- 2. Incremental serving: bursty 16-tenant stream (DESIGN.md §4.10) ---
  // Tenant activity arrives in staggered bursts, so at any steady-state tick
  // most tenants' components are untouched by the window advance. Warm-only
  // still runs LP over every window edge each tick; incremental runs LP on
  // the dirty components alone and reuses clean clusters verbatim (output
  // byte-identical to a cold replay; tests/serve_test.cc).
  const int even_iters = std::max(2, flags.iterations & ~1);
  const auto bursty = MakeMultiTenantStream(/*tenants=*/16, flags.scale,
                                            flags.seed, /*burst_days=*/3,
                                            /*stagger_days=*/6.0);
  std::printf(
      "\n=== Incremental serving: bursty 16-tenant stream (%zu edges, "
      "3-day bursts 6 days apart) ===\n\n",
      bursty.edges.size());
  struct IncMode {
    const char* name;
    const char* json_key;
    bool warm;
    bool incremental;
  };
  const IncMode inc_modes[] = {{"cold", "cold", false, false},
                               {"warm", "warm", true, false},
                               {"warm+incr", "warm_incremental", true, true}};
  // Steady state: the window is full and the incremental path is past its
  // first-tick rebuild.
  const size_t steady_from = 31;
  bench::PrintHeader({"Mode", "Ticks", "AvgIters", "SimTime", "WallTime",
                      "Steady-sim", "Steady-wall", "Reused"});
  w.Key("incremental_16tenant").BeginObject();
  std::vector<Replay> inc_runs;
  for (const IncMode& m : inc_modes) {
    serve::ServerConfig cfg = BaseConfig(bursty.seeds, even_iters);
    cfg.tick.warm_start = m.warm;
    cfg.tick.incremental = m.incremental;
    cfg.tick.cold_refresh_every_ticks = 0;  // pure modes: no weekly refresh
    const Replay r = RunReplay(cfg, bursty.edges, /*shards=*/1);
    std::printf("%-12s%-12zu%-12.1f%-12s%-12s%-12s%-12s%-12lld\n", m.name,
                r.wall.size(), r.AvgIterations(),
                bench::Duration(Sum(r.sim)).c_str(),
                bench::Duration(Sum(r.wall)).c_str(),
                bench::Duration(SteadyAvg(r.sim, steady_from)).c_str(),
                bench::Duration(SteadyAvg(r.wall, steady_from)).c_str(),
                static_cast<long long>(r.stats.reused_clusters));
    w.Key(m.json_key).BeginObject();
    w.Key("ticks").Uint(r.wall.size());
    w.Key("simulated_seconds").Double(Sum(r.sim));
    w.Key("wall_seconds").Double(Sum(r.wall));
    w.Key("steady_avg_simulated_seconds").Double(SteadyAvg(r.sim, steady_from));
    w.Key("steady_avg_wall_seconds").Double(SteadyAvg(r.wall, steady_from));
    w.Key("tick_p50_seconds").Double(r.stats.tick_p50_seconds);
    w.Key("tick_p99_seconds").Double(r.stats.tick_p99_seconds);
    w.Key("reused_clusters").Int(r.stats.reused_clusters);
    w.Key("last_dirty_components").Int(r.stats.last_dirty_components);
    w.EndObject();
    inc_runs.push_back(r);
  }
  const Replay& inc_warm = inc_runs[1];
  const Replay& inc_incr = inc_runs[2];
  const auto steady_ratio = [&](const std::vector<double>& base,
                                const std::vector<double>& t) {
    const double denom = SteadyAvg(t, steady_from);
    return denom > 0 ? SteadyAvg(base, steady_from) / denom : 0;
  };
  const double inc_sim_speedup = steady_ratio(inc_warm.sim, inc_incr.sim);
  const double inc_wall_speedup = steady_ratio(inc_warm.wall, inc_incr.wall);
  w.Key("steady_speedup_vs_warm_simulated").Double(inc_sim_speedup);
  w.Key("steady_speedup_vs_warm_wall").Double(inc_wall_speedup);
  w.EndObject();
  std::printf(
      "\nsteady-state incremental speedup vs warm-only: %.2fx simulated, "
      "%.2fx wall\n(LP touches dirty components only; %lld clusters reused "
      "verbatim across the replay,\n last tick had %lld dirty components. "
      "Same confirmed clusters as a cold replay.)\n",
      inc_sim_speedup, inc_wall_speedup,
      static_cast<long long>(inc_incr.stats.reused_clusters),
      static_cast<long long>(inc_incr.stats.last_dirty_components));

  // --- 3. Shard scale-out: N-shard servers over a multi-tenant stream ---
  // Each owner shard models its own device, and TickResult reports the
  // fleet's per-tick device time as the max over owners: the critical path
  // of the parallel detection fan-out. That simulated metric is the
  // scale-out signal; host wall time on a small-core box mostly measures
  // the serial replay harness. Ticks are cold, so every shard count does
  // identical LP work.
  const auto tenants = MakeMultiTenantStream(/*tenants=*/16, flags.scale,
                                             flags.seed);
  std::printf(
      "\n=== Shard scale-out: cold glp-engine ticks, 16-tenant stream "
      "(%zu edges) ===\n\n",
      tenants.edges.size());
  serve::ServerConfig shard_cfg = BaseConfig(tenants.seeds, flags.iterations);
  shard_cfg.tick.warm_start = false;
  bench::PrintHeader(
      {"Shards", "Ticks", "DeviceTime", "WallTime", "Tick-p50", "Speedup"});
  w.Key("shard_scaleout").BeginObject();
  double device_1shard = 0;
  for (const int shards : {1, 2, 4}) {
    const Replay r = RunReplay(shard_cfg, tenants.edges, shards);
    const double device = Sum(r.sim);
    if (shards == 1) device_1shard = device;
    std::printf("%-12d%-12zu%-12s%-12s%-12s%-12s\n", shards, r.wall.size(),
                bench::Duration(device).c_str(),
                bench::Duration(Sum(r.wall)).c_str(),
                bench::Duration(r.stats.tick_p50_seconds).c_str(),
                bench::Speedup(device_1shard, device).c_str());
    w.Key("shards_" + std::to_string(shards)).BeginObject();
    w.Key("ticks").Uint(r.wall.size());
    w.Key("device_seconds").Double(device);
    w.Key("wall_seconds").Double(Sum(r.wall));
    w.EndObject();
  }
  w.EndObject();
  std::printf(
      "\n(Components are detected in parallel across owner shards; an "
      "N-shard replay\n emits exactly the 1-shard confirmed clusters; see "
      "tests/shard_test.cc.)\n");

  // --- 4. Elastic resharding: one live Resize() halfway through ---
  std::printf(
      "\n=== Elastic resharding: one live resize mid-replay, 16-tenant "
      "stream (%zu edges) ===\n\n",
      tenants.edges.size());
  struct ReshardMode {
    const char* name;
    const char* json_key;
    int from;
    int to;
  };
  const ReshardMode reshard_modes[] = {{"grow 2->4", "grow_2_to_4", 2, 4},
                                       {"shrink 4->2", "shrink_4_to_2", 4, 2}};
  bench::PrintHeader({"Resize", "Pause"});
  w.Key("reshard").BeginObject();
  for (const ReshardMode& m : reshard_modes) {
    const Replay r = RunReplay(shard_cfg, tenants.edges, m.from, m.to);
    std::printf("%-12s%-12s\n", m.name,
                bench::Duration(r.migration_pause_seconds).c_str());
    w.Key(m.json_key).BeginObject();
    w.Key("from").Int(m.from);
    w.Key("to").Int(m.to);
    w.Key("migration_pause_seconds").Double(r.migration_pause_seconds);
    w.EndObject();
  }
  w.EndObject();
  std::printf(
      "\n(Pause = Resize() wall time: quiesce detection, re-partition "
      "windows/cursors/\n trackers under the bumped PartitionMap, resume. "
      "The post-resize replay emits\n exactly the uninterrupted confirmed "
      "clusters; see tests/reshard_test.cc.)\n");
  w.EndObject();

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    const std::string doc = w.Take() + "\n";
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
