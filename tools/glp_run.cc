// glp_run — command-line LP driver: load or generate a graph, run any
// engine/variant combination, print a summary, optionally dump labels.
//
//   glp_run --dataset twitter --engine glp --variant llp --gamma 4 --iters 20
//   glp_run --graph edges.txt --engine omp --variant classic --async
//   glp_run --dataset aligraph --engine glp --mode global --out labels.txt
//
// The downstream entry point a data engineer would script against.

#include <cstdio>
#include <cstring>
#include <string>

#include "glp/autotune.h"
#include "glp/factory.h"
#include "graph/datasets.h"
#include "graph/io.h"
#include "pipeline/metrics.h"
#include "prof/prof.h"
#include "prof/trace.h"

namespace {

using namespace glp;

struct Args {
  std::string graph_path;
  std::string dataset;
  std::string engine = "glp";
  std::string variant = "classic";
  std::string mode = "smem+warp";
  std::string out_path;
  std::string trace_path;
  double scale = 1.0;
  double gamma = 1.0;
  int iterations = 20;
  int gpus = 1;
  uint64_t seed = 42;
  bool async = false;
  bool stop_when_stable = false;
  bool autotune = false;
  bool profile = false;
};

void Usage() {
  std::printf(
      "glp_run: GPU-accelerated label propagation (simulated device)\n\n"
      "input (one of):\n"
      "  --graph <file>      edge-list file ('u v' per line, # comments)\n"
      "  --dataset <name>    synthetic Table-2 analog: dblp roadNet youtube\n"
      "                      aligraph ljournal uk-2002 wiki-en twitter\n"
      "options:\n"
      "  --engine <e>        seq | tg | ligra | omp | gsort | ghash | glp\n"
      "  --variant <v>       classic | llp | slp | degree-weighted\n"
      "  --mode <m>          glp optimization level: global | smem | smem+warp\n"
      "  --gamma <f>         LLP gamma (default 1)\n"
      "  --iters <n>         iterations (default 20)\n"
      "  --gpus <n>          simulated GPUs for glp (default 1)\n"
      "  --scale <f>         dataset scale (default 1)\n"
      "  --seed <n>          RNG seed\n"
      "  --async             asynchronous updates (seq/omp engines)\n"
      "  --stable            stop when no label changes\n"
      "  --autotune          auto-size GLP kernel structures for the graph\n"
      "  --profile           print the per-phase time/counter breakdown\n"
      "  --trace-out <file>  write a chrome://tracing JSON timeline\n"
      "  --out <file>        write 'vertex label' lines\n");
}

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--graph")) {
      args->graph_path = next();
    } else if (!std::strcmp(argv[i], "--dataset")) {
      args->dataset = next();
    } else if (!std::strcmp(argv[i], "--engine")) {
      args->engine = next();
    } else if (!std::strcmp(argv[i], "--variant")) {
      args->variant = next();
    } else if (!std::strcmp(argv[i], "--mode")) {
      args->mode = next();
    } else if (!std::strcmp(argv[i], "--gamma")) {
      args->gamma = std::atof(next());
    } else if (!std::strcmp(argv[i], "--iters")) {
      args->iterations = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--gpus")) {
      args->gpus = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--scale")) {
      args->scale = std::atof(next());
    } else if (!std::strcmp(argv[i], "--seed")) {
      args->seed = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--out")) {
      args->out_path = next();
    } else if (!std::strcmp(argv[i], "--trace-out")) {
      args->trace_path = next();
    } else if (!std::strncmp(argv[i], "--trace-out=", 12)) {
      args->trace_path = argv[i] + 12;
    } else if (!std::strcmp(argv[i], "--profile")) {
      args->profile = true;
    } else if (!std::strcmp(argv[i], "--async")) {
      args->async = true;
    } else if (!std::strcmp(argv[i], "--stable")) {
      args->stop_when_stable = true;
    } else if (!std::strcmp(argv[i], "--autotune")) {
      args->autotune = true;
    } else if (!std::strcmp(argv[i], "--help")) {
      Usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  if (args->graph_path.empty() == args->dataset.empty()) {
    std::fprintf(stderr, "exactly one of --graph / --dataset is required\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) {
    Usage();
    return 2;
  }

  // --- Graph ---
  Result<graph::Graph> loaded =
      args.graph_path.empty()
          ? graph::MakeDataset(args.dataset, args.scale, args.seed)
          : graph::ReadEdgeListFile(args.graph_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "graph load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const graph::Graph g = std::move(loaded).value();
  std::printf("graph: %s\n", g.ToString().c_str());

  // --- Engine / variant selection ---
  lp::EngineKind engine;
  if (args.engine == "seq") {
    engine = lp::EngineKind::kSeq;
  } else if (args.engine == "tg") {
    engine = lp::EngineKind::kTg;
  } else if (args.engine == "ligra") {
    engine = lp::EngineKind::kLigra;
  } else if (args.engine == "omp") {
    engine = lp::EngineKind::kOmp;
  } else if (args.engine == "gsort") {
    engine = lp::EngineKind::kGSort;
  } else if (args.engine == "ghash") {
    engine = lp::EngineKind::kGHash;
  } else if (args.engine == "glp") {
    engine = lp::EngineKind::kGlp;
  } else {
    std::fprintf(stderr, "unknown engine: %s\n", args.engine.c_str());
    return 2;
  }

  lp::VariantKind variant;
  if (args.variant == "classic") {
    variant = lp::VariantKind::kClassic;
  } else if (args.variant == "llp") {
    variant = lp::VariantKind::kLlp;
  } else if (args.variant == "slp") {
    variant = lp::VariantKind::kSlp;
  } else if (args.variant == "degree-weighted") {
    variant = lp::VariantKind::kDegreeWeighted;
  } else {
    std::fprintf(stderr, "unknown variant: %s\n", args.variant.c_str());
    return 2;
  }

  lp::VariantParams params;
  params.llp_gamma = args.gamma;

  lp::GlpOptions options;
  if (args.mode == "global") {
    options.mode = lp::GlpOptions::Mode::kGlobal;
  } else if (args.mode == "smem") {
    options.mode = lp::GlpOptions::Mode::kSmem;
  } else if (args.mode == "smem+warp") {
    options.mode = lp::GlpOptions::Mode::kSmemWarp;
  } else {
    std::fprintf(stderr, "unknown mode: %s\n", args.mode.c_str());
    return 2;
  }
  options.num_gpus = args.gpus;
  if (args.autotune) {
    options = lp::AutoTune(g, sim::DeviceProps::TitanV(), options);
    std::printf("autotune: ht_capacity=%d cms=%dx%d\n", options.ht_capacity,
                options.cms_depth, options.cms_width);
  }

  // --- Run ---
  lp::RunConfig run;
  run.max_iterations = args.iterations;
  run.seed = args.seed;
  run.synchronous = !args.async;
  run.stop_when_stable = args.stop_when_stable;

  prof::PhaseProfiler profiler;
  prof::TraceRecorder trace;
  lp::RunContext ctx;
  const bool profiling = args.profile || !args.trace_path.empty();
  if (profiling) {
    if (!args.trace_path.empty()) profiler.AttachTrace(&trace);
    ctx.profiler = &profiler;
    if (args.async) {
      std::fprintf(stderr,
                   "note: --profile/--trace-out cover synchronous runs only; "
                   "async schedules are not instrumented\n");
    }
  }

  auto eng = lp::MakeEngine(engine, variant, params, options);
  auto result = eng->Run(g, run, ctx);
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const lp::RunResult& r = result.value();

  const auto clusters = pipeline::ClusterStats::Of(r.labels);
  std::printf("engine=%s variant=%s iterations=%d\n", eng->name().c_str(),
              args.variant.c_str(), r.iterations);
  std::printf("communities: %s\n", clusters.ToString().c_str());
  std::printf("time: %.3f ms (%.1f us/iter)%s; host wall %.3f ms\n",
              r.simulated_seconds * 1e3,
              r.AvgIterationSeconds() * 1e6,
              engine == lp::EngineKind::kGSort ||
                      engine == lp::EngineKind::kGHash ||
                      engine == lp::EngineKind::kGlp
                  ? " [simulated device]"
                  : "",
              r.wall_seconds * 1e3);
  if (r.stats.global_transactions > 0) {
    std::printf("device: %llu global transactions, lane utilization %.2f, "
                "%llu MB resident\n",
                static_cast<unsigned long long>(r.stats.global_transactions),
                r.stats.LaneUtilization(),
                static_cast<unsigned long long>(r.device_bytes >> 20));
  }
  if (r.host_blocks_replayed > 0) {
    std::printf("host: %llu LP warps/blocks simulated, %llu replayed "
                "(%.1f%%; low/mid warps, high blocks)\n",
                static_cast<unsigned long long>(r.host_blocks_executed),
                static_cast<unsigned long long>(r.host_blocks_replayed),
                100.0 * static_cast<double>(r.host_blocks_replayed) /
                    static_cast<double>(r.host_blocks_executed +
                                        r.host_blocks_replayed));
  }

  if (args.profile && r.phase_breakdown.enabled) {
    std::printf("\n%s", r.phase_breakdown.ToString().c_str());
  }
  if (!args.trace_path.empty()) {
    trace.SetCounters(r.phase_breakdown.ToJson());
    const Status st = trace.WriteFile(args.trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("trace written to %s (%zu events; open in chrome://tracing)\n",
                args.trace_path.c_str(), trace.num_events());
  }

  // --- Output ---
  if (!args.out_path.empty()) {
    FILE* f = std::fopen(args.out_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", args.out_path.c_str());
      return 1;
    }
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      std::fprintf(f, "%u %u\n", v, r.labels[v]);
    }
    std::fclose(f);
    std::printf("labels written to %s\n", args.out_path.c_str());
  }
  return 0;
}
