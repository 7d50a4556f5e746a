// perfbench_harness — one run of one benchmark workload.
//
//   perfbench_harness --workload organic_warm --seed 1 --seconds 10
//                     --trace 0 --dir <scratch dir>
//
// Drives the public serving APIs (serve::MakeServer / serve::Server,
// serve::net::IngestService + HttpClient, pipeline::DetectOnSnapshot) over
// a seeded synthetic stream and prints one JSON object on the last line of
// stdout: {"correct", "attempted", "failed", "metrics", "meta"}. README.md
// beside this file defines every workload and metric; run.py builds this
// harness and turns its output into the benchmark's result line.
//
// A run is a sequence of rounds. Each round sets up from nothing (stream
// generation, server construction, Start, listener bind, WAL open), replays
// the whole stream, drains, and stops. Rounds repeat until --seconds of
// measurement have passed. Round-level metrics are medians over rounds;
// per-tick and per-batch latencies are pooled over rounds.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced rounds (flight recorder on), attributes each traced tick's
// wall time to layers from the spans the server already keeps, and then
// times the calls into each layer's public functions from outside on the
// same stream (graph window, union-find, pipeline, LP engines, wire codec,
// WAL, checkpoint).
//
// Correctness checks run outside the timed region; any mismatch prints
// "correct": false and exits 1.

#include <sys/resource.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "glp/factory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"
#include "pipeline/transactions.h"
#include "prof/prof.h"
#include "serve/incremental.h"
#include "serve/net/client.h"
#include "serve/net/ingest_service.h"
#include "serve/net/wire.h"
#include "serve/server.h"
#include "serve/wal.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace {

using namespace glp;
namespace fs = std::filesystem;

double Now() { return obs::MonotonicSeconds(); }

void SleepUntil(double t) {
  const double d = t - Now();
  if (d > 0) std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

// LP thread-pool size. With 1 the calling thread runs every parallel loop;
// larger pools made host timings follow thread wake-up latency (README.md).
// Simulated counters still vary with pool size; see sim.pool_txn_spread.
constexpr int kPoolThreads = 1;
constexpr int kLpIterations = 20;  // even: the incremental path needs it
// WAL group commit of the durable workload.
constexpr int kFsyncEveryBatches = 16;
constexpr double kFsyncIntervalMs = 5;

// ---------------------------------------------------------------------------
// Workloads

enum class Loop { kClosed, kOpen };

struct Workload {
  std::string name;
  int shards = 1;
  bool incremental = false;
  Loop loop = Loop::kClosed;
  /// Open loop: stream days offered per wall second.
  double rate_days_per_s = 0;
  /// Open loop: batches are cut at this many slices per stream day, and each
  /// is due when its slice has elapsed on the generator's clock.
  int slices_per_day = 4;
  /// Sliding-window length of every tick.
  int window_days = 30;
  /// Closed loop: edges per Ingest() call.
  size_t batch_edges = 500;
  /// Rounds every untraced run makes, however long they take. Seed-
  /// determined metrics (lp_device_s, confirmed_f1) use exactly these, so
  /// they repeat exactly for one seed.
  size_t min_rounds = 4;
  bool wire = false;  ///< POST over serve::net instead of in-process Ingest
  bool durable = false;  ///< WAL group commit + periodic checkpoints
};

bool LookupWorkload(const std::string& name, Workload* w) {
  w->name = name;
  if (name == "organic_warm") {
    w->shards = 1;
    w->incremental = false;  // warm starts, default periodic cold refresh
    w->loop = Loop::kClosed;
    w->batch_edges = 250;
    w->min_rounds = 7;
    return true;
  }
  if (name == "tenants_burst") {
    w->shards = 4;
    w->incremental = true;
    w->loop = Loop::kOpen;
    w->rate_days_per_s = 24;
    w->min_rounds = 10;
    return true;
  }
  if (name == "wire_durable") {
    w->shards = 1;
    w->incremental = true;
    w->loop = Loop::kOpen;
    w->rate_days_per_s = 6;
    // A one-week window keeps detection light, so the write side (wire
    // decode, admission, WAL, snapshots) carries a visible share of the load.
    w->window_days = 7;
    w->wire = true;
    w->durable = true;
    w->min_rounds = 8;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Streams. Every stream is a pure function of (workload, seed).

struct Stream {
  /// Canonically sorted edges plus the merged ground truth the server
  /// scores against (per-tenant rings re-indexed, ids and days offset).
  pipeline::TransactionStream truth;
  /// Per-tenant canonical edge lists (wire workload: one token per tenant).
  std::vector<std::vector<graph::TimedEdge>> tenant_edges;
};

/// Appends one tenant's stream to `out` with its entity ids shifted by the
/// entities already present and its times shifted by `day_shift`.
void MergeTenant(const pipeline::TransactionStream& s, double day_shift,
                 Stream* out) {
  pipeline::TransactionStream& t = out->truth;
  const graph::VertexId offset = static_cast<graph::VertexId>(t.ring_of.size());
  const int ring_offset = static_cast<int>(t.ring_span.size());
  std::vector<graph::TimedEdge> mine;
  mine.reserve(s.edges.size());
  for (const graph::TimedEdge& e : s.edges) {
    mine.push_back({e.src + offset, e.dst + offset, e.time + day_shift});
  }
  std::sort(mine.begin(), mine.end(), graph::CanonicalEdgeLess);
  t.edges.insert(t.edges.end(), mine.begin(), mine.end());
  for (int r : s.ring_of) t.ring_of.push_back(r < 0 ? -1 : r + ring_offset);
  for (const auto& [a, b] : s.ring_span) {
    t.ring_span.emplace_back(a + day_shift, b + day_shift);
  }
  for (graph::VertexId v : s.seeds) t.seeds.push_back(v + offset);
  out->tenant_edges.push_back(std::move(mine));
}

Stream MakeStream(const Workload& w, uint64_t seed) {
  Stream out;
  if (w.name == "organic_warm") {
    // One TaoBao-like organic stream: a giant component every tick.
    pipeline::TransactionConfig tc;
    tc.num_buyers = 6000;
    tc.num_items = 1250;
    tc.days = 36;
    tc.num_rings = 40;
    tc.seed = seed;
    MergeTenant(pipeline::GenerateTransactions(tc), 0, &out);
  } else if (w.name == "tenants_burst") {
    // 16 disjoint tenants, each active in one 3-day burst, 3 days apart:
    // most components are clean at any tick.
    for (int k = 0; k < 16; ++k) {
      pipeline::TransactionConfig tc;
      tc.num_buyers = 1500;
      tc.num_items = 400;
      tc.days = 3;
      tc.num_rings = 6;
      tc.min_ring_active_days = 2;
      tc.seed = seed * 1000003 + static_cast<uint64_t>(k);
      MergeTenant(pipeline::GenerateTransactions(tc), 3.0 * k, &out);
    }
  } else {
    // Zipf-sized tenants over the same days: tenant k carries ~1/(k+1) of
    // the head tenant's traffic.
    for (int k = 0; k < 12; ++k) {
      pipeline::TransactionConfig tc;
      tc.num_buyers = static_cast<uint32_t>(std::max(60, 600 / (k + 1)));
      tc.num_items = std::max<uint32_t>(20, tc.num_buyers / 4);
      tc.days = 16;
      tc.num_rings = std::max(2, 6 / (k + 1));
      tc.seed = seed * 7919 + static_cast<uint64_t>(k);
      MergeTenant(pipeline::GenerateTransactions(tc), 0, &out);
    }
  }
  pipeline::TransactionStream& t = out.truth;
  std::sort(t.edges.begin(), t.edges.end(), graph::CanonicalEdgeLess);
  t.config.num_buyers = static_cast<uint32_t>(t.ring_of.size());
  t.config.num_items = 0;
  t.config.seed = seed;
  return out;
}

serve::ServerConfig MakeConfig(const Workload& w, const Stream& s,
                               glp::ThreadPool* pool) {
  serve::ServerConfig cfg;
  cfg.detect.window_days = w.window_days;
  cfg.detect.engine = lp::EngineKind::kGlp;
  cfg.detect.lp.max_iterations = kLpIterations;
  cfg.detect.lp.stop_when_stable = true;
  cfg.seeds = s.truth.seeds;
  cfg.ground_truth = &s.truth;
  cfg.tick.every_days = 1.0;
  cfg.tick.warm_start = !w.incremental;
  cfg.tick.incremental = w.incremental;
  cfg.pool = pool;
  // Open-loop generators stay ahead of the drain by design; the queue must
  // hold one slice of every tenant so admission never sheds at the offered
  // rate.
  cfg.max_queue_batches = w.loop == Loop::kOpen ? 256 : 8;
  return cfg;
}

// ---------------------------------------------------------------------------
// Statistics helpers

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q * static_cast<double>(xs.size()));
  const size_t idx =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(xs.size())));
  return xs[idx - 1];
}
double Median(const std::vector<double>& xs) { return Quantile(xs, 0.5); }
double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// Hash of one tick's confirmed diff in canonical numbering: each cluster is
/// its sorted global member list, and the cluster lists are sorted too, so
/// shard count and cluster order do not matter.
uint64_t DiffDigest(uint64_t h, const serve::TickResult& t) {
  uint64_t bits = 0;
  std::memcpy(&bits, &t.window_end, sizeof(bits));
  h = Fnv(h, bits);
  for (const auto* list : {&t.new_confirmed, &t.expired_confirmed}) {
    std::vector<std::vector<graph::VertexId>> sorted = *list;
    for (auto& c : sorted) std::sort(c.begin(), c.end());
    std::sort(sorted.begin(), sorted.end());
    h = Fnv(h, sorted.size());
    for (const auto& c : sorted) {
      h = Fnv(h, c.size());
      for (graph::VertexId v : c) h = Fnv(h, v);
    }
  }
  return h;
}

uint64_t KernelStatsDigest(uint64_t h, const sim::KernelStats& k) {
  for (uint64_t v :
       {k.global_transactions, k.global_bytes_requested, k.global_atomics,
        k.global_atomic_conflicts, k.shared_accesses, k.shared_bank_conflicts,
        k.shared_atomics, k.instructions, k.intrinsic_ops, k.block_reduces,
        k.block_syncs, k.active_lane_cycles, k.total_lane_cycles,
        k.kernel_launches, k.blocks_executed}) {
    h = Fnv(h, v);
  }
  return h;
}

uint64_t KernelStatsEvents(const sim::KernelStats& k) {
  return k.global_transactions + k.global_atomics + k.shared_accesses +
         k.shared_atomics + k.instructions + k.intrinsic_ops +
         k.block_reduces + k.block_syncs + k.kernel_launches;
}

/// Resets the process's resident-set high-water mark (Linux clear_refs 5).
void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Resident-set high-water mark since the last ResetPeakRss(), in MiB.
double PeakRssMb() {
  double kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
    }
    std::fclose(f);
  }
  if (kib == 0) {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    kib = static_cast<double>(ru.ru_maxrss);
  }
  return kib / 1024.0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

// ---------------------------------------------------------------------------
// Span attribution of one traced tick

enum Layer { kGraph, kIncremental, kLp, kPipeline, kServe, kNumLayers };
const char* kLayerNames[kNumLayers] = {"graph", "incremental", "lp",
                                       "pipeline", "serve"};

int LayerOf(const std::string& span) {
  if (span == "pipeline.lp") return kLp;
  if (span == "serve.union_find" || span == "serve.components") {
    return kIncremental;
  }
  if (span == "serve.window_advance") return kGraph;
  if (span == "serve.detect" || span == "serve.owner_detect" ||
      span == "pipeline.extract") {
    return kPipeline;
  }
  if (span == "serve.tick" || span == "serve.queue_wait" ||
      span == "serve.window_append") {
    return -1;  // the tick itself, or work outside the tick interval
  }
  return kServe;
}

/// Length of the union of [a, b) intervals.
double UnionLength(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0, lo = 0, hi = -1;
  for (const auto& [a, b] : iv) {
    if (a > hi) {
      if (hi > lo) total += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi > lo) total += hi - lo;
  return total;
}

struct SpanTotals {
  int64_t ticks = 0;
  double tick_wall = 0;
  double layer[kNumLayers] = {};
  double unattributed = 0;
  double stitch = 0;
  double owner_detect = 0;

  void Add(const obs::TickTrace& t) {
    if (t.spans.empty()) return;
    const obs::Span& root = t.spans.front();
    const double r0 = root.start_seconds;
    const double r1 = r0 + root.duration_seconds;
    // Partition the tick interval: each instant goes to the highest-priority
    // layer with a span covering it (LP inside detect counts as LP), and
    // instants no span covers are unattributed.
    struct Piece {
      double a, b;
      int layer;
    };
    std::vector<Piece> pieces;
    std::vector<double> cuts = {r0, r1};
    std::vector<std::pair<double, double>> stitch_iv, owner_iv;
    for (const obs::Span& s : t.spans) {
      const int layer = LayerOf(s.name);
      if (layer < 0) continue;
      const double a = std::max(r0, s.start_seconds);
      const double b = std::min(r1, s.start_seconds + s.duration_seconds);
      if (b <= a) continue;
      pieces.push_back({a, b, layer});
      cuts.push_back(a);
      cuts.push_back(b);
      if (s.name == "serve.stitch") stitch_iv.emplace_back(a, b);
      if (s.name == "serve.owner_detect") owner_iv.emplace_back(a, b);
    }
    static constexpr int kPriority[kNumLayers] = {2, 3, 4, 1, 0};
    std::sort(cuts.begin(), cuts.end());
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      const double a = cuts[i], b = cuts[i + 1];
      if (b <= a) continue;
      int best = -1;
      for (const Piece& p : pieces) {
        if (p.a <= a && p.b >= b &&
            (best < 0 || kPriority[p.layer] > kPriority[best])) {
          best = p.layer;
        }
      }
      if (best < 0) {
        unattributed += b - a;
      } else {
        layer[best] += b - a;
      }
    }
    ++ticks;
    tick_wall += r1 - r0;
    stitch += UnionLength(stitch_iv);
    owner_detect += UnionLength(owner_iv);
  }
};

// ---------------------------------------------------------------------------
// One round: set up, replay the whole stream, drain, stop.

struct RoundOut {
  double setup_s = 0;
  double edges_per_s = 0;
  double drain_tail_s = 0;
  double lp_device_s = 0;
  double f1_mean = 0;
  double peak_rss_mb = 0;  ///< resident high-water mark of this round
  std::vector<double> tick_wall, freshness, ingest_ms, late_ms;
  std::vector<double> ingest_call_s, post_rtt_s;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t shed_429 = 0;
  uint64_t digest = kFnvBasis;
  serve::ServerStats stats;
  std::string error;  ///< non-empty: a correctness or serving failure
  // Traced rounds only.
  SpanTotals spans;
  double checkpoint_write_s = 0;
  double checkpoint_bytes = 0;
  double edge_skew = 1;
  double mirror_share = 0;
};

/// Index of the first edge at or after stream time `t`.
size_t FirstAtOrAfter(const std::vector<graph::TimedEdge>& edges, double t) {
  return static_cast<size_t>(
      std::lower_bound(edges.begin(), edges.end(), t,
                       [](const graph::TimedEdge& e, double v) {
                         return e.time < v;
                       }) -
      edges.begin());
}

/// Batches handed to the server, with the wall time each is due.
struct Batch {
  std::vector<graph::TimedEdge> edges;
  int tenant = 0;
  int64_t slice = 0;
};

/// Open-loop batches: every tenant's edges cut on the slice grid.
std::vector<Batch> SliceBatches(const Stream& s, int slices_per_day,
                                bool per_tenant) {
  std::vector<Batch> out;
  auto cut = [&](const std::vector<graph::TimedEdge>& edges, int tenant) {
    for (const graph::TimedEdge& e : edges) {
      const int64_t slice =
          static_cast<int64_t>(std::floor(e.time * slices_per_day));
      if (out.empty() || out.back().slice != slice ||
          out.back().tenant != tenant) {
        out.push_back({{}, tenant, slice});
      }
      out.back().edges.push_back(e);
    }
  };
  if (per_tenant) {
    for (size_t k = 0; k < s.tenant_edges.size(); ++k) {
      cut(s.tenant_edges[k], static_cast<int>(k));
    }
    std::stable_sort(out.begin(), out.end(), [](const Batch& a, const Batch& b) {
      return a.slice < b.slice;
    });
  } else {
    cut(s.truth.edges, 0);
  }
  return out;
}

struct RoundOptions {
  bool traced = false;
  bool cold_reference = false;  ///< 1 shard, cold ticks, closed loop
  bool plain_reference = false; ///< same mode, in process, closed loop
  std::string dir;
};

RoundOut RunRound(const Workload& wl, uint64_t seed, const RoundOptions& opt) {
  RoundOut out;
  ResetPeakRss();
  const double setup0 = Now();
  const Stream stream = MakeStream(wl, seed);
  glp::ThreadPool pool(kPoolThreads);
  Workload w = wl;
  if (opt.cold_reference || opt.plain_reference) {
    w.loop = Loop::kClosed;
    w.wire = false;
    w.durable = false;
    if (opt.cold_reference) {
      w.shards = 1;
      w.incremental = false;
    }
  }
  serve::ServerConfig cfg = MakeConfig(w, stream, &pool);
  if (opt.cold_reference) cfg.tick.warm_start = false;
  const std::string wal_dir = opt.dir + "/wal";
  const std::string ckpt_dir = opt.dir + "/ckpt";
  if (w.durable) {
    ResetDir(wal_dir);
    cfg.durability.dir = wal_dir;
    cfg.durability.fsync_every_batches = kFsyncEveryBatches;
    cfg.durability.fsync_interval_ms = kFsyncIntervalMs;
  }
  if (w.durable || opt.traced) {
    ResetDir(ckpt_dir);
    cfg.checkpoint.dir = ckpt_dir;
    // Only the durable workload snapshots periodically; traced rounds of the
    // others time on-demand writes after the drain.
    cfg.checkpoint.every_ticks = w.durable ? 16 : (int64_t{1} << 40);
  }
  if (opt.traced) cfg.trace.recorder_ticks = 1 << 14;

  const std::vector<graph::TimedEdge>& edges = stream.truth.edges;
  const double wall_lead = 0.02;
  double wall0 = 0;  // open loop: wall time of stream day 0
  std::vector<double> closed_due;  // closed loop: due time per batch

  // Subscriber state: written on the detection thread, read after Stop().
  double last_publish = 0;
  double last_window_end = 0;
  double f1_sum = 0;
  int64_t ticks = 0;
  auto due_of_edge = [&](size_t idx) {
    if (w.loop == Loop::kOpen) return wall0 + edges[idx].time / w.rate_days_per_s;
    return closed_due[idx / w.batch_edges];
  };
  std::unique_ptr<serve::Server> server = serve::MakeServer(cfg, w.shards);
  server->Subscribe([&](const serve::TickResult& t) {
    const double now = Now();
    last_publish = now;
    last_window_end = t.window_end;
    ++ticks;
    out.tick_wall.push_back(t.tick_wall_seconds);
    out.lp_device_s += t.detection.lp.simulated_seconds;
    f1_sum += t.detection.confirmed_metrics.F1();
    out.digest = DiffDigest(out.digest, t);
    // Freshness: publish time minus the due time of the newest event inside
    // this tick's window.
    const size_t hi = FirstAtOrAfter(edges, t.window_end);
    if (hi > 0 && edges[hi - 1].time >= t.window_start) {
      out.freshness.push_back(now - due_of_edge(hi - 1));
    }
  });
  Status st = server->Start();
  if (!st.ok()) {
    out.error = "start: " + st.ToString();
    return out;
  }

  // Wire: one ingest service, at most nproc keep-alive connections.
  std::unique_ptr<serve::net::IngestService> service;
  std::vector<std::unique_ptr<serve::net::HttpClient>> clients;
  const int num_tenants = static_cast<int>(stream.tenant_edges.size());
  if (w.wire) {
    std::vector<serve::net::TenantPolicy> tenants;
    for (int k = 0; k < num_tenants; ++k) {
      tenants.push_back({"t" + std::to_string(k), "tok" + std::to_string(k),
                         0, 0});
    }
    service = std::make_unique<serve::net::IngestService>(server.get(),
                                                          std::move(tenants));
    if (!service->Start(0)) {
      out.error = "ingest service failed to bind";
      server->Stop();
      return out;
    }
    const int nconn = std::max(
        1, std::min<int>(num_tenants,
                         static_cast<int>(std::thread::hardware_concurrency())));
    for (int c = 0; c < nconn; ++c) {
      clients.push_back(std::make_unique<serve::net::HttpClient>());
      st = clients.back()->Connect(service->port());
      if (!st.ok()) {
        out.error = "connect: " + st.ToString();
        service->Stop();
        server->Stop();
        return out;
      }
    }
  }
  out.setup_s = Now() - setup0;

  // ---- Timed replay ----
  int64_t batches_attempted = 0, batches_failed = 0, accepted = 0;
  double first_send = 0;
  if (w.loop == Loop::kClosed) {
    const size_t n_batches = (edges.size() + w.batch_edges - 1) / w.batch_edges;
    closed_due.assign(n_batches, 0);
    first_send = Now();
    for (size_t b = 0; b < n_batches; ++b) {
      const size_t lo = b * w.batch_edges;
      const size_t hi = std::min(edges.size(), lo + w.batch_edges);
      std::vector<graph::TimedEdge> batch(edges.begin() + lo, edges.begin() + hi);
      const double due = Now();
      closed_due[b] = due;
      ++batches_attempted;
      const bool ok = server->Ingest(std::move(batch));
      const double done = Now();
      out.ingest_call_s.push_back(done - due);
      out.ingest_ms.push_back((done - due) * 1e3);
      if (ok) {
        ++accepted;
      } else {
        ++batches_failed;
      }
    }
  } else if (!w.wire) {
    const std::vector<Batch> batches = SliceBatches(stream, w.slices_per_day, false);
    wall0 = Now() + wall_lead;
    first_send = wall0;
    for (const Batch& b : batches) {
      const double due =
          wall0 + static_cast<double>(b.slice + 1) / w.slices_per_day /
                      w.rate_days_per_s;
      SleepUntil(due);
      const double call = Now();
      out.late_ms.push_back((call - due) * 1e3);
      ++batches_attempted;
      const bool ok = server->Ingest(b.edges);
      const double done = Now();
      out.ingest_call_s.push_back(done - call);
      out.ingest_ms.push_back((done - due) * 1e3);
      if (ok) {
        ++accepted;
      } else {
        ++batches_failed;
      }
    }
  } else {
    // Each connection serves the tenants k with k % nconn == c, POSTing each
    // slice when it is due; all connections meet at every tick boundary so
    // the server sees day d complete before any of day d + 1 (exact output).
    const std::vector<Batch> batches = SliceBatches(stream, w.slices_per_day, true);
    const int nconn = static_cast<int>(clients.size());
    const int64_t last_slice = batches.empty() ? 0 : batches.back().slice;
    std::barrier sync(nconn);
    struct ConnOut {
      std::vector<double> late_ms, post_rtt_s, ingest_ms;
      int64_t attempted = 0, accepted = 0, failed = 0, shed_429 = 0;
    };
    std::vector<ConnOut> per_conn(static_cast<size_t>(nconn));
    wall0 = Now() + wall_lead;
    first_send = wall0;
    std::vector<std::thread> threads;
    for (int c = 0; c < nconn; ++c) {
      threads.emplace_back([&, c] {
        serve::net::HttpClient& client = *clients[static_cast<size_t>(c)];
        ConnOut& mine = per_conn[static_cast<size_t>(c)];
        size_t pos = 0;
        for (int64_t slice = 0; slice <= last_slice; ++slice) {
          const double due = wall0 + static_cast<double>(slice + 1) /
                                         w.slices_per_day / w.rate_days_per_s;
          bool slept = false;
          for (; pos < batches.size() && batches[pos].slice == slice; ++pos) {
            const Batch& b = batches[pos];
            if (b.tenant % nconn != c) continue;
            if (!slept) {
              SleepUntil(due);
              mine.late_ms.push_back((Now() - due) * 1e3);
              slept = true;
            }
            const std::string token = "tok" + std::to_string(b.tenant);
            for (;;) {
              ++mine.attempted;
              const double p0 = Now();
              auto resp = client.PostBatch(b.edges, token);
              const double p1 = Now();
              if (resp.ok() && resp.value().status == 429) {
                ++mine.failed;
                ++mine.shed_429;
                const double wait =
                    std::clamp(resp.value().retry_after, 0.001, 0.05);
                std::this_thread::sleep_for(std::chrono::duration<double>(wait));
                continue;
              }
              if (!resp.ok() || resp.value().status != 200) {
                ++mine.failed;
                break;
              }
              mine.post_rtt_s.push_back(p1 - p0);
              mine.ingest_ms.push_back((p1 - due) * 1e3);
              ++mine.accepted;
              break;
            }
          }
          if ((slice + 1) % w.slices_per_day == 0 || slice == last_slice) {
            sync.arrive_and_wait();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const ConnOut& m : per_conn) {
      out.late_ms.insert(out.late_ms.end(), m.late_ms.begin(), m.late_ms.end());
      out.post_rtt_s.insert(out.post_rtt_s.end(), m.post_rtt_s.begin(),
                            m.post_rtt_s.end());
      out.ingest_ms.insert(out.ingest_ms.end(), m.ingest_ms.begin(),
                           m.ingest_ms.end());
      out.shed_429 += m.shed_429;
      accepted += m.accepted;
      batches_attempted += m.attempted;
      batches_failed += m.failed;
    }
  }
  server->Flush();
  out.stats = server->stats();
  // Drain tail: the last tick fires when the first event past its boundary
  // arrives; time from that event's due time to the tick's publish.
  const size_t trigger = FirstAtOrAfter(edges, last_window_end);
  if (ticks > 0 && trigger < edges.size()) {
    out.drain_tail_s = last_publish - due_of_edge(trigger);
  }
  out.edges_per_s =
      static_cast<double>(edges.size()) / (last_publish - first_send);

  if (w.durable && server->wal() != nullptr &&
      server->wal()->last_seq() != static_cast<uint64_t>(accepted)) {
    out.error = "WAL last_seq " + std::to_string(server->wal()->last_seq()) +
                " != accepted batches " + std::to_string(accepted);
  }
  if (opt.traced) {
    // On-demand snapshots timed from outside, after the drain.
    ResetDir(ckpt_dir);
    std::vector<double> writes;
    for (int i = 0; i < 3; ++i) {
      const double c0 = Now();
      st = server->WriteCheckpoint();
      writes.push_back(Now() - c0);
      if (i == 0) out.checkpoint_bytes = static_cast<double>(DirBytes(ckpt_dir));
      if (!st.ok()) out.error = "checkpoint: " + st.ToString();
    }
    out.checkpoint_write_s = Median(writes);
    if (const obs::FlightRecorder* rec = server->flight_recorder()) {
      for (const obs::TickTrace& t : rec->Snapshot()) out.spans.Add(t);
    }
    // Shard routing balance from the server's own counters.
    obs::MetricRegistry* reg = server->metrics();
    std::vector<double> routed;
    double mirrored = 0;
    for (int k = 0; k < w.shards && w.shards > 1; ++k) {
      const obs::Labels l = {{"shard", std::to_string(k)}};
      routed.push_back(static_cast<double>(
          reg->GetCounter("glp_serve_shard_edges_routed_total", "", l)->Value()));
      mirrored += static_cast<double>(
          reg->GetCounter("glp_serve_shard_edges_mirrored_total", "", l)->Value());
    }
    if (!routed.empty() && Mean(routed) > 0) {
      out.edge_skew = *std::max_element(routed.begin(), routed.end()) / Mean(routed);
      double total = 0;
      for (double r : routed) total += r;
      out.mirror_share = mirrored / total;
    }
  }
  if (service != nullptr) service->Stop();
  for (auto& c : clients) c->Close();
  server->Stop();
  if (!server->last_error().ok() && out.error.empty()) {
    out.error = "serving: " + server->last_error().ToString();
  }
  out.peak_rss_mb = PeakRssMb();
  out.f1_mean = ticks > 0 ? f1_sum / static_cast<double>(ticks) : 0;
  const int64_t tick_failures = out.stats.ticks_failed + out.stats.ticks_shed;
  out.attempted = batches_attempted + ticks + tick_failures;
  out.failed = batches_failed + tick_failures + out.stats.batches_rejected;
  return out;
}

// ---------------------------------------------------------------------------
// Layer replay: the same stream driven through each layer's public
// functions, timed from outside.

std::map<std::string, double> RunLayerReplay(const Workload& w, uint64_t seed, double budget_s,
                        glp::ThreadPool* pool, const std::string& dir) {
  std::map<std::string, double> m;
  const double start = Now();
  const Stream stream = MakeStream(w, seed);
  const std::vector<graph::TimedEdge>& edges = stream.truth.edges;
  serve::ServerConfig cfg = MakeConfig(w, stream, pool);

  // Batches as the workload cuts them.
  std::vector<Batch> batches;
  if (w.loop == Loop::kClosed) {
    for (size_t lo = 0; lo < edges.size(); lo += w.batch_edges) {
      const size_t hi = std::min(edges.size(), lo + w.batch_edges);
      // A batch belongs to the day of its first edge, so every edge before
      // a boundary is appended before that boundary's tick.
      batches.push_back(
          {std::vector<graph::TimedEdge>(edges.begin() + lo, edges.begin() + hi),
           0, static_cast<int64_t>(std::floor(edges[lo].time))});
    }
  } else {
    batches = SliceBatches(stream, w.slices_per_day, w.wire);
    // From here on a batch's `slice` is its stream day.
    for (Batch& b : batches) b.slice /= w.slices_per_day;
  }

  // serve.net: wire codec on every batch.
  std::vector<double> enc, dec;
  double net_bytes = 0;
  for (const Batch& b : batches) {
    const double e0 = Now();
    const std::string body = serve::net::EncodeBinaryBatch(b.edges);
    const double e1 = Now();
    auto decoded = serve::net::DecodeBinaryBatch(body);
    const double e2 = Now();
    if (!decoded.ok() || decoded.value().size() != b.edges.size()) {
      m["error.wire"] = 1;
    }
    enc.push_back(e1 - e0);
    dec.push_back(e2 - e1);
    net_bytes += static_cast<double>(body.size());
  }
  m["net.encode_s"] = Mean(enc);
  m["net.decode_s"] = Mean(dec);
  m["net.bytes"] = net_bytes;

  // serve.wal: the durable workload's group-commit options, one sync at
  // each day boundary.
  {
    const std::string wal_dir = dir + "/wal_layer";
    ResetDir(wal_dir);
    serve::wal::WalOptions wo;
    wo.fsync_every_batches = kFsyncEveryBatches;
    wo.fsync_interval_ms = kFsyncIntervalMs;
    auto wal = serve::wal::Wal::Open(wal_dir, wo);
    std::vector<double> app, syn;
    if (wal.ok()) {
      int64_t day = batches.empty() ? 0 : batches.front().slice;
      for (const Batch& b : batches) {
        if (b.slice != day) {
          const double s0 = Now();
          (void)wal.value()->Sync();
          syn.push_back(Now() - s0);
          day = b.slice;
        }
        const double a0 = Now();
        (void)wal.value()->Append(b.edges, 0);
        app.push_back(Now() - a0);
      }
      const serve::wal::WalStats ws = wal.value()->stats();
      m["wal.fsyncs"] = static_cast<double>(ws.fsyncs);
      m["wal.bytes"] = static_cast<double>(ws.bytes_appended);
    }
    m["wal.append_s"] = Mean(app);
    m["wal.sync_s"] = Mean(syn);
    ResetDir(wal_dir);
  }

  // graph + serve.incremental over every tick; pipeline + LP on sampled
  // ticks (full window, cold), while the budget lasts.
  graph::SlidingWindow window;
  graph::SlidingWindowCursor cursor(&window, w.window_days);
  serve::IncrementalTracker tracker;
  auto glp_engine = lp::MakeEngine(lp::EngineKind::kGlp, cfg.detect.variant,
                                   cfg.detect.variant_params,
                                   cfg.detect.glp_options, pool);
  auto seq_engine =
      lp::MakeEngine(lp::EngineKind::kSeq, cfg.detect.variant,
                     cfg.detect.variant_params, cfg.detect.glp_options, pool);
  prof::PhaseProfiler profiler;
  lp::RunContext ctx;
  ctx.pool = pool;
  ctx.profiler = &profiler;

  const int64_t first_day = batches.empty() ? 0 : batches.front().slice + 1;
  const int64_t last_day = batches.empty() ? 0 : batches.back().slice + 1;
  const int64_t n_ticks = std::max<int64_t>(1, last_day - first_day + 1);
  const int64_t sample_every = std::max<int64_t>(1, n_ticks / 8);
  std::vector<double> append_s, advance_s, delta_edges, win_edges, win_verts;
  std::vector<double> uf_s, dirty_share;
  std::vector<double> detect_s, extract_s, clusters, confirmed;
  std::vector<double> lp_host, lp_dev, lp_iters, seq_host, host_ns_per_txn;
  std::vector<double> txn, shared, launches;
  double phase_s[prof::kNumPhases] = {};
  uint64_t kdigest = kFnvBasis, kevents = 0;
  int64_t lp_runs = 0;
  size_t bpos = 0;
  bool pool_checked = false;
  for (int64_t end_day = first_day; end_day <= last_day; ++end_day) {
    double append = 0;
    for (; bpos < batches.size() && batches[bpos].slice < end_day; ++bpos) {
      std::vector<graph::TimedEdge> copy = batches[bpos].edges;
      const double a0 = Now();
      window.Append(std::move(copy));
      append += Now() - a0;
    }
    append_s.push_back(append);
    graph::WindowDelta delta;
    const double g0 = Now();
    const graph::WindowSnapshot& snap =
        cursor.AdvanceTo(static_cast<double>(end_day), &delta);
    advance_s.push_back(Now() - g0);
    delta_edges.push_back(static_cast<double>(
        (delta.appended_end - delta.appended_begin) +
        (delta.expired_end - delta.expired_begin)));
    win_edges.push_back(static_cast<double>(snap.graph.num_edges()));
    win_verts.push_back(static_cast<double>(snap.graph.num_vertices()));
    const double u0 = Now();
    if (delta.exact) {
      tracker.ApplyDelta(window.edges(), delta);
    } else {
      tracker.RebuildAll(window.edges(), cursor.lo(), cursor.hi());
    }
    uf_s.push_back(Now() - u0);
    if (snap.graph.num_vertices() > 0) {
      int64_t dirty = 0;
      for (graph::VertexId g : snap.local_to_global) dirty += tracker.IsDirty(g);
      dirty_share.push_back(static_cast<double>(dirty) /
                            static_cast<double>(snap.graph.num_vertices()));
    }
    const bool sample = (end_day - first_day) % sample_every == 0 &&
                        snap.graph.num_vertices() > 0 &&
                        (Now() - start < budget_s || lp_runs == 0);
    if (!sample) continue;

    const double window_start = static_cast<double>(end_day - w.window_days);
    const double d0 = Now();
    auto det = pipeline::DetectOnSnapshot(snap, cfg.detect, lp::RunContext{
                                              nullptr, pool},
                                          cfg.seeds, &stream.truth,
                                          window_start, end_day);
    detect_s.push_back(Now() - d0);
    if (det.ok()) {
      extract_s.push_back(det.value().extract_seconds);
      clusters.push_back(static_cast<double>(det.value().clusters.size()));
      int64_t conf = 0;
      for (const auto& c : det.value().clusters) conf += c.confirmed;
      confirmed.push_back(static_cast<double>(conf));
    }
    const double l0 = Now();
    auto run = glp_engine->Run(snap.graph, cfg.detect.lp, ctx);
    const double host = Now() - l0;
    if (run.ok()) {
      const lp::RunResult& r = run.value();
      lp_host.push_back(host);
      lp_dev.push_back(r.simulated_seconds);
      lp_iters.push_back(r.iterations);
      txn.push_back(static_cast<double>(r.stats.global_transactions));
      shared.push_back(static_cast<double>(r.stats.shared_accesses));
      launches.push_back(static_cast<double>(r.stats.kernel_launches));
      if (r.stats.global_transactions > 0) {
        host_ns_per_txn.push_back(host * 1e9 /
                                  static_cast<double>(r.stats.global_transactions));
      }
      kdigest = KernelStatsDigest(kdigest, r.stats);
      kevents += KernelStatsEvents(r.stats);
      for (int p = 0; p < prof::kNumPhases; ++p) {
        phase_s[p] += profiler.breakdown().phases[p].seconds;
      }
      ++lp_runs;
    }
    const double s0 = Now();
    (void)seq_engine->Run(snap.graph, cfg.detect.lp, lp::RunContext{});
    seq_host.push_back(Now() - s0);

    if (!pool_checked) {
      // The same LP run under other pool sizes: every simulated counter
      // should repeat exactly; the spread is what it is today.
      pool_checked = true;
      std::vector<double> txns = {txn.back()};
      for (int threads : {2, 4}) {
        glp::ThreadPool other(threads);
        auto engine = lp::MakeEngine(lp::EngineKind::kGlp, cfg.detect.variant,
                                     cfg.detect.variant_params,
                                     cfg.detect.glp_options, &other);
        lp::RunContext octx;
        octx.pool = &other;
        auto r = engine->Run(snap.graph, cfg.detect.lp, octx);
        if (r.ok()) {
          txns.push_back(static_cast<double>(r.value().stats.global_transactions));
        }
      }
      const double lo = *std::min_element(txns.begin(), txns.end());
      const double hi = *std::max_element(txns.begin(), txns.end());
      m["sim.pool_txn_spread"] = lo > 0 ? (hi - lo) / lo : 0;
    }
  }
  m["graph.append_s"] = Mean(append_s);
  m["graph.advance_s"] = Mean(advance_s);
  m["graph.delta_edges"] = Mean(delta_edges);
  m["graph.window_edges"] = Mean(win_edges);
  m["graph.window_vertices"] = Mean(win_verts);
  m["incremental.union_find_s"] = Mean(uf_s);
  m["incremental.dirty_share"] = Mean(dirty_share);
  m["pipeline.detect_s"] = Mean(detect_s);
  m["pipeline.extract_s"] = Mean(extract_s);
  m["pipeline.clusters"] = Mean(clusters);
  m["pipeline.confirmed"] = Mean(confirmed);
  m["lp.host_s"] = Mean(lp_host);
  m["lp.device_s"] = Mean(lp_dev);
  m["lp.host_per_device"] = Mean(lp_dev) > 0 ? Mean(lp_host) / Mean(lp_dev) : 0;
  m["lp.iterations"] = Mean(lp_iters);
  m["lp.seq_host_s"] = Mean(seq_host);
  for (prof::Phase p : {prof::Phase::kPick, prof::Phase::kFrontier,
                        prof::Phase::kLowBin, prof::Phase::kMidBin,
                        prof::Phase::kHighBin, prof::Phase::kCommit}) {
    m[std::string("lp.phase.") + prof::PhaseName(p) + ".device_s"] =
        lp_runs > 0 ? phase_s[static_cast<int>(p)] / static_cast<double>(lp_runs)
                    : 0;
  }
  m["sim.global_txn"] = Mean(txn);
  m["sim.shared_accesses"] = Mean(shared);
  m["sim.launches"] = Mean(launches);
  m["sim.host_ns_per_txn"] = Mean(host_ns_per_txn);
  // 52 bits, so the digest survives a round trip through a JSON double.
  m["sim.kernel_digest"] = static_cast<double>(kdigest >> 12);
  m["sim.kernel_events"] = static_cast<double>(kevents);
  m["lp.sampled_ticks"] = static_cast<double>(lp_runs);
  return m;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir = ".bench_build/run";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (k == "--dir") {
      a->dir = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Workload w;
  if (!ParseArgs(argc, argv, &args) || !LookupWorkload(args.workload, &w)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload "
                 "organic_warm|tenants_burst|wire_durable --seed N "
                 "--seconds S --trace 0|1 --dir D\n");
    return 2;
  }
  ResetDir(args.dir);
  glp::ThreadPool pool(kPoolThreads);

  // ---- Timed rounds ----
  std::vector<RoundOut> rounds, traced_rounds;
  // Each round replays its own stream, derived from the seed, so round-level
  // medians average over several inputs. Traced mode pairs each traced
  // round with an untraced round on the same stream.
  auto round_seed = [&](int i) {
    return obs::MixId(args.seed * 0x9e3779b97f4a7c15ull +
                      static_cast<uint64_t>(args.trace ? i / 2 : i));
  };
  const double t0 = Now();
  for (int i = 0;; ++i) {
    const double elapsed = Now() - t0;
    const bool enough = args.trace ? (rounds.size() >= 1 && traced_rounds.size() >= 1)
                                   : rounds.size() >= w.min_rounds;
    const double budget = args.trace ? 0.6 * args.seconds : args.seconds;
    if (enough && elapsed >= budget) break;
    RoundOptions opt;
    opt.dir = args.dir;
    opt.traced = args.trace && (i % 2 == 1);
    RoundOut r = RunRound(w, round_seed(i), opt);
    std::fprintf(stderr,
                 "round %d%s: setup %.4fs ticks %zu tick_p50 %.5fs "
                 "edges/s %.0f drain %.4fs f1 %.4f\n",
                 i, opt.traced ? " (traced)" : "", r.setup_s, r.tick_wall.size(),
                 Median(r.tick_wall), r.edges_per_s, r.drain_tail_s, r.f1_mean);
    (opt.traced ? traced_rounds : rounds).push_back(std::move(r));
  }
  const double measured_s = Now() - t0;

  // ---- Correctness (outside the timed region) ----
  std::vector<std::string> errors;
  for (const auto* set : {&rounds, &traced_rounds}) {
    for (const RoundOut& r : *set) {
      if (!r.error.empty()) errors.push_back(r.error);
    }
  }
  for (size_t i = 0; i < traced_rounds.size(); ++i) {
    if (traced_rounds[i].digest != rounds[i].digest) {
      errors.push_back("traced output differs from untraced on one stream");
    }
  }
  // Round 0's stream once more: organic_warm repeats itself exactly,
  // tenants_burst must equal a 1-shard cold replay, wire_durable an
  // in-process replay in the same mode.
  const uint64_t digest = rounds.front().digest;
  RoundOptions ref_opt;
  ref_opt.dir = args.dir;
  ref_opt.cold_reference = w.name == "tenants_burst";
  ref_opt.plain_reference = w.name == "wire_durable";
  const RoundOut ref = RunRound(w, round_seed(0), ref_opt);
  const uint64_t reference_digest = ref.digest;
  if (!ref.error.empty()) errors.push_back("reference: " + ref.error);
  if (ref.digest != digest) {
    errors.push_back(ref_opt.cold_reference
                         ? "digest differs from a 1-shard cold replay"
                     : ref_opt.plain_reference
                         ? "digest differs from an in-process replay"
                         : "digest differs on a repeat of the same stream");
  }

  // ---- Aggregate ----
  std::vector<Metric> metrics;
  int64_t attempted = 0, failed = 0;
  auto pool_of = [](const std::vector<RoundOut>& rs,
                    std::vector<double> RoundOut::*field) {
    std::vector<double> all;
    for (const RoundOut& r : rs) {
      all.insert(all.end(), (r.*field).begin(), (r.*field).end());
    }
    return all;
  };
  auto median_of = [](const std::vector<RoundOut>& rs, double RoundOut::*field) {
    std::vector<double> xs;
    for (const RoundOut& r : rs) xs.push_back(r.*field);
    return Median(xs);
  };
  std::vector<RoundOut> all_rounds = rounds;
  all_rounds.insert(all_rounds.end(), traced_rounds.begin(), traced_rounds.end());
  for (const RoundOut& r : all_rounds) {
    attempted += r.attempted;
    failed += r.failed;
  }
  const std::vector<double> ticks = pool_of(rounds, &RoundOut::tick_wall);
  const std::vector<double> fresh = pool_of(rounds, &RoundOut::freshness);
  const std::vector<double> ingest = pool_of(rounds, &RoundOut::ingest_ms);
  // Medians are the median over rounds of each round's median, which keeps
  // a short slow spell of the host inside a run from shifting them; high
  // percentiles pool every round's samples.
  auto round_median = [&](std::vector<double> RoundOut::*field) {
    std::vector<double> xs;
    for (const RoundOut& r : rounds) {
      if (!(r.*field).empty()) xs.push_back(Median(r.*field));
    }
    return Median(xs);
  };
  const std::vector<RoundOut> seeded(
      rounds.begin(),
      rounds.begin() + static_cast<ptrdiff_t>(std::min(rounds.size(), w.min_rounds)));
  double f1_weighted = 0, f1_ticks = 0;
  for (const RoundOut& r : seeded) {
    f1_weighted += r.f1_mean * static_cast<double>(r.tick_wall.size());
    f1_ticks += static_cast<double>(r.tick_wall.size());
  }
  metrics = {
        {"setup_s", median_of(rounds, &RoundOut::setup_s), "s"},
        {"edges_per_s", median_of(rounds, &RoundOut::edges_per_s), "1/s"},
        {"tick_p50_s", round_median(&RoundOut::tick_wall), "s"},
        {"tick_p90_s", Quantile(ticks, 0.9), "s"},
        {"freshness_p50_s", round_median(&RoundOut::freshness), "s"},
        {"freshness_p90_s", Quantile(fresh, 0.9), "s"},
        {"ingest_p50_ms", round_median(&RoundOut::ingest_ms), "ms"},
        {"ingest_p99_ms", Quantile(ingest, 0.99), "ms"},
        {"drain_tail_s", median_of(rounds, &RoundOut::drain_tail_s), "s"},
        {"lp_device_s", median_of(seeded, &RoundOut::lp_device_s), "s"},
        {"confirmed_f1", f1_weighted / std::max(1.0, f1_ticks), "ratio"},
        {"peak_rss_mb", median_of(rounds, &RoundOut::peak_rss_mb), "MB"},
  };
  if (args.trace) {
    const std::map<std::string, double> layer =
        RunLayerReplay(w, round_seed(0), std::max(1.0, 0.3 * args.seconds), &pool,
                       args.dir);
    for (const auto& [name, value] : layer) {
      if (name.rfind("error.", 0) == 0) {
        errors.push_back("layer replay: " + name);
        continue;
      }
      std::string unit = "count";
      const size_t dot = name.rfind('.');
      const std::string suffix = name.substr(dot + 1);
      if (suffix.size() >= 2 && suffix.compare(suffix.size() - 2, 2, "_s") == 0) {
        unit = "s";
      } else if (name == "net.bytes" || name == "wal.bytes") {
        unit = "bytes";
      } else if (name == "sim.host_ns_per_txn") {
        unit = "ns";
      } else if (name == "incremental.dirty_share" ||
                 name == "lp.host_per_device" ||
                 name == "sim.pool_txn_spread") {
        unit = "ratio";
      }
      metrics.push_back({name, value, unit});
    }
    SpanTotals spans;
    for (const RoundOut& r : traced_rounds) {
      spans.ticks += r.spans.ticks;
      spans.tick_wall += r.spans.tick_wall;
      for (int l = 0; l < kNumLayers; ++l) spans.layer[l] += r.spans.layer[l];
      spans.unattributed += r.spans.unattributed;
      spans.stitch += r.spans.stitch;
      spans.owner_detect += r.spans.owner_detect;
    }
    const double per_tick = spans.ticks > 0 ? 1.0 / spans.ticks : 0;
    const double wall = spans.tick_wall > 0 ? spans.tick_wall : 1;
    metrics.push_back({"attr.tick_wall_s", spans.tick_wall * per_tick, "s"});
    for (int l = 0; l < kNumLayers; ++l) {
      metrics.push_back({std::string("attr.") + kLayerNames[l] + "_share",
                         spans.layer[l] / wall, "ratio"});
    }
    metrics.push_back({"attr.unattributed_share", spans.unattributed / wall,
                       "ratio"});
    metrics.push_back({"attr.unattributed_s", spans.unattributed * per_tick, "s"});
    metrics.push_back({"shard.stitch_s", spans.stitch * per_tick, "s"});
    metrics.push_back({"shard.owner_detect_s", spans.owner_detect * per_tick, "s"});
    const std::vector<double> traced_ticks =
        pool_of(traced_rounds, &RoundOut::tick_wall);
    metrics.push_back({"obs.trace_overhead",
                       Quantile(traced_ticks, 0.5) / Quantile(ticks, 0.5) - 1,
                       "ratio"});
    std::vector<double> blocked, qpeak, reused, rebuilds;
    for (const RoundOut& r : all_rounds) {
      blocked.push_back(static_cast<double>(r.stats.ingest_blocked));
      qpeak.push_back(static_cast<double>(r.stats.queue_peak));
      reused.push_back(static_cast<double>(r.stats.reused_clusters));
      rebuilds.push_back(static_cast<double>(r.stats.incremental_rebuilds));
    }
    metrics.push_back({"serve.ingest_call_s",
                       Median(pool_of(all_rounds, &RoundOut::ingest_call_s)), "s"});
    metrics.push_back({"serve.ingest_blocked", Median(blocked), "count"});
    metrics.push_back({"serve.queue_peak", Median(qpeak), "count"});
    metrics.push_back({"incremental.reused_clusters", Median(reused), "count"});
    metrics.push_back({"incremental.rebuilds", Median(rebuilds), "count"});
    metrics.push_back({"shard.edge_skew",
                       median_of(traced_rounds, &RoundOut::edge_skew), "ratio"});
    metrics.push_back({"shard.mirror_share",
                       median_of(traced_rounds, &RoundOut::mirror_share), "ratio"});
    metrics.push_back({"net.post_rtt_s",
                       Median(pool_of(all_rounds, &RoundOut::post_rtt_s)), "s"});
    double shed = 0;
    for (const RoundOut& r : all_rounds) shed += static_cast<double>(r.shed_429);
    metrics.push_back({"net.shed_429", shed, "count"});
    metrics.push_back({"checkpoint.write_s",
                       median_of(traced_rounds, &RoundOut::checkpoint_write_s), "s"});
    metrics.push_back({"checkpoint.bytes",
                       median_of(traced_rounds, &RoundOut::checkpoint_bytes),
                       "bytes"});
    metrics.push_back({"load.late_p99_ms",
                       Quantile(pool_of(all_rounds, &RoundOut::late_ms), 0.99),
                       "ms"});
  }
  metrics.push_back({"failed_ratio",
                     attempted > 0 ? static_cast<double>(failed) / attempted : 0,
                     "ratio"});

  json::Writer jw;
  jw.BeginObject();
  jw.Key("correct").Bool(errors.empty());
  jw.Key("attempted").Int(attempted);
  jw.Key("failed").Int(failed);
  jw.Key("metrics").BeginObject();
  for (const Metric& mt : metrics) {
    jw.Key(mt.name).BeginObject();
    jw.Key("value").Double(mt.value);
    jw.Key("unit").String(mt.unit);
    jw.EndObject();
  }
  jw.EndObject();
  jw.Key("meta").BeginObject();
  jw.Key("workload").String(w.name);
  jw.Key("seed").Uint(args.seed);
  jw.Key("trace").Bool(args.trace);
  jw.Key("cores").Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
  jw.Key("build_type").String(PERFBENCH_BUILD_TYPE);
  jw.Key("compiler").String(std::string("g++ ") + __VERSION__);
  jw.Key("lp_pool_threads").Int(pool.num_threads());
  jw.Key("shards").Int(w.shards);
  jw.Key("rounds").Int(static_cast<int64_t>(rounds.size()));
  jw.Key("traced_rounds").Int(static_cast<int64_t>(traced_rounds.size()));
  jw.Key("measured_s").Double(measured_s);
  jw.Key("tick_samples").Int(static_cast<int64_t>(ticks.size()));
  jw.Key("freshness_samples").Int(static_cast<int64_t>(fresh.size()));
  jw.Key("ingest_samples").Int(static_cast<int64_t>(ingest.size()));
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  jw.Key("confirmed_digest").String(hex);
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(reference_digest));
  jw.Key("reference_digest").String(hex);
  jw.Key("errors").BeginArray();
  for (const std::string& e : errors) jw.String(e);
  jw.EndArray();
  jw.EndObject();
  jw.EndObject();
  std::printf("%s\n", jw.Take().c_str());
  std::fflush(stdout);
  ResetDir(args.dir);
  std::error_code ec;
  fs::remove_all(args.dir, ec);
  return errors.empty() ? 0 : 1;
}
