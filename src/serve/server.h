// glp::serve::Server — the streaming micro-batch fraud-detection server (the
// deployment shape of paper §5.4: the pipeline re-evaluated continuously as
// transactions arrive, rather than one-shot over a static stream), for any
// fleet of N >= 1 detection shards (DESIGN.md §4.6, §4.9).
//
// Entities are partitioned across N shards by a versioned
// pipeline::PartitionMap (the same assignment the distributed cost model
// prices). Each shard owns a partitioned SlidingWindow holding the edges
// whose *source* maps to it; an edge whose endpoints map to different
// shards is mirrored into both, so every shard sees its full local
// neighborhood — the boundary-mirroring scheme Gunrock-style multi-device
// frameworks use. The shard count is *elastic*: Resize() migrates the
// fleet to a new shape live (DESIGN.md §4.14), and checkpoints restore
// across shapes (an N-shard snapshot re-partitions onto M shards).
//
//   Ingest(batch) --route by PartitionOf--> bounded queue of routed batches
//                                             detection thread
//                                               per-shard Append
//                                               N > 1: fleet union-find
//                                                 advanced by window deltas,
//                                                 component -> owner
//                                               per-owner detection
//                                               confirmed-cluster diff
//                                                 -> subscribers
//
// Why components, not raw subgraphs: label propagation on a shard's
// mirrored subgraph is NOT equivalent to global LP — labels keep crossing
// the boundary every iteration, and a one-hop halo cannot carry that. What
// *is* exactly decomposable is connectivity: labels never cross connected
// components, and per-component LP is order-isomorphic to the global run
// (local ids preserve canonical first-appearance order, so every MFL
// tie-break resolves identically). One persistent fleet-wide union-find
// (serve/incremental.h), fed every shard window's advance delta, keeps the
// global components — mirroring puts each cross-shard edge in both
// endpoint shards, so the shard windows together hold every global path.
// Whole components are assigned to owner shards (PartitionOf(min-entity))
// and detected in parallel. This is what makes the N-shard replay produce
// exactly the 1-shard confirmed clusters (up to cluster renumbering) on
// cold ticks.
//
// A one-shard fleet skips everything only N > 1 needs — no edge bucketing,
// and outside incremental mode no components: its single owner snapshots
// the window range directly and its PipelineResult is published as is
// (lp.labels kept, cluster labels not renumbered), so a 1-shard tick
// equals a one-shot pipeline run over the same window.
//
// Warm starts (TickPolicy::warm_start) use one entity-anchored semantics
// at every N: each entity resumes the label it had last tick, re-expressed
// as the snapshot-local id of that label's anchor entity when the anchor
// is in the same owner snapshot; everything else starts as a singleton.
//
// Contract highlights:
//  - Ticks fire on the absolute grid k * tick.every_days once ingested data
//    crosses a boundary; output is invariant to how the stream is cut into
//    batches (the network path leans on this for its exactness guarantee).
//  - Ingest() blocks on a full queue (backpressure); TryIngest() returns
//    kQueueFull instead, which the net frontend converts into 429 +
//    Retry-After (admission control never blocks a connection thread on a
//    queue it does not own).
//  - A fatal tick error kills the detection loop: running() flips false,
//    blocked producers wake with Ingest() == false, last_error() holds the
//    first failure.
//  - Resilience: the serve.* failpoints fire on the routed-ingest/append/
//    tick paths (ticks once per owner shard), each owner detection walks
//    the transient-retry ladder (retry -> drop warm -> fallback engine),
//    the deadline degradation ladder arms per tick, and checkpoints are
//    per-shard files sealed by a manifest so the fleet restores atomically
//    (serve/checkpoint.h).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "graph/sliding_window.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/partition.h"
#include "pipeline/pipeline.h"
#include "prof/prof.h"
#include "serve/config.h"
#include "serve/incremental.h"
#include "serve/wal.h"
#include "util/status.h"

namespace glp::serve {

/// Wire-to-publish context riding alongside one ingest batch (DESIGN.md
/// §4.12): the client's trace context from `traceparent`, the arrival
/// stamp the freshness SLO measures from, and the tenant the measurement
/// is attributed to. A default-constructed IngestContext (in-process
/// callers) is untraced and unstamped — no freshness is recorded for it.
struct IngestContext {
  obs::SpanContext trace;
  /// obs::MonotonicSeconds() at wire arrival; negative = unstamped.
  double arrival_seconds = -1;
  /// Label on glp_serve_freshness_seconds; empty renders as "default".
  std::string tenant;

  // Replication-internal (serve/net/replication.h). Nonzero wal_seq means
  // this batch already carries a primary-assigned WAL position: the
  // server's WAL appends it at exactly that sequence instead of assigning
  // a fresh one, suppresses it as a duplicate if already logged, and
  // rejects it when wal_epoch is behind the local fencing epoch (a
  // deposed primary's write). Normal ingest leaves all three zero.
  uint64_t wal_seq = 0;
  uint64_t wal_epoch = 0;
  /// Primary's wall clock at original append — feeds the standby's
  /// glp_serve_replica_lag_seconds gauge.
  double wal_wall_seconds = 0;
};

/// One detection tick's output, published to subscribers.
struct TickResult {
  int64_t tick = 0;
  double window_start = 0;
  double window_end = 0;
  /// Whether this tick's LP was warm-started from the previous tick (on
  /// N > 1 shards: every owner that ran kept its warm start).
  bool warm = false;

  /// Full pipeline output (clusters, metrics, LP cost accounting). On one
  /// shard this is the owner's result as is. On N > 1 shards it is the
  /// stitched aggregate: clusters carry globally renumbered labels (dense,
  /// assigned in sorted-member order) and lp.labels is empty (there is no
  /// global local-id space to express per-vertex labels in).
  pipeline::PipelineResult detection;

  /// Confirmed-cluster diff vs the previous tick, as sorted global-id
  /// member lists: clusters newly confirmed this tick, and previously
  /// confirmed clusters that disappeared.
  std::vector<std::vector<graph::VertexId>> new_confirmed;
  std::vector<std::vector<graph::VertexId>> expired_confirmed;

  /// Host wall-clock of the whole tick (window advance + LP + extraction).
  double tick_wall_seconds = 0;
  /// Newest ingested timestamp minus this window's end: how far detection
  /// trails the stream head.
  double ingest_lag_days = 0;

  /// The warm-start initial labels the tick's LP ran from, in the
  /// detection's local-id space (one-shard warm ticks only; empty on cold
  /// ticks and on N > 1 shards).
  std::vector<graph::Label> warm_labels;
};

/// Aggregate serving statistics — a point-in-time view assembled from the
/// server's metric registry (the registry is the source of truth; this
/// struct exists for programmatic consumers and the JSON dump).
struct ServerStats {
  int64_t ticks = 0;
  int64_t warm_ticks = 0;
  int64_t cold_ticks = 0;
  int64_t batches_ingested = 0;
  int64_t edges_ingested = 0;
  /// Times Ingest() had to block on a full queue.
  int64_t ingest_blocked = 0;
  size_t queue_peak = 0;

  // Resilience counters (see ResiliencePolicy).
  int64_t batches_rejected = 0;       ///< failed validation or injected fault
  int64_t ticks_shed = 0;             ///< overdue boundaries coalesced away
  int64_t degraded_ticks = 0;         ///< ran with the LP iteration cap
  int64_t deadline_overruns = 0;      ///< ticks exceeding the deadline
  int64_t tick_retries = 0;           ///< transient-failure retry attempts
  int64_t ticks_failed = 0;           ///< ticks abandoned after all retries
  int64_t engine_fallbacks = 0;       ///< retries on the fallback engine
  int64_t warm_fallbacks = 0;         ///< retries that dropped warm start
  int64_t cold_refresh_deferred = 0;  ///< refreshes postponed under pressure
  int64_t checkpoints_written = 0;
  int64_t checkpoint_failures = 0;

  // Fleet union-find (N > 1 shards or TickPolicy::incremental) and
  // incremental reuse.
  int64_t reused_clusters = 0;        ///< cluster records reused verbatim
  int64_t incremental_rebuilds = 0;   ///< ticks that rebuilt the union-find
  int64_t last_dirty_components = 0;  ///< dirty components, last tick

  double tick_p50_seconds = 0;
  double tick_p99_seconds = 0;
  double tick_max_seconds = 0;
  double warm_avg_iterations = 0;
  double cold_avg_iterations = 0;
  double last_ingest_lag_days = 0;

  std::string ToJson() const;
};

/// \brief Streaming detection server over N >= 1 shards.
///
/// Producers feed timestamped edge batches (Ingest/TryIngest, both
/// thread-safe); a detection thread appends them to the shard windows and
/// runs a detection tick at every tick.every_days boundary the data
/// crosses, publishing TickResults to subscribers in tick order. Batches
/// are expected in (approximate) time order; late edges are merged into
/// the stream but already-taken ticks are not re-run. Telemetry: the
/// glp_serve_* instruments behind ServerStats, plus per-shard
/// glp_serve_shard_* families labeled {shard="k"}.
class Server {
 public:
  using Subscriber = std::function<void(const TickResult&)>;

  /// What RestoreFromCheckpoint recovered — the replay contract: feed the
  /// canonically-sorted source stream starting at edge index num_edges.
  struct RestoreInfo {
    int64_t tick = 0;        ///< ticks already completed
    uint64_t num_edges = 0;  ///< edges already recovered (window + WAL replay)
    double max_time = 0;     ///< newest timestamp already ingested
    uint64_t wal_seq = 0;    ///< highest WAL sequence recovered (0 = no WAL)
    uint64_t wal_epoch = 0;  ///< fencing epoch after recovery (0 = no WAL)
  };

  /// How TryIngest resolved, in admission-ladder order.
  enum class Admit {
    kAccepted,   ///< batch enqueued
    kRejected,   ///< failed validation (or an armed ingest failpoint)
    kQueueFull,  ///< bounded queue at capacity — shed, retry later
    kStopped,    ///< server not running (stopped or dead)
  };

  /// `config` is the per-server configuration; detection, resilience, and
  /// checkpoint knobs apply fleet-wide. `num_shards` must be in [1, 256]
  /// (MakeServer validates it for callers that take it from outside).
  Server(ServerConfig config, int num_shards);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers a per-tick callback (invoked on the detection thread, in
  /// tick order). Must be called before Start().
  void Subscribe(Subscriber subscriber);

  /// Restores the fleet from the newest *complete* checkpoint in
  /// `path_or_dir` (or an explicit manifest/checkpoint path). All-or-
  /// nothing: a missing or corrupt shard file falls back to the previous
  /// complete set. Checkpoints are shape-portable: a snapshot taken on any
  /// fleet size — including a flat single-file checkpoint — restores here,
  /// re-partitioned under this fleet's map, and the WAL tail (batches
  /// after the snapshot) replays routed under the *current* map with
  /// seq-based duplicate suppression, so no edge is lost or duplicated
  /// across the re-route. Must be called before Start(). Replaying the
  /// stream's remaining edges afterwards produces tick output identical to
  /// an uninterrupted run. RestoreInfo::num_edges counts *global* stream
  /// edges (mirrors excluded).
  Result<RestoreInfo> RestoreFromCheckpoint(const std::string& path_or_dir);

  /// Launches the detection thread.
  Status Start();

  /// Validates and routes a batch to shard sub-batches, then enqueues the
  /// routed batch. Blocks while the queue is at max_queue_batches
  /// (backpressure). Returns false if the batch fails validation or the
  /// server is stopped/dead (batch dropped). `ctx` carries the batch's
  /// trace context and arrival stamp through the queue (and across shard
  /// sub-batch routing) to the tick that consumes it.
  bool Ingest(std::vector<graph::TimedEdge> batch, IngestContext ctx);
  bool Ingest(std::vector<graph::TimedEdge> batch) {
    return Ingest(std::move(batch), IngestContext{});
  }

  /// Non-blocking Ingest: a full queue returns kQueueFull immediately
  /// instead of waiting. The network frontend's admission path — a shed
  /// batch becomes 429 + Retry-After on the wire.
  Admit TryIngest(std::vector<graph::TimedEdge> batch, IngestContext ctx);
  Admit TryIngest(std::vector<graph::TimedEdge> batch) {
    return TryIngest(std::move(batch), IngestContext{});
  }

  /// Blocks until every ingested batch has been processed and all due
  /// ticks have run.
  void Flush();

  /// Stops the server: no further ingest, the in-flight LP run (if any) is
  /// cancelled through the RunContext stop token, the thread is joined.
  /// Call Flush() first for a graceful drain.
  void Stop();

  /// On-demand crash-consistent snapshot into checkpoint.dir, on top of
  /// the periodic every_ticks cadence. Thread-safe: while the server is
  /// running the write is handed to the detection thread (the caller
  /// blocks until it lands between batches); before Start() or after
  /// Stop() it runs inline. InvalidArgument without a checkpoint dir;
  /// Cancelled if the server stops or dies first.
  Status WriteCheckpoint();

  /// Live fleet resize (DESIGN.md §4.14): migrate detection state to
  /// `new_num_shards` shards without dropping a batch or breaking the
  /// subscriber diff stream. While the server is running the migration is
  /// handed to the detection thread (quiesce → re-partition → resume; the
  /// caller blocks until it commits or aborts); before Start() it runs
  /// inline, which is how an offline restore is re-shaped. Aborts —
  /// including the armed "serve.reshard" failpoint — happen before the
  /// commit point and leave the old shape fully intact; retry is always
  /// safe.
  Status Resize(int new_num_shards);

  /// First non-cancellation error a tick produced, if any. Transient
  /// errors absorbed by a successful retry are not recorded.
  Status last_error() const;

  /// True while the detection thread is serving: Start() succeeded, no
  /// Stop() yet, and no fatal error has killed the loop. Ingest() returns
  /// false exactly when this is false.
  bool running() const;

  ServerStats stats() const;

  /// The registry serving telemetry flows into: ServerConfig::metrics when
  /// supplied, else the server's private one. Valid for the server's
  /// lifetime; hand it to an obs::HttpEndpoint (or mount it on the ingest
  /// service) to watch the server live.
  obs::MetricRegistry* metrics() const { return registry_; }

  /// Live detection shard count.
  int num_shards() const {
    return num_shards_.load(std::memory_order_acquire);
  }

  /// The write-ahead log when DurabilityPolicy is enabled (opened by
  /// Start() or RestoreFromCheckpoint(), whichever runs first); null
  /// otherwise. The replication service reads frames from it and
  /// promotion bumps its fencing epoch.
  wal::Wal* wal() const { return wal_.get(); }

  /// Flight recorder holding the last trace.recorder_ticks complete
  /// per-tick span trees (the GET /debug/ticks payload and the
  /// chrome://tracing export source); null when the recorder is disabled.
  const obs::FlightRecorder* flight_recorder() const {
    return recorder_.get();
  }

 private:
  /// One ingest batch split into per-shard sub-batches (owned edges plus
  /// mirrored cross-shard copies). Carries the producer's IngestContext
  /// across the fan-out: the trace context and arrival stamp describe the
  /// whole wire batch, whichever shards its edges landed on.
  struct RoutedBatch {
    std::vector<std::vector<graph::TimedEdge>> parts;
    size_t global_edges = 0;  ///< pre-mirroring edge count
    /// Per-shard owned / mirrored-copy counts (telemetry).
    std::vector<uint64_t> routed;
    std::vector<uint64_t> mirrored;
    IngestContext ctx;
    double enqueue_seconds = 0;  ///< obs::MonotonicSeconds() at enqueue
    /// WAL sequence of the *pre-routing* global batch (0 = WAL disabled).
    /// The log stores the original wire batch; replay re-routes it, which
    /// reproduces the same parts deterministically.
    uint64_t wal_seq = 0;
    /// Version of the partition map that routed `parts`. Producers route
    /// outside the lock; if a live resize lands in between, the version
    /// mismatch under the lock triggers a re-route under the new map.
    uint64_t map_version = 0;
  };

  /// A batch awaiting its freshness measurement: retained from dequeue
  /// until a tick confirms a cluster touching one of its endpoints (or the
  /// pending list overflows).
  struct FreshnessMeta {
    std::string tenant;
    double arrival_seconds = 0;
    uint64_t trace_id = 0;  ///< exemplar link; 0 when unsampled
    std::vector<graph::VertexId> entities;  ///< sorted unique endpoints
  };

  /// How one tick boundary (or one owner's share of it) resolved.
  enum class TickOutcome { kOk, kAbandoned, kCancelled, kFatal };

  /// Epoch-stamped dense entity -> value map, reusable across ticks:
  /// Bump() forgets every entry in O(1).
  struct EntityMap {
    std::vector<uint32_t> epoch_of;
    std::vector<graph::VertexId> value_of;
    uint32_t epoch = 0;

    /// Grows to cover `universe` entities; growing forgets every entry, so
    /// call it only right before Bump().
    void EnsureUniverse(size_t universe);
    void Bump();
    bool Has(graph::VertexId g) const {
      return static_cast<size_t>(g) < epoch_of.size() && epoch_of[g] == epoch;
    }
    void Set(graph::VertexId g, graph::VertexId v) {
      epoch_of[g] = epoch;
      value_of[g] = v;
    }
  };

  /// Per-shard tick scratch: the window range and, on N > 1 shards, the
  /// edges bucketed by owner.
  struct ShardScratch {
    size_t lo = 0, hi = 0;
    /// Edges this shard contributes to each owner (src-owned copies only,
    /// canonical order within each bucket).
    std::vector<std::vector<graph::TimedEdge>> owner_buckets;
  };

  /// Per-owner tick workspace and results.
  struct OwnerWork {
    std::vector<graph::TimedEdge> edges;  ///< merged canonical order (N > 1)
    std::vector<graph::TimedEdge> merge_tmp;
    graph::SlidingWindow::Scratch scratch;
    graph::WindowSnapshot snap;
    pipeline::PipelineResult result;
    /// Initial labels of the successful warm attempt (one shard only).
    std::vector<graph::Label> warm_labels;
    Status status;
    TickOutcome outcome = TickOutcome::kOk;
    bool ran = false;   ///< detection produced a result this tick
    bool warm = false;  ///< the successful attempt was warm-started
    double snapshot_seconds = 0;
    double wall_seconds = 0;
    int64_t reused = 0;  ///< clusters reused verbatim (incremental delta)
  };

  /// Cluster-record cache from the last successful incremental tick; the
  /// label anchor is the record's label re-expressed as a portable entity.
  struct ClusterRecord {
    pipeline::SuspiciousCluster cluster;
    graph::VertexId label_anchor;  ///< owner-snapshot anchor entity
  };

  glp::ThreadPool* pool() const;
  /// Runs fn(k) for every shard k in [0, n): across the pool for N > 1,
  /// inline on the calling (detection) thread for one shard — which is
  /// what lets a one-shard owner use the single-threaded profiler.
  void ForEachShard(int n, const std::function<void(int)>& fn);
  void DetectLoop();
  /// Returns false when a fatal error must stop the detection loop.
  bool RunDueTicks();
  TickOutcome RunTick(double end_time);
  /// Scatters shard k's src-owned window edges into per-owner buckets.
  void BucketShardEdges(int k);
  /// Builds owner o's snapshot (one shard: the window range itself; N > 1:
  /// its merged buckets) with warm labels and incremental delta, and runs
  /// detection through the retry/degradation ladder. With `use_delta` set,
  /// builds a pipeline::DetectDelta from the tracker's exported dirty flags
  /// so LP runs only on this owner's dirty components.
  void RunOwnerDetection(int o, double window_start, double window_end,
                         bool degraded, bool warm_wanted, bool use_delta);
  /// N > 1 shards or incremental mode: advances every shard's range cursor
  /// and updates the fleet-wide union-find — by per-shard deltas when all
  /// are exact (and the serve.incremental_rebuild failpoint stays quiet), by
  /// a full multi-window rebuild otherwise. Sets shards_[k].{lo,hi},
  /// refreshes owner_of_ for dirty components and sets the per-shard
  /// components gauges. Returns whether the delta path ran.
  bool UpdateIncrementalTracker(double start_time, double end_time);
  /// Full owner_of_ recompute from the tracker (rebuild/restore paths):
  /// owner = pmap_->PartOf(component min entity).
  void RefreshOwnersFromTracker();
  /// Re-seats every shard range cursor at the last completed tick and
  /// rebuilds the fleet union-find from the windows with nothing dirty
  /// (restore and resize: the carried-over labels are authoritative).
  void RebuildIncrementalClean();
  /// max entity id + 1 across the shard windows (0 when all are empty).
  size_t Universe() const;
  /// Validates one ingest batch (timestamps finite and non-negative, ids in
  /// range) — see ResiliencePolicy::entity_id_limit.
  bool ValidBatch(const std::vector<graph::TimedEdge>& batch) const;
  /// Routes a validated batch into per-shard sub-batches under `map`
  /// (mirroring cross-shard edges); shared by Ingest, TryIngest, WAL
  /// replay, and migration re-routing. Reads `batch` without consuming it
  /// so a racing resize can re-route from the original.
  RoutedBatch RouteBatch(const std::vector<graph::TimedEdge>& batch,
                         const pipeline::PartitionMap& map) const;
  /// Routes outside the lock, then admits under it (re-routing if a resize
  /// landed meanwhile), appends to the WAL, and enqueues. `block` selects
  /// Ingest's backpressure wait over TryIngest's shed.
  Admit Enqueue(std::vector<graph::TimedEdge> batch, IngestContext ctx,
                bool block);
  /// The migration itself: quiesce point already reached (detection thread
  /// with an empty-or-owned queue, or pre-Start caller). Builds the target
  /// shape off to the side, then commits it under mu_ — any failure (or
  /// the "serve.reshard" failpoint) before that leaves the old shape
  /// untouched. Re-routes still-queued batches, rebuilds cursors/scratch/
  /// incremental tracker, re-registers per-shard instruments, and writes a
  /// fresh checkpoint of the new shape (the durable commit point).
  Status MigrateToShardCount(int target);
  /// Heat-driven automatic resize decision (ReshardPolicy), evaluated on
  /// the detection thread after successful ticks.
  void MaybeAutoReshard();
  /// Grows shard_ins_ (and the per-shard metric families) to cover n
  /// shards; gauges of shards beyond the live count are zeroed.
  void EnsureShardInstruments(int n);
  /// Sleeps the capped exponential backoff for `attempt`, polling the stop
  /// token; returns false if stopped meanwhile.
  bool Backoff(int attempt);
  /// Records a fatal tick error; DetectLoop exits and wakes producers.
  void RecordError(const Status& status);
  /// Builds and writes one fleet snapshot (detection-thread state; callers
  /// must guarantee the thread is quiescent or be the thread itself).
  Status DoWriteCheckpoint();
  /// Opens the WAL per DurabilityPolicy (idempotent; no-op when disabled).
  Status EnsureWalOpen();
  /// Appends the pre-routing global batch under mu_ (so sequence order
  /// matches queue order) and stamps rb->wal_seq. Returns kAlreadyExists
  /// for a replicated duplicate (caller acks without enqueueing) and any
  /// other failure to reject the batch — the log must contain exactly the
  /// batches the detection thread will consume.
  Status AppendToWalLocked(const std::vector<graph::TimedEdge>& batch,
                           const IngestContext& ctx, RoutedBatch* rb);
  /// Publishes the Wal's internal counters into the registry instruments.
  void PublishWalStats();
  /// Records the batch's queue-wait span (client trace context) and
  /// stashes its freshness metadata when the arrival stamp is present.
  void NoteBatchDequeued(const RoutedBatch& rb, double pop_seconds);
  /// Matches pending freshness entries against this tick's newly confirmed
  /// clusters and observes glp_serve_freshness_seconds per tenant (with
  /// the batch's trace exemplar).
  void ObserveFreshness(const TickResult& tr);
  /// Seals the current tick's trace: drains collected spans, prepends the
  /// root serve.tick span, records into the flight recorder, and dumps the
  /// tick JSON to the log when `dump` is set (deadline overrun, abandoned,
  /// fatal).
  void FinishTickTrace(int64_t tick, double window_end, const char* outcome,
                       double start_seconds, double wall_seconds, bool dump);
  obs::Histogram* FreshnessHistogram(const std::string& tenant);

  ServerConfig config_;
  /// Live shard count. Written only at construction and at a migration
  /// commit (under mu_); atomic so num_shards() and producer-side checks
  /// read it without the lock.
  std::atomic<int> num_shards_;
  /// The routing map (never null). Swapped only at a migration commit
  /// under mu_; producers snapshot the shared_ptr under mu_ and route
  /// outside it, the detection thread reads it freely (it is the only
  /// writer).
  std::shared_ptr<const pipeline::PartitionMap> pmap_;
  std::vector<Subscriber> subscribers_;

  // Detection-thread state (no locking: only that thread touches these).
  std::vector<graph::SlidingWindow> windows_;
  uint64_t global_edges_ = 0;  ///< stream edges appended (mirrors excluded)
  bool tick_schedule_primed_ = false;
  double next_tick_end_ = 0;
  int64_t num_ticks_ = 0;
  /// Wall time of the last completed tick — the deadline ladder's overload
  /// signal.
  double last_tick_wall_seconds_ = 0;
  /// A due cold refresh was postponed by the degradation ladder.
  bool refresh_pending_ = false;
  int64_t last_checkpoint_tick_ = -1;
  /// Highest WAL sequence consumed into the shard windows; fleet
  /// checkpoints record it, pruning runs against it.
  uint64_t consumed_wal_seq_ = 0;
  bool have_prev_ = false;
  /// Warm anchors: for each entity of the previous successful tick's
  /// snapshots, the entity whose snapshot-local id was its label. Bumped
  /// (forgotten) whenever a tick does not succeed.
  EntityMap warm_anchor_;
  std::set<std::vector<graph::VertexId>> prev_confirmed_;

  // Tick scratch (detection thread + pool workers during a tick).
  size_t universe_ = 0;  ///< max entity id + 1 across shards
  std::vector<ShardScratch> shards_;
  std::vector<OwnerWork> owners_;
  /// owner_of_[entity] — persistent across ticks for all in-window entities
  /// (refreshed for dirty components each tick); maintained whenever the
  /// fleet union-find is.
  std::vector<uint8_t> owner_of_;

  // Connectivity and incremental serving (DESIGN.md §4.9, §4.10): one
  // fleet-wide persistent union-find fed by per-shard window deltas, run on
  // every N > 1 tick and every incremental tick, plus — incremental mode
  // only — the carried-over label anchors and cluster-record cache that
  // make clean components free.
  std::vector<graph::WindowRangeCursor> range_cursors_;  ///< one per shard
  IncrementalTracker inc_tracker_;
  /// anchor_of_[entity] = the entity whose owner-snapshot local id was this
  /// entity's published label last tick.
  std::vector<graph::VertexId> anchor_of_;
  /// IsDirty snapshot for the current tick, exported before the owner
  /// fan-out so workers never race on the union-find.
  std::vector<uint8_t> entity_dirty_;
  /// Anchors are canonical — false after a degraded or abandoned tick, or
  /// an empty window; forces a full rebuild next tick.
  bool inc_reuse_ok_ = false;
  std::vector<ClusterRecord> records_;
  bool records_valid_ = false;
  /// Indices into records_ reusable this tick, bucketed by owner shard.
  std::vector<std::vector<size_t>> owner_records_;
  std::vector<graph::VertexId> comp_min_scratch_;

  // Shared state.
  mutable std::mutex mu_;
  std::condition_variable queue_cv_;     // signals the detection thread
  std::condition_variable not_full_cv_;  // signals blocked producers
  std::condition_variable drained_cv_;   // signals Flush
  std::deque<RoutedBatch> queue_;
  bool started_ = false;
  bool stopping_ = false;
  /// Detection thread died on a fatal error: producers are woken and
  /// rejected instead of blocking forever on a queue nobody drains.
  bool dead_ = false;
  bool busy_ = false;  // detection thread is processing a popped batch
  double ingested_max_time_ = 0;
  Status last_error_ = Status::OK();
  // On-demand checkpoint handshake (public WriteCheckpoint while running):
  // the caller raises the request and blocks; the detection thread services
  // it between batches and reports back through checkpoint_status_.
  bool checkpoint_requested_ = false;
  Status checkpoint_status_ = Status::OK();
  std::condition_variable checkpoint_done_cv_;
  // Live-resize handshake (same protocol as the checkpoint one): Resize()
  // parks the target count here, the detection thread migrates at its next
  // quiesce point (queue drained) and reports back.
  int resize_requested_ = 0;
  Status resize_status_ = Status::OK();
  std::condition_variable resize_done_cv_;
  /// Tick of the last automatic resize decision (cooldown anchor).
  int64_t last_reshard_tick_ = 0;

  // Telemetry: all counters/gauges live in the registry; the instrument
  // handles below are resolved once at construction and bumped lock-free
  // from whichever thread holds the event.
  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  obs::MetricRegistry* registry_ = nullptr;
  struct Instruments {
    obs::Histogram* tick_seconds;
    obs::Counter* warm_ticks;
    obs::Counter* cold_ticks;
    obs::Counter* warm_iterations;
    obs::Counter* cold_iterations;
    obs::Counter* batches_ingested;
    obs::Counter* edges_ingested;
    obs::Counter* ingest_blocked;
    obs::Gauge* queue_depth;
    obs::Gauge* queue_peak;
    obs::Gauge* ingest_lag_days;
    // Resilience.
    obs::Counter* batches_rejected_invalid;
    obs::Counter* batches_rejected_failpoint;
    obs::Counter* batches_dropped;
    obs::Counter* ticks_shed;
    obs::Counter* degraded_ticks;
    obs::Counter* deadline_overruns;
    obs::Counter* tick_retries;
    obs::Counter* ticks_failed;
    obs::Counter* engine_fallbacks;
    obs::Counter* warm_fallbacks;
    obs::Counter* cold_refresh_deferred;
    obs::Counter* checkpoints_ok;
    obs::Counter* checkpoints_failed;
    // Incremental serving.
    obs::Gauge* dirty_components;
    obs::Counter* reused_clusters;
    obs::Counter* incremental_rebuilds;
    // Durability (glp_serve_wal_*; created at construction even when the
    // WAL is off).
    obs::Counter* wal_appends_ok;
    obs::Counter* wal_appends_failed;
    obs::Counter* wal_duplicates;
    obs::Counter* wal_fenced;
    obs::Counter* wal_replayed_batches;
    obs::Counter* wal_pruned_segments;
    obs::Counter* wal_fsyncs;
    obs::Counter* wal_bytes;
    obs::Gauge* wal_last_seq;
    obs::Gauge* wal_epoch;
    obs::Gauge* wal_segments;
    // Elastic resharding (glp_serve_reshard_*).
    obs::Counter* reshards_ok;
    obs::Counter* reshards_aborted;  ///< pre-commit failure or failpoint
    obs::Gauge* num_shards_gauge;
    obs::Histogram* reshard_pause_seconds;  ///< migration quiesce-to-resume
  };
  Instruments ins_{};
  struct ShardInstruments {
    obs::Histogram* tick_seconds;   ///< per-owner detection wall time
    obs::Counter* edges_routed;     ///< owned edges appended
    obs::Counter* edges_mirrored;   ///< mirrored copies appended
    obs::Gauge* window_edges;       ///< shard window size (incl. mirrors)
    obs::Gauge* components_owned;   ///< components this shard detected
    /// In-window routed edges last tick (incl. mirrors) — the heat signal
    /// ReshardPolicy's automatic rebalance decision reads.
    obs::Gauge* inwindow_edges;
  };
  std::vector<ShardInstruments> shard_ins_;

  // Tracing + freshness SLO (TracePolicy; DESIGN.md §4.12). The sampler
  // mints tick trace ids; span_sink_ is mutex-guarded, so pool workers
  // (per-owner detection) append spans concurrently; tick_trace_ and
  // tick_root_span_ are written by the detection thread before the owner
  // fan-out and read-only inside it. All strictly observational: none of
  // these feed back into detection.
  obs::TraceSampler sampler_;
  obs::SpanSink span_sink_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  /// Root span id of the in-flight tick (0 outside RunTick).
  uint64_t tick_root_span_ = 0;
  /// The in-flight tick's trace context.
  obs::SpanContext tick_trace_;
  std::vector<FreshnessMeta> pending_freshness_;
  std::map<std::string, obs::Histogram*> freshness_hist_;
  /// Bound on retained unresolved freshness stamps (oldest dropped first).
  static constexpr size_t kMaxPendingFreshness = 4096;

  // Durability (DurabilityPolicy; DESIGN.md §4.13): one fleet-wide WAL of
  // pre-routing wire batches. The Wal is internally thread-safe; the
  // pointer is installed before Start() (EnsureWalOpen) and never
  // reassigned while the server runs.
  std::unique_ptr<wal::Wal> wal_;
  /// Cumulative WAL fsync/byte/prune counts already published to the
  /// registry (the registry counters are monotonic; these track deltas).
  uint64_t wal_published_fsyncs_ = 0;
  uint64_t wal_published_bytes_ = 0;
  uint64_t wal_published_pruned_ = 0;

  std::atomic<bool> stop_token_{false};
  std::thread thread_;
};

/// Constructs a Server over `num_shards` shards. Non-positive counts are a
/// caller bug and return nullptr (logged) — never a silently defaulted
/// 1-shard server.
std::unique_ptr<Server> MakeServer(ServerConfig config, int num_shards = 1);

}  // namespace glp::serve
