// serve::net replication — hot-standby WAL shipping over the shared
// HTTP/1.1 core (DESIGN.md §4.13).
//
// The primary registers a ReplicationService next to its IngestService:
//
//   GET  /v1/wal?from=SEQ[&wait_ms=T][&max_bytes=N]
//        Raw WAL frames (the exact on-disk encoding, see serve/wal.h)
//        starting at sequence `from`, capped at max_bytes. When no frame
//        at `from` exists yet the handler long-polls up to wait_ms before
//        answering with an empty body. Every response carries
//        X-Glp-Wal-Epoch and X-Glp-Wal-Last-Seq so a follower can detect
//        fencing and measure how far behind it is.
//   POST /v1/promote
//        Fires the owner's promote callback (standby: stop tailing, bump
//        the fencing epoch, open for writes). Idempotent on an
//        already-active server. Answers {"epoch": E}.
//
// The standby runs a WalTailer: a thread that GETs /v1/wal from the
// primary, applies each frame through the normal ingest path with its
// primary-assigned (seq, epoch) — the server's WAL dedupes replays and
// fences deposed primaries — and publishes glp_serve_replica_lag_seconds.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "obs/http.h"
#include "serve/server.h"
#include "serve/wal.h"
#include "util/status.h"

namespace glp::serve::net {

/// Content type of GET /v1/wal responses (raw frame bytes).
inline constexpr char kWalContentType[] = "application/x-glp-wal";

/// Serves a server's WAL to followers and exposes promotion. Stateless
/// beyond the two borrowed pointers; register it on the ingest service's
/// HttpServer (or any obs::HttpServer) before Start().
class ReplicationService {
 public:
  /// `wal` not owned, may be null (routes answer 503 until a WAL exists —
  /// the server opens it on Start()/Restore, before the HTTP port binds in
  /// every in-repo wiring). `on_promote` runs on the connection thread;
  /// it returns the post-promotion fencing epoch.
  ReplicationService(const wal::Wal* wal,
                     std::function<Result<uint64_t>()> on_promote);

  /// Registers GET /v1/wal and POST /v1/promote. Call before server Start.
  void Register(obs::HttpServer* http);

  /// Hard ceiling on one GET /v1/wal response body; `max_bytes` above it
  /// is clamped.
  static constexpr size_t kMaxResponseBytes = 8u << 20;

 private:
  obs::HttpResponse HandleWal(const obs::HttpRequest& req) const;
  obs::HttpResponse HandlePromote(const obs::HttpRequest& req) const;

  const wal::Wal* wal_;
  std::function<Result<uint64_t>()> on_promote_;
};

/// Pulls WAL frames from a primary and feeds them to a local (standby)
/// server. Owns one background thread between Start() and Stop().
class WalTailer {
 public:
  struct Options {
    int primary_port = 0;       ///< loopback port of the primary's service
    int poll_wait_ms = 200;     ///< server-side long-poll budget per GET
    size_t max_bytes = 1u << 20;  ///< per-GET frame byte cap
    double retry_backoff_seconds = 0.05;  ///< sleep after a failed GET
  };

  /// `server` not owned; must outlive the tailer and have a WAL (the
  /// applied frames carry primary-assigned sequence numbers).
  WalTailer(Server* server, Options options);
  ~WalTailer();

  WalTailer(const WalTailer&) = delete;
  WalTailer& operator=(const WalTailer&) = delete;

  /// Starts tailing at `from_seq + 1` with local fencing epoch `epoch`
  /// (both from RestoreInfo / wal()->last_seq()). No-op if running.
  void Start(uint64_t from_seq, uint64_t epoch);

  /// Stops the thread. Safe to call repeatedly, from the promote path.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Highest sequence applied to (or deduped by) the local server.
  uint64_t last_applied_seq() const {
    return last_applied_seq_.load(std::memory_order_acquire);
  }
  /// First terminal error (fencing, decode failure); OK while healthy.
  Status last_error() const;

 private:
  void Loop(uint64_t start_seq, uint64_t epoch);
  void RecordError(const Status& st);

  Server* server_;
  Options options_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> last_applied_seq_{0};
  std::mutex lifecycle_mu_;  ///< serializes Start/Stop (promote vs shutdown)
  std::thread thread_;

  mutable std::mutex err_mu_;
  Status last_error_;
};

}  // namespace glp::serve::net
