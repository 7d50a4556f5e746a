// serve::net::IngestService — the network front door of the serving layer
// (DESIGN.md §4.11).
//
// Wraps a serve::Server (any shard count) behind an HTTP/1.1 ingest API on
// obs::HttpServer:
//
//   POST /v1/ingest   batch body (binary or ndjson, see wire.h), bearer
//                     token per tenant. Admission ladder:
//                       401 unknown/missing token
//                       503 standby mode (hot standby; POST /v1/promote)
//                       400 empty/undecodable body, invalid edges
//                       503 server not running (degraded/dead, PR 4)
//                       429 + Retry-After rate-limited (global or tenant
//                           token bucket) or backpressure shed (TryIngest
//                           kQueueFull — the bounded queue stays the last
//                           line of defense)
//                       200 {"accepted":N}
//   GET  /v1/stats    ServerStats JSON
//   GET  /healthz     "ok" while running, 503 once degraded/dead
//   GET  /debug/ticks flight-recorder span trees ("{}" when disabled)
//   GET  /metrics,/statz  the usual registry routes, co-hosted
//
// A `traceparent` header on POST /v1/ingest continues the client's trace
// into the batch's IngestContext (DESIGN.md §4.12); every accepted batch is
// stamped with its wire-arrival time so the per-tenant freshness SLO
// (glp_serve_freshness_seconds) measures arrival -> confirmed publish.
//
// The connection thread never blocks on the ingest queue: admission uses
// TryIngest, so shed pressure surfaces as 429 within one request's
// round-trip. Exactness rides on the Server contract — tick output is
// invariant to batch partitioning — so batches POSTed in stream order
// reproduce in-process ingest byte-for-byte.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/http.h"
#include "serve/net/tenant.h"
#include "serve/server.h"
#include "util/status.h"

namespace glp::serve::net {

/// Formats a Retry-After header value: integral seconds on the wire,
/// rounded up (floored at 1) so a compliant client never comes back early
/// and gets throttled again.
std::string RetryAfterValue(double seconds);

class IngestService {
 public:
  struct Options {
    /// Largest accepted POST body (413 beyond).
    size_t max_batch_bytes = 1 << 20;
    /// Fleet-wide admission cap, edges/sec (0 = unlimited) + burst.
    double global_rate_edges_per_sec = 0;
    double global_burst_edges = 0;
    /// Concurrent connections the HTTP server carries.
    int max_connections = 128;
  };

  /// `server` not owned; must be Start()ed by the caller and outlive the
  /// service. Tenant QoS metrics land in server->metrics().
  IngestService(Server* server, std::vector<TenantPolicy> tenants);
  IngestService(Server* server, std::vector<TenantPolicy> tenants,
                Options options);
  ~IngestService();

  IngestService(const IngestService&) = delete;
  IngestService& operator=(const IngestService&) = delete;

  /// Binds 0.0.0.0:`port` (0 = ephemeral) and serves. False on bind error.
  bool Start(int port);
  void Stop();
  int port() const { return http_.port(); }

  TenantRegistry* tenants() { return &tenants_; }

  /// Standby mode: POST /v1/ingest answers 503 ("standby — not accepting
  /// writes") while set. A hot standby serves reads (/v1/stats, /metrics,
  /// /v1/wal) but only its WalTailer writes, until promotion clears this.
  void SetStandby(bool standby) {
    standby_.store(standby, std::memory_order_release);
  }
  bool standby() const { return standby_.load(std::memory_order_acquire); }

  /// Co-hosted route registration (e.g. a ReplicationService's /v1/wal and
  /// /v1/promote). Must run before Start() — the underlying HttpServer
  /// freezes its route table when it binds.
  obs::HttpServer* http() { return &http_; }

 private:
  obs::HttpResponse HandleIngest(const obs::HttpRequest& req);
  obs::HttpResponse HandleStats(const obs::HttpRequest& req);
  obs::HttpResponse HandleHealthz(const obs::HttpRequest& req);
  double NowSeconds() const;

  Server* server_;
  TenantRegistry tenants_;
  obs::HttpServer http_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> standby_{false};

  /// Stream head over accepted batches — the reference point for
  /// per-tenant ingest-lag attribution.
  std::mutex head_mu_;
  double stream_head_ = 0;
};

}  // namespace glp::serve::net
