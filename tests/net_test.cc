// serve::net tests: deterministic token-bucket/rate-window math, tenant
// spec parsing, wire codecs, the HTTP admission ladder over real sockets,
// Zipf load-shed fairness across tenants, and the end-to-end acceptance
// gate — networked ingest reproduces in-process ingest's confirmed-cluster
// diffs exactly, for 1 shard and N shards behind the same serve::Server
// interface.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pipeline/transactions.h"
#include "serve/net/client.h"
#include "serve/net/ingest_service.h"
#include "serve/net/tenant.h"
#include "serve/net/wire.h"
#include "serve/server.h"

namespace glp::serve::net {
namespace {

using graph::TimedEdge;
using graph::VertexId;

// --- TokenBucket: caller-supplied clock, so refill math is exact ---

TEST(TokenBucketTest, StartsFullAndDrains) {
  TokenBucket bucket(/*rate_per_sec=*/100, /*burst=*/50);
  double retry = 0;
  EXPECT_TRUE(bucket.TryAcquire(50, /*now=*/0.0, &retry));  // full burst
  EXPECT_FALSE(bucket.TryAcquire(1, 0.0, &retry));          // empty
  EXPECT_NEAR(retry, 1.0 / 100, 1e-9);  // 1 token refills in 1/rate sec
}

TEST(TokenBucketTest, RefillIsRateTimesElapsed) {
  TokenBucket bucket(/*rate_per_sec=*/10, /*burst=*/100);
  double retry = 0;
  ASSERT_TRUE(bucket.TryAcquire(100, 0.0, &retry));  // drain
  // 2.5s later exactly 25 tokens have refilled.
  EXPECT_FALSE(bucket.TryAcquire(26, 2.5, &retry));
  EXPECT_NEAR(retry, 0.1, 1e-9);  // 1 token short, 1/10 s away
  EXPECT_TRUE(bucket.TryAcquire(25, 2.5, &retry));
  EXPECT_NEAR(bucket.tokens(), 0.0, 1e-9);
}

TEST(TokenBucketTest, RefillCapsAtBurst) {
  TokenBucket bucket(/*rate_per_sec=*/1000, /*burst=*/10);
  double retry = 0;
  ASSERT_TRUE(bucket.TryAcquire(10, 0.0, &retry));
  // An hour of refill still caps at burst.
  EXPECT_FALSE(bucket.TryAcquire(11, 3600.0, &retry));
  EXPECT_TRUE(bucket.TryAcquire(10, 3600.0, &retry));
}

TEST(TokenBucketTest, ZeroRateIsUnlimited) {
  TokenBucket bucket(/*rate_per_sec=*/0, /*burst=*/0);
  double retry = 0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(bucket.TryAcquire(1e9, i * 0.001, &retry));
  }
}

TEST(TokenBucketTest, RetryAfterIsDeficitOverRate) {
  TokenBucket bucket(/*rate_per_sec=*/4, /*burst=*/8);
  double retry = 0;
  ASSERT_TRUE(bucket.TryAcquire(8, 0.0, &retry));
  EXPECT_FALSE(bucket.TryAcquire(8, 1.0, &retry));  // 4 refilled, 4 short
  EXPECT_NEAR(retry, 4.0 / 4, 1e-9);
}

// --- RateWindow ---

TEST(RateWindowTest, AveragesOverObservedSpan) {
  RateWindow window(/*span_seconds=*/60);
  window.Add(100, 0.0);
  window.Add(100, 1.0);
  // 200 edges over 2 observed seconds.
  EXPECT_NEAR(window.PerSecond(2.0), 100.0, 1e-9);
}

TEST(RateWindowTest, DropsBucketsOlderThanSpan) {
  RateWindow window(/*span_seconds=*/10);
  window.Add(1000, 0.5);
  EXPECT_GT(window.PerSecond(1.0), 0.0);
  // 100s later the burst has aged out entirely.
  EXPECT_NEAR(window.PerSecond(100.0), 0.0, 1e-9);
}

// --- ParseTenantSpec ---

TEST(ParseTenantSpecTest, ParsesNamesTokensRatesBursts) {
  auto parsed = ParseTenantSpec("acme:s3cret:50000:200000,beta:tok2,c:t3:9");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& tenants = parsed.value();
  ASSERT_EQ(tenants.size(), 3u);
  EXPECT_EQ(tenants[0].name, "acme");
  EXPECT_EQ(tenants[0].token, "s3cret");
  EXPECT_DOUBLE_EQ(tenants[0].rate_edges_per_sec, 50000);
  EXPECT_DOUBLE_EQ(tenants[0].burst_edges, 200000);
  EXPECT_EQ(tenants[1].name, "beta");
  EXPECT_DOUBLE_EQ(tenants[1].rate_edges_per_sec, 0);  // unlimited
  EXPECT_DOUBLE_EQ(tenants[2].rate_edges_per_sec, 9);
}

TEST(ParseTenantSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseTenantSpec("").ok());
  EXPECT_FALSE(ParseTenantSpec("nameonly").ok());
  EXPECT_FALSE(ParseTenantSpec("a:t1,a:t2").ok());     // duplicate name
  EXPECT_FALSE(ParseTenantSpec("a:tok,b:tok").ok());   // duplicate token
  EXPECT_FALSE(ParseTenantSpec("a:t:notanum").ok());
}

// --- Wire codecs ---

std::vector<TimedEdge> SampleBatch() {
  return {{1, 2, 0.5}, {3, 4, 1.25}, {1000000, 7, 39.75}};
}

TEST(WireTest, BinaryRoundTrip) {
  const auto batch = SampleBatch();
  const std::string body = EncodeBinaryBatch(batch);
  EXPECT_EQ(body.size(), 8 + 16 * batch.size());
  auto decoded = DecodeBinaryBatch(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(decoded.value()[i].src, batch[i].src);
    EXPECT_EQ(decoded.value()[i].dst, batch[i].dst);
    EXPECT_DOUBLE_EQ(decoded.value()[i].time, batch[i].time);
  }
}

TEST(WireTest, BinaryRejectsBadMagicAndTruncation) {
  std::string body = EncodeBinaryBatch(SampleBatch());
  std::string bad_magic = body;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeBinaryBatch(bad_magic).ok());
  EXPECT_FALSE(DecodeBinaryBatch(body.substr(0, body.size() - 1)).ok());
  EXPECT_FALSE(DecodeBinaryBatch(body + "x").ok());
  EXPECT_FALSE(DecodeBinaryBatch("").ok());
}

TEST(WireTest, NdjsonRoundTrip) {
  const auto batch = SampleBatch();
  auto decoded = DecodeNdjsonBatch(EncodeNdjsonBatch(batch));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(decoded.value()[i].src, batch[i].src);
    EXPECT_DOUBLE_EQ(decoded.value()[i].time, batch[i].time);
  }
}

TEST(WireTest, NdjsonNamesBadLine) {
  const auto bad = DecodeNdjsonBatch(
      "{\"src\":1,\"dst\":2,\"time\":0.5}\n"
      "{\"src\":1,\"dst\":2}\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("line 2"), std::string::npos)
      << bad.status().ToString();
}

TEST(WireTest, ContentTypeMatching) {
  EXPECT_TRUE(IsBinaryContentType("application/x-glp-batch"));
  EXPECT_TRUE(IsBinaryContentType("application/x-glp-batch; v=1"));
  EXPECT_TRUE(IsNdjsonContentType("application/x-ndjson"));
  EXPECT_TRUE(IsNdjsonContentType("application/json"));
  EXPECT_FALSE(IsBinaryContentType("text/plain"));
  EXPECT_FALSE(IsNdjsonContentType("application/x-glp-batch"));
}

// --- Socket-level fixtures ---

pipeline::TransactionConfig SmallStreamConfig() {
  pipeline::TransactionConfig cfg;
  cfg.num_buyers = 1200;
  cfg.num_items = 300;
  cfg.days = 30;
  cfg.num_rings = 6;
  cfg.ring_buyers = 8;
  cfg.ring_items = 4;
  cfg.seed = 91;
  return cfg;
}

/// Cold, fixed-iteration config: tick output is exact across shard counts
/// and ingest paths (see tests/shard_test.cc for the invariance argument).
ServerConfig ColdServerConfig(const pipeline::TransactionStream& stream) {
  ServerConfig cfg;
  cfg.detect.window_days = 10;
  cfg.detect.engine = lp::EngineKind::kSeq;
  cfg.detect.lp.max_iterations = 20;
  cfg.detect.lp.stop_when_stable = false;
  cfg.seeds = stream.seeds;
  cfg.ground_truth = &stream;
  cfg.tick.every_days = 5.0;
  cfg.tick.warm_start = false;
  return cfg;
}

std::vector<std::vector<TimedEdge>> BatchEdges(
    const std::vector<TimedEdge>& ordered, size_t batch_size) {
  std::vector<std::vector<TimedEdge>> batches;
  for (size_t pos = 0; pos < ordered.size(); pos += batch_size) {
    const size_t n = std::min(batch_size, ordered.size() - pos);
    batches.emplace_back(ordered.begin() + static_cast<ptrdiff_t>(pos),
                         ordered.begin() + static_cast<ptrdiff_t>(pos + n));
  }
  return batches;
}

int64_t TickKey(double window_end) {
  return static_cast<int64_t>(std::llround(window_end * 4));
}

/// The confirmed-cluster *diff* view of one tick — the byte-identical
/// acceptance surface for networked vs in-process ingest.
struct TickView {
  std::set<std::vector<VertexId>> clusters;
  std::set<std::vector<VertexId>> confirmed;
  std::set<std::vector<VertexId>> new_confirmed;
  std::set<std::vector<VertexId>> expired_confirmed;
  size_t window_vertices = 0;
  int64_t window_edges = 0;
};

TickView ViewOf(const TickResult& t) {
  TickView v;
  for (const auto& c : t.detection.clusters) {
    v.clusters.insert(c.members);
    if (c.confirmed) v.confirmed.insert(c.members);
  }
  for (const auto& members : t.new_confirmed) v.new_confirmed.insert(members);
  for (const auto& members : t.expired_confirmed) {
    v.expired_confirmed.insert(members);
  }
  v.window_vertices = t.detection.window_vertices;
  v.window_edges = static_cast<int64_t>(t.detection.window_edges);
  return v;
}

using TickMap = std::map<int64_t, TickView>;

void ExpectSameTicks(const TickMap& got, const TickMap& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, view] : want) {
    ASSERT_TRUE(got.count(key)) << "missing tick " << key;
    const TickView& g = got.at(key);
    EXPECT_EQ(g.clusters, view.clusters) << "tick " << key;
    EXPECT_EQ(g.confirmed, view.confirmed) << "tick " << key;
    EXPECT_EQ(g.new_confirmed, view.new_confirmed) << "tick " << key;
    EXPECT_EQ(g.expired_confirmed, view.expired_confirmed) << "tick " << key;
    EXPECT_EQ(g.window_vertices, view.window_vertices) << "tick " << key;
    EXPECT_EQ(g.window_edges, view.window_edges) << "tick " << key;
  }
}

/// In-process reference: Ingest() straight into a serve::Server.
TickMap RunInProcess(const ServerConfig& cfg, int shards,
                     const std::vector<TimedEdge>& ordered) {
  TickMap out;
  auto server = MakeServer(cfg, shards);
  server->Subscribe(
      [&](const TickResult& t) { out[TickKey(t.window_end)] = ViewOf(t); });
  EXPECT_TRUE(server->Start().ok());
  for (auto& batch : BatchEdges(ordered, 700)) {
    EXPECT_TRUE(server->Ingest(std::move(batch)));
  }
  server->Flush();
  server->Stop();
  EXPECT_TRUE(server->last_error().ok()) << server->last_error().ToString();
  return out;
}

/// Networked path: the same batches POSTed over a real socket through
/// IngestService (binary wire format, 429 sheds retried in order).
TickMap RunOverSocket(const ServerConfig& cfg, int shards,
                      const std::vector<TimedEdge>& ordered) {
  TickMap out;
  auto server = MakeServer(cfg, shards);
  server->Subscribe(
      [&](const TickResult& t) { out[TickKey(t.window_end)] = ViewOf(t); });
  EXPECT_TRUE(server->Start().ok());

  auto tenants = ParseTenantSpec("e2e:e2etoken");
  EXPECT_TRUE(tenants.ok());
  IngestService service(server.get(), std::move(tenants).value());
  EXPECT_TRUE(service.Start(0));

  HttpClient client;
  EXPECT_TRUE(client.Connect(service.port()).ok());
  for (const auto& batch : BatchEdges(ordered, 700)) {
    auto resp = client.PostBatchWithRetry(batch, "e2etoken");
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    if (!resp.ok()) break;
    EXPECT_EQ(resp.value().status, 200) << resp.value().body;
    if (resp.value().status != 200) break;
  }
  server->Flush();
  service.Stop();
  server->Stop();
  EXPECT_TRUE(server->last_error().ok()) << server->last_error().ToString();
  return out;
}

// --- The admission ladder over real sockets ---

class IngestServiceTest : public ::testing::Test {
 protected:
  void StartService(const std::string& tenant_spec,
                    IngestService::Options opts = {}) {
    ServerConfig cfg;
    cfg.detect.window_days = 10;
    cfg.detect.engine = lp::EngineKind::kSeq;
    cfg.seeds = {0};
    cfg.tick.every_days = 1e9;  // no ticks: these tests probe admission only
    server_ = MakeServer(cfg, 1);
    ASSERT_TRUE(server_->Start().ok());
    auto tenants = ParseTenantSpec(tenant_spec);
    ASSERT_TRUE(tenants.ok()) << tenants.status().ToString();
    service_ = std::make_unique<IngestService>(
        server_.get(), std::move(tenants).value(), opts);
    ASSERT_TRUE(service_->Start(0));
    ASSERT_TRUE(client_.Connect(service_->port()).ok());
  }

  void TearDown() override {
    client_.Close();
    if (service_) service_->Stop();
    if (server_) server_->Stop();
  }

  std::unique_ptr<Server> server_;
  std::unique_ptr<IngestService> service_;
  HttpClient client_;
};

TEST_F(IngestServiceTest, AcceptsAuthenticatedBinaryBatch) {
  StartService("acme:s3cret");
  auto resp = client_.PostBatch(SampleBatch(), "s3cret");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().status, 200);
  EXPECT_NE(resp.value().body.find("\"accepted\":3"), std::string::npos)
      << resp.value().body;
}

TEST_F(IngestServiceTest, AcceptsNdjsonBatch) {
  StartService("acme:s3cret");
  auto resp = client_.Request("POST", "/v1/ingest", kNdjsonContentType,
                              EncodeNdjsonBatch(SampleBatch()), "s3cret");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().status, 200);
}

TEST_F(IngestServiceTest, RejectsUnknownToken) {
  StartService("acme:s3cret");
  auto resp = client_.PostBatch(SampleBatch(), "wrong");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, 401);
  auto missing = client_.PostBatch(SampleBatch(), "");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 401);
}

TEST_F(IngestServiceTest, RejectsGarbageBody) {
  StartService("acme:s3cret");
  auto resp = client_.Request("POST", "/v1/ingest", kBinaryContentType,
                              "not a batch", "s3cret");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, 400);
  auto empty =
      client_.Request("POST", "/v1/ingest", kBinaryContentType, "", "s3cret");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().status, 400);
}

TEST_F(IngestServiceTest, ThrottlesOverRateTenantWithRetryAfter) {
  // burst 2 < the 3-edge batch, so the tenant bucket refuses
  // deterministically regardless of elapsed time.
  StartService("tiny:tok:1:2");
  auto resp = client_.PostBatch(SampleBatch(), "tok");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, 429);
  EXPECT_GE(resp.value().retry_after, 1.0);
}

TEST_F(IngestServiceTest, GlobalRateLimitRefusesEveryTenant) {
  IngestService::Options opts;
  opts.global_rate_edges_per_sec = 1;
  opts.global_burst_edges = 2;  // below every batch size used here
  StartService("a:tok1,b:tok2", opts);
  for (const char* tok : {"tok1", "tok2"}) {
    auto resp = client_.PostBatch(SampleBatch(), tok);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.value().status, 429) << tok;
  }
}

TEST_F(IngestServiceTest, StatsAndHealthRoutes) {
  StartService("acme:s3cret");
  auto health = client_.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status, 200);
  auto stats = client_.Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().status, 200);
  EXPECT_NE(stats.value().body.find("\"edges_ingested\""), std::string::npos);
  auto missing = client_.Get("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);
}

TEST_F(IngestServiceTest, HealthzTurns503AfterStop) {
  StartService("acme:s3cret");
  server_->Stop();
  auto health = client_.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status, 503);
  auto resp = client_.PostBatch(SampleBatch(), "s3cret");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, 503);
}

// Zipf-shaped offered load: heavy tenants exceed their quota and are shed
// (429), light tenants under quota sail through untouched — per-tenant
// buckets isolate the fleet from its whales.
TEST_F(IngestServiceTest, ZipfLoadShedFairness) {
  // Equal quotas; offered load is Zipf (tenant k posts ~1/k of tenant 0).
  StartService(
      "whale:w0:100:1000,mid:w1:100:1000,light:w2:100:1000,tail:w3:100:1000");
  const size_t offered[] = {4000, 2000, 400, 200};  // vs burst 1000 each
  int shed[4] = {0, 0, 0, 0};
  int ok[4] = {0, 0, 0, 0};
  for (int round = 0; round < 2; ++round) {
    for (int t = 0; t < 4; ++t) {
      std::vector<TimedEdge> batch(offered[t] / 2);
      for (size_t i = 0; i < batch.size(); ++i) {
        batch[i] = {static_cast<VertexId>(2 * i),
                    static_cast<VertexId>(2 * i + 1), 0.5};
      }
      const std::string token = std::to_string(t);
      auto resp = client_.PostBatch(batch, "w" + token);
      ASSERT_TRUE(resp.ok());
      if (resp.value().status == 429) {
        ++shed[t];
      } else {
        ASSERT_EQ(resp.value().status, 200) << resp.value().body;
        ++ok[t];
      }
    }
  }
  // Whale and mid blow their 1000-edge burst (2000/1000-edge batches):
  // everything past the first fitting batch sheds. Light and tail stay
  // within quota: never shed, despite the whale's pressure.
  EXPECT_GE(shed[0] + shed[1], 3);
  EXPECT_EQ(shed[2], 0);
  EXPECT_EQ(shed[3], 0);
  EXPECT_EQ(ok[2], 2);
  EXPECT_EQ(ok[3], 2);
}

// --- The acceptance gate: socket == in-process, 1 shard and 3 shards ---

TEST(NetEquivalenceTest, SocketIngestMatchesInProcessSingleShard) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  std::vector<TimedEdge> ordered = stream.edges;
  std::sort(ordered.begin(), ordered.end(), graph::CanonicalEdgeLess);
  const ServerConfig cfg = ColdServerConfig(stream);
  const TickMap want = RunInProcess(cfg, /*shards=*/1, ordered);
  ASSERT_FALSE(want.empty());
  const TickMap got = RunOverSocket(cfg, /*shards=*/1, ordered);
  ExpectSameTicks(got, want);
}

TEST(NetEquivalenceTest, SocketIngestMatchesInProcessSharded) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  std::vector<TimedEdge> ordered = stream.edges;
  std::sort(ordered.begin(), ordered.end(), graph::CanonicalEdgeLess);
  const ServerConfig cfg = ColdServerConfig(stream);
  const TickMap want = RunInProcess(cfg, /*shards=*/3, ordered);
  ASSERT_FALSE(want.empty());
  const TickMap got = RunOverSocket(cfg, /*shards=*/3, ordered);
  ExpectSameTicks(got, want);
  // And the sharded fleet over the wire still equals the 1-shard reference.
  ExpectSameTicks(got, RunInProcess(cfg, /*shards=*/1, ordered));
}

// --- Client hardening: Retry-After parsing and full-jitter backoff ---

TEST(RetryAfterParseTest, AcceptsDeltaSecondsOnly) {
  EXPECT_DOUBLE_EQ(ParseRetryAfterSeconds("2"), 2.0);
  EXPECT_DOUBLE_EQ(ParseRetryAfterSeconds("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(ParseRetryAfterSeconds("0"), 0.0);
  EXPECT_DOUBLE_EQ(ParseRetryAfterSeconds("  3 "), 3.0);  // OWS tolerated

  // Everything malformed reads as 0 ("absent") — a hostile or buggy server
  // must not be able to stall a retry loop.
  EXPECT_DOUBLE_EQ(ParseRetryAfterSeconds(""), 0.0);
  EXPECT_DOUBLE_EQ(ParseRetryAfterSeconds("garbage"), 0.0);
  EXPECT_DOUBLE_EQ(ParseRetryAfterSeconds("2s"), 0.0);      // trailing junk
  EXPECT_DOUBLE_EQ(ParseRetryAfterSeconds("2,3"), 0.0);
  EXPECT_DOUBLE_EQ(ParseRetryAfterSeconds("-1"), 0.0);
  EXPECT_DOUBLE_EQ(ParseRetryAfterSeconds("inf"), 0.0);
  EXPECT_DOUBLE_EQ(ParseRetryAfterSeconds("nan"), 0.0);
  EXPECT_DOUBLE_EQ(
      ParseRetryAfterSeconds("Fri, 09 Aug 2026 12:00:00 GMT"), 0.0);

  // Clamped: no in-repo server asks to wait beyond an hour.
  EXPECT_DOUBLE_EQ(ParseRetryAfterSeconds("7200"), 3600.0);
}

TEST(FullJitterBackoffTest, DrawsUniformlyUnderTheCappedBase) {
  const uint64_t kMax = ~0ull;
  // A zero draw floors at 1 ms — the loop always yields the CPU.
  EXPECT_DOUBLE_EQ(FullJitterBackoff(5.0, 10.0, 0), 0.001);
  // A max draw approaches (but never reaches) min(base, cap).
  EXPECT_LT(FullJitterBackoff(5.0, 10.0, kMax), 5.0);
  EXPECT_GT(FullJitterBackoff(5.0, 10.0, kMax), 4.999);
  EXPECT_LT(FullJitterBackoff(10.0, 0.2, kMax), 0.2);  // cap binds
  // A mid-range draw lands mid-interval.
  const double mid = FullJitterBackoff(4.0, 10.0, kMax / 2);
  EXPECT_GT(mid, 1.9);
  EXPECT_LT(mid, 2.1);
  // Degenerate bases never produce a negative or zero wait.
  EXPECT_DOUBLE_EQ(FullJitterBackoff(0.0, 10.0, kMax), 0.001);
  EXPECT_DOUBLE_EQ(FullJitterBackoff(-3.0, 10.0, kMax), 0.001);
}

// --- TokenBucket: a cost above burst is never satisfiable ---

TEST(TokenBucketTest, CostAboveBurstIsRefusedForever) {
  TokenBucket bucket(/*rate_per_sec=*/10, /*burst=*/100);
  double retry = 0;
  // From a full bucket, cost 150 is refused and the quoted retry_after is
  // the deficit over rate: (150 - 100) / 10 = 5 s.
  EXPECT_FALSE(bucket.TryAcquire(150, 0.0, &retry));
  EXPECT_NEAR(retry, 5.0, 1e-9);
  // Waiting exactly that long (or far longer) changes nothing: refill caps
  // at burst, so the quoted wait never becomes satisfiable. The bucket
  // refuses deterministically every time — an over-sized request is a
  // policy violation, not a transient — and keeps quoting the same wait.
  EXPECT_FALSE(bucket.TryAcquire(150, 5.0, &retry));
  EXPECT_NEAR(retry, 5.0, 1e-9);
  EXPECT_FALSE(bucket.TryAcquire(150, 3600.0, &retry));
  EXPECT_NEAR(retry, 5.0, 1e-9);
  // The refusals consumed nothing: a burst-sized request still succeeds.
  EXPECT_TRUE(bucket.TryAcquire(100, 3600.0, &retry));
}

// --- Retry-After formatting: integral seconds, rounded up, floored at 1 ---

TEST(RetryAfterValueTest, RoundsUpAndFloorsAtOne) {
  EXPECT_EQ(RetryAfterValue(2.0), "2");      // exact integer stays put
  EXPECT_EQ(RetryAfterValue(1.999), "2");
  EXPECT_EQ(RetryAfterValue(2.0001), "3");   // any excess rounds up
  EXPECT_EQ(RetryAfterValue(0.2), "1");      // sub-second floors at 1
  EXPECT_EQ(RetryAfterValue(0.0), "1");
  EXPECT_EQ(RetryAfterValue(-5.0), "1");     // defensive: never 0 or negative
}

}  // namespace
}  // namespace glp::serve::net
