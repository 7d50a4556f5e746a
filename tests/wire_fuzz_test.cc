// Seeded byte-mutation fuzzing of the ingest wire decoders
// (serve/net/wire.h). Every case starts from valid encodings of random
// batches and damages them: bit flips, truncation at every length,
// lies in the GLPB count field, and splices of two valid bodies. Each input
// must decode to ok() or an InvalidArgument Status, never crash (the fuzz
// label runs under ASan + UBSan in CI). Beyond that:
//   - binary: a body is accepted exactly when an independent reading of the
//     format says it is well formed, and an accepted body re-encodes byte
//     for byte;
//   - NDJSON: an accepted body is text (JSON carries no raw control bytes),
//     yields one edge per non-blank line, and survives a re-encode.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/net/wire.h"
#include "util/rng.h"

namespace glp::serve::net {
namespace {

using graph::TimedEdge;
using graph::VertexId;

constexpr int kBatches = 1000;

VertexId RandomId(Rng* rng) {
  switch (rng->Bounded(3)) {
    case 0:
      return static_cast<VertexId>(rng->Bounded(100));
    case 1:
      return static_cast<VertexId>(rng->Next());
    default:
      return 0xffffffffu;
  }
}

double RandomTime(Rng* rng) {
  switch (rng->Bounded(5)) {
    case 0:
      return 0;
    case 1:
      return static_cast<double>(rng->Bounded(100));
    case 2:
      return rng->NextDouble() * 100;
    case 3:
      return -rng->NextDouble();
    default:  // any finite magnitude, subnormals included
      return std::ldexp(rng->NextDouble(),
                        static_cast<int>(rng->Range(-1074, 1023)));
  }
}

/// 0 to 8 edges with ids and times spread over their whole ranges.
std::vector<TimedEdge> RandomBatch(Rng* rng) {
  std::vector<TimedEdge> batch(rng->Bounded(9));
  for (TimedEdge& e : batch) {
    e.src = RandomId(rng);
    e.dst = RandomId(rng);
    e.time = RandomTime(rng);
  }
  return batch;
}

/// A valid NDJSON body for `batch` in a random layout the decoder documents
/// as legal: keys in any order, blanks and tabs around every token, CRLF
/// line ends, blank lines, and an optional newline after the last edge.
std::string RandomNdjson(const std::vector<TimedEdge>& batch, Rng* rng) {
  const auto ws = [&]() -> std::string {
    static const char* const kWs[] = {"", "", " ", "\t", " \t "};
    return kWs[rng->Bounded(5)];
  };
  std::string out;
  for (size_t i = 0; i < batch.size(); ++i) {
    const TimedEdge& e = batch[i];
    if (rng->NextBool(0.2)) out += ws() + "\n";
    char time[40];
    std::snprintf(time, sizeof(time), "%.17g", e.time);
    std::pair<const char*, std::string> fields[] = {
        {"src", std::to_string(e.src)},
        {"dst", std::to_string(e.dst)},
        {"time", time}};
    for (int k = 2; k > 0; --k) {
      std::swap(fields[k], fields[rng->Bounded(static_cast<uint64_t>(k) + 1)]);
    }
    out += ws() + "{";
    for (int k = 0; k < 3; ++k) {
      out += ws() + "\"" + fields[k].first + "\"" + ws() + ":" + ws() +
             fields[k].second + ws() + (k < 2 ? "," : "");
    }
    out += ws() + "}" + ws();
    if (rng->NextBool(0.2)) out += "\r";
    if (i + 1 < batch.size() || rng->NextBool(0.5)) out += "\n";
  }
  return out;
}

uint32_t ReadU32(std::string_view b, size_t at) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(b[at + static_cast<size_t>(i)]);
  }
  return v;
}

void WriteU32(std::string* b, size_t at, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) (*b)[at + i] = static_cast<char>(v >> (8 * i));
}

/// The GLPB layout read independently of the decoder: magic, count, and
/// exactly `count` 16-byte edges.
bool WellFormedBinary(std::string_view b) {
  return b.size() >= 8 && b.substr(0, 4) == "GLPB" &&
         (b.size() - 8) % 16 == 0 && (b.size() - 8) / 16 == ReadU32(b, 4);
}

/// Printable rendering of a body for failure messages.
std::string Show(std::string_view b) {
  std::string out;
  for (const char c : b) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f) {
      out += c;
    } else {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\x%02x", u);
      out += hex;
    }
  }
  return out;
}

void CheckBinary(std::string_view body) {
  const auto r = DecodeBinaryBatch(body);
  EXPECT_EQ(r.ok(), WellFormedBinary(body)) << Show(body);
  if (!r.ok()) {
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
    return;
  }
  EXPECT_EQ(EncodeBinaryBatch(r.value()), body) << Show(body);
}

bool SameEdges(const std::vector<TimedEdge>& a,
               const std::vector<TimedEdge>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const bool same_time = (std::isnan(a[i].time) && std::isnan(b[i].time)) ||
                           std::memcmp(&a[i].time, &b[i].time, 8) == 0;
    if (a[i].src != b[i].src || a[i].dst != b[i].dst || !same_time) {
      return false;
    }
  }
  return true;
}

size_t NonBlankLines(std::string_view body) {
  size_t lines = 0;
  bool blank = true;
  for (size_t i = 0; i <= body.size(); ++i) {
    if (i == body.size() || body[i] == '\n') {
      if (!blank) ++lines;
      blank = true;
    } else if (body[i] != ' ' && body[i] != '\t' && body[i] != '\r') {
      blank = false;
    }
  }
  return lines;
}

/// JSON text has no raw control bytes outside its whitespace, and every
/// token the decoder takes is ASCII.
bool IsText(std::string_view body) {
  for (const char c : body) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x7f || (u < 0x20 && c != '\t' && c != '\r' && c != '\n')) {
      return false;
    }
  }
  return true;
}

void CheckNdjson(std::string_view body) {
  const auto r = DecodeNdjsonBatch(body);
  if (!r.ok()) {
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
    return;
  }
  EXPECT_TRUE(IsText(body)) << Show(body);
  EXPECT_EQ(r.value().size(), NonBlankLines(body)) << Show(body);
  const auto again = DecodeNdjsonBatch(EncodeNdjsonBatch(r.value()));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(SameEdges(again.value(), r.value())) << Show(body);
}

/// Flips 1 to 8 random bits.
std::string FlipBits(std::string body, Rng* rng) {
  if (body.empty()) return body;
  const uint64_t flips = 1 + rng->Bounded(8);
  for (uint64_t f = 0; f < flips; ++f) {
    body[rng->Bounded(body.size())] ^= static_cast<char>(1u << rng->Bounded(8));
  }
  return body;
}

/// A prefix of `a` joined to a suffix of `b`, cut at random points.
std::string Splice(std::string_view a, std::string_view b, Rng* rng) {
  return std::string(a.substr(0, rng->Bounded(a.size() + 1))) +
         std::string(b.substr(rng->Bounded(b.size() + 1)));
}

TEST(WireFuzzTest, ValidEncodingsDecodeToTheirBatch) {
  Rng rng(101);
  for (int i = 0; i < kBatches; ++i) {
    const auto batch = RandomBatch(&rng);
    const auto bin = DecodeBinaryBatch(EncodeBinaryBatch(batch));
    ASSERT_TRUE(bin.ok()) << bin.status().ToString();
    EXPECT_TRUE(SameEdges(bin.value(), batch));
    const std::string text = RandomNdjson(batch, &rng);
    const auto nd = DecodeNdjsonBatch(text);
    ASSERT_TRUE(nd.ok()) << nd.status().ToString() << " " << Show(text);
    EXPECT_TRUE(SameEdges(nd.value(), batch)) << Show(text);
  }
}

// Lines the NDJSON mutations found accepted while the decoder only checked
// that strtoull/strtod stopped on a NUL: they skip a leading \v or \f, and
// a NUL inside the token ends the number early ("\0" + "1" read as 0).
TEST(WireFuzzTest, NumbersSpanTheirWholeToken) {
  const std::string line = "{\"src\":1,\"dst\":2,\"time\":0.5}";
  ASSERT_TRUE(DecodeNdjsonBatch(line).ok());
  const std::pair<size_t, char> damage[] = {
      {line.find('1'), '\0'},      {line.find('1') + 1, '\0'},
      {line.find("0.5") + 3, '\0'}, {line.find('2'), '\v'},
      {line.find("0.5"), '\f'}};
  for (const auto& [at, byte] : damage) {
    std::string bad = line;
    bad.insert(at, 1, byte);
    EXPECT_FALSE(DecodeNdjsonBatch(bad).ok()) << Show(bad);
  }
  // Not JSON objects: a missing comma between members, a trailing comma.
  for (const char* bad : {"{\"src\":1 \"dst\":2 \"time\":0.5}",
                          "{\"src\":1,\"dst\":2,\"time\":0.5,}"}) {
    EXPECT_FALSE(DecodeNdjsonBatch(bad).ok()) << Show(bad);
  }
}

TEST(WireFuzzTest, BinaryBitFlips) {
  Rng rng(102);
  for (int i = 0; i < kBatches && !HasFailure(); ++i) {
    const std::string body = EncodeBinaryBatch(RandomBatch(&rng));
    for (int m = 0; m < 50; ++m) CheckBinary(FlipBits(body, &rng));
  }
}

TEST(WireFuzzTest, BinaryTruncationsAndExtensions) {
  Rng rng(103);
  for (int i = 0; i < kBatches && !HasFailure(); ++i) {
    const std::string body = EncodeBinaryBatch(RandomBatch(&rng));
    // Every prefix: inside the magic, inside the count, on and between
    // every edge boundary and field boundary.
    for (size_t len = 0; len <= body.size(); ++len) {
      CheckBinary(std::string_view(body).substr(0, len));
    }
    for (size_t extra = 1; extra <= 32; ++extra) {
      std::string longer = body;
      for (size_t k = 0; k < extra; ++k) {
        longer += static_cast<char>(rng.Bounded(256));
      }
      CheckBinary(longer);
    }
  }
}

TEST(WireFuzzTest, BinaryCountLies) {
  Rng rng(104);
  for (int i = 0; i < kBatches && !HasFailure(); ++i) {
    const std::string body = EncodeBinaryBatch(RandomBatch(&rng));
    const uint32_t count = ReadU32(body, 4);
    // Off by one either way, empty, the extremes, and counts whose byte
    // size wraps a 32-bit length (16 * 2^28 = 2^32) back onto the body.
    const uint32_t lies[] = {count + 1,
                             count - 1,
                             0,
                             0xffffffffu,
                             0x7fffffffu,
                             0x10000000u,
                             0x10000000u + count,
                             0xf0000000u + count,
                             static_cast<uint32_t>(rng.Next())};
    for (const uint32_t lie : lies) {
      std::string bad = body;
      WriteU32(&bad, 4, lie);
      CheckBinary(bad);
    }
    // A count raised by one with 16 arbitrary bytes behind it is a valid
    // body whose new edge carries any bit pattern (NaN payloads included).
    std::string grown = body;
    WriteU32(&grown, 4, count + 1);
    for (int k = 0; k < 16; ++k) grown += static_cast<char>(rng.Bounded(256));
    CheckBinary(grown);
    EXPECT_TRUE(DecodeBinaryBatch(grown).ok());
  }
}

TEST(WireFuzzTest, BinarySplices) {
  Rng rng(105);
  for (int i = 0; i < kBatches && !HasFailure(); ++i) {
    const std::string a = EncodeBinaryBatch(RandomBatch(&rng));
    const std::string b = EncodeBinaryBatch(RandomBatch(&rng));
    // Two whole bodies back to back never agree with the first count.
    EXPECT_FALSE(DecodeBinaryBatch(a + b).ok());
    for (int m = 0; m < 50; ++m) CheckBinary(Splice(a, b, &rng));
    // NDJSON bytes reaching the binary decoder.
    CheckBinary(Splice(a, RandomNdjson(RandomBatch(&rng), &rng), &rng));
  }
}

TEST(WireFuzzTest, NdjsonBitFlips) {
  Rng rng(106);
  for (int i = 0; i < kBatches && !HasFailure(); ++i) {
    const std::string body = RandomNdjson(RandomBatch(&rng), &rng);
    for (int m = 0; m < 50; ++m) CheckNdjson(FlipBits(body, &rng));
  }
}

TEST(WireFuzzTest, NdjsonTruncations) {
  Rng rng(107);
  for (int i = 0; i < kBatches && !HasFailure(); ++i) {
    const std::string body = RandomNdjson(RandomBatch(&rng), &rng);
    for (size_t len = 0; len <= body.size(); ++len) {
      CheckNdjson(std::string_view(body).substr(0, len));
    }
  }
}

TEST(WireFuzzTest, NdjsonSplices) {
  Rng rng(108);
  for (int i = 0; i < kBatches && !HasFailure(); ++i) {
    const auto batch_a = RandomBatch(&rng);
    const auto batch_b = RandomBatch(&rng);
    const std::string a = EncodeNdjsonBatch(batch_a);
    const std::string b = RandomNdjson(batch_b, &rng);
    // Whole bodies concatenate into the union of their edges.
    const auto both = DecodeNdjsonBatch(a + b);
    ASSERT_TRUE(both.ok()) << both.status().ToString();
    std::vector<TimedEdge> expect = batch_a;
    expect.insert(expect.end(), batch_b.begin(), batch_b.end());
    EXPECT_TRUE(SameEdges(both.value(), expect));
    for (int m = 0; m < 50; ++m) {
      CheckNdjson(Splice(a, b, &rng));
      CheckNdjson(Splice(b, a, &rng));
    }
    // GLPB bytes reaching the NDJSON decoder.
    CheckNdjson(Splice(a, EncodeBinaryBatch(batch_b), &rng));
  }
}

}  // namespace
}  // namespace glp::serve::net
