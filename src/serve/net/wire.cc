#include "serve/net/wire.h"

#include <cctype>
#include <cstdlib>
#include <cstring>

namespace glp::serve::net {

namespace {

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xff);
  b[1] = static_cast<char>((v >> 8) & 0xff);
  b[2] = static_cast<char>((v >> 16) & 0xff);
  b[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(b, 4);
}

uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  char b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<char>((bits >> (8 * i)) & 0xff);
  }
  out->append(b, 8);
}

double GetF64(const char* p) {
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(static_cast<unsigned char>(p[i]))
            << (8 * i);
  }
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

std::string EncodeBinaryBatch(const std::vector<graph::TimedEdge>& batch) {
  std::string out;
  out.reserve(8 + 16 * batch.size());
  PutU32(&out, kBatchMagic);
  PutU32(&out, static_cast<uint32_t>(batch.size()));
  for (const graph::TimedEdge& e : batch) {
    PutU32(&out, e.src);
    PutU32(&out, e.dst);
    PutF64(&out, e.time);
  }
  return out;
}

Result<std::vector<graph::TimedEdge>> DecodeBinaryBatch(
    std::string_view body) {
  if (body.size() < 8) {
    return Status::InvalidArgument("binary batch shorter than its header");
  }
  if (GetU32(body.data()) != kBatchMagic) {
    return Status::InvalidArgument("bad batch magic");
  }
  const uint32_t count = GetU32(body.data() + 4);
  const size_t expect = 8 + static_cast<size_t>(count) * 16;
  if (body.size() != expect) {
    return Status::InvalidArgument(
        "batch length mismatch: declared " + std::to_string(count) +
        " edges (" + std::to_string(expect) + " bytes), body is " +
        std::to_string(body.size()) + " bytes");
  }
  std::vector<graph::TimedEdge> batch;
  batch.reserve(count);
  const char* p = body.data() + 8;
  for (uint32_t i = 0; i < count; ++i, p += 16) {
    graph::TimedEdge e;
    e.src = GetU32(p);
    e.dst = GetU32(p + 4);
    e.time = GetF64(p + 8);
    batch.push_back(e);
  }
  return batch;
}

std::string EncodeNdjsonBatch(const std::vector<graph::TimedEdge>& batch) {
  std::string out;
  char buf[96];
  for (const graph::TimedEdge& e : batch) {
    std::snprintf(buf, sizeof(buf), "{\"src\":%u,\"dst\":%u,\"time\":%.17g}\n",
                  e.src, e.dst, e.time);
    out += buf;
  }
  return out;
}

namespace {

// Parses one {"src":N,"dst":N,"time":F} line (keys in any order, each
// exactly once, separated by commas). Returns false on any deviation.
bool ParseNdjsonLine(std::string_view line, graph::TimedEdge* edge) {
  size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() &&
           (line[i] == ' ' || line[i] == '\t' || line[i] == '\r')) {
      ++i;
    }
  };
  skip_ws();
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  bool have_src = false, have_dst = false, have_time = false;
  for (;;) {
    skip_ws();
    if (i >= line.size() || line[i] != '"') return false;
    const size_t key_end = line.find('"', i + 1);
    if (key_end == std::string_view::npos) return false;
    const std::string_view key = line.substr(i + 1, key_end - i - 1);
    i = key_end + 1;
    skip_ws();
    if (i >= line.size() || line[i] != ':') return false;
    ++i;
    skip_ws();
    // Numeric token.
    const size_t tok_start = i;
    while (i < line.size() && line[i] != ',' && line[i] != '}' &&
           line[i] != ' ' && line[i] != '\t') {
      ++i;
    }
    const std::string tok(line.substr(tok_start, i - tok_start));
    // strtoull/strtod skip leading whitespace (\v, \f) and stop at an
    // embedded NUL: the number must span the token from its first byte to
    // its last.
    if (tok.empty() || std::isspace(static_cast<unsigned char>(tok[0]))) {
      return false;
    }
    const char* const tok_end = tok.c_str() + tok.size();
    char* end = nullptr;
    if (key == "src" || key == "dst") {
      const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
      if (end != tok_end || tok[0] == '-' || v > 0xffffffffull) {
        return false;
      }
      if (key == "src") {
        if (have_src) return false;
        edge->src = static_cast<graph::VertexId>(v);
        have_src = true;
      } else {
        if (have_dst) return false;
        edge->dst = static_cast<graph::VertexId>(v);
        have_dst = true;
      }
    } else if (key == "time") {
      if (have_time) return false;
      edge->time = std::strtod(tok.c_str(), &end);
      if (end != tok_end) return false;
      have_time = true;
    } else {
      return false;
    }
    // After each value: a comma and another key, or the closing brace.
    skip_ws();
    if (i >= line.size()) return false;
    if (line[i] == '}') {
      ++i;
      break;
    }
    if (line[i] != ',') return false;
    ++i;
  }
  skip_ws();
  return i == line.size() && have_src && have_dst && have_time;
}

}  // namespace

Result<std::vector<graph::TimedEdge>> DecodeNdjsonBatch(
    std::string_view body) {
  std::vector<graph::TimedEdge> batch;
  size_t pos = 0, line_no = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string_view::npos) eol = body.size();
    const std::string_view line = body.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    // Blank (or CR-only) lines are tolerated.
    bool blank = true;
    for (const char c : line) {
      if (c != ' ' && c != '\t' && c != '\r') {
        blank = false;
        break;
      }
    }
    if (blank) continue;
    graph::TimedEdge e{};
    if (!ParseNdjsonLine(line, &e)) {
      return Status::InvalidArgument("malformed ndjson edge at line " +
                                     std::to_string(line_no));
    }
    batch.push_back(e);
  }
  return batch;
}

namespace {

std::string_view BaseType(std::string_view content_type) {
  const size_t semi = content_type.find(';');
  std::string_view base = semi == std::string_view::npos
                              ? content_type
                              : content_type.substr(0, semi);
  while (!base.empty() && (base.back() == ' ' || base.back() == '\t')) {
    base.remove_suffix(1);
  }
  while (!base.empty() && (base.front() == ' ' || base.front() == '\t')) {
    base.remove_prefix(1);
  }
  return base;
}

}  // namespace

bool IsBinaryContentType(std::string_view content_type) {
  return BaseType(content_type) == kBinaryContentType;
}

bool IsNdjsonContentType(std::string_view content_type) {
  const std::string_view base = BaseType(content_type);
  return base == kNdjsonContentType || base == "application/json";
}

}  // namespace glp::serve::net
