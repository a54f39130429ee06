#include "live/wire.h"

#include <cmath>
#include <cstring>
#include <limits>

namespace ecgf::live {

namespace {

void put_le(std::vector<std::uint8_t>& buf, std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

[[noreturn]] void fail(const std::string& what) { throw WireError(what); }

}  // namespace

// ---- Writer ---------------------------------------------------------------

void Writer::u16(std::uint16_t v) { put_le(buf_, v, 2); }
void Writer::u32(std::uint32_t v) { put_le(buf_, v, 4); }
void Writer::u64(std::uint64_t v) { put_le(buf_, v, 8); }

void Writer::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::str(const std::string& s) {
  if (s.size() > kMaxPayloadBytes) fail("string too large to encode");
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

// ---- Reader ---------------------------------------------------------------

void Reader::need(std::size_t n) const {
  if (size_ - pos_ < n) {
    fail("payload underrun: need " + std::to_string(n) + " bytes, have " +
         std::to_string(size_ - pos_));
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    v = static_cast<std::uint16_t>(v | (static_cast<std::uint16_t>(data_[pos_ + i]) << (8 * i)));
  }
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Reader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

void Reader::done() const {
  if (pos_ != size_) {
    fail("payload overrun: " + std::to_string(size_ - pos_) +
         " trailing bytes");
  }
}

// ---- frame header ---------------------------------------------------------

std::vector<std::uint8_t> encode_frame(
    MsgType type, const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxPayloadBytes) fail("frame payload too large");
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  put_le(out, kWireMagic, 4);
  put_le(out, kWireVersion, 2);
  put_le(out, static_cast<std::uint16_t>(type), 2);
  put_le(out, static_cast<std::uint32_t>(payload.size()), 4);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

FrameHeader decode_header(const std::uint8_t* data, std::size_t size) {
  if (size < kFrameHeaderBytes) fail("truncated frame header");
  Reader r(data, kFrameHeaderBytes);
  const std::uint32_t magic = r.u32();
  if (magic != kWireMagic) fail("bad frame magic");
  const std::uint16_t version = r.u16();
  if (version != kWireVersion) {
    fail("unsupported wire version " + std::to_string(version));
  }
  const std::uint16_t type = r.u16();
  if (type < static_cast<std::uint16_t>(MsgType::kRegister) ||
      type > static_cast<std::uint16_t>(MsgType::kError)) {
    fail("unknown message type " + std::to_string(type));
  }
  const std::uint32_t length = r.u32();
  if (length > kMaxPayloadBytes) {
    fail("frame payload length " + std::to_string(length) + " exceeds cap");
  }
  return FrameHeader{static_cast<MsgType>(type), length};
}

// ---- RunSpec --------------------------------------------------------------

std::vector<std::uint8_t> encode_run_spec(const RunSpec& s) {
  Writer w;
  w.u64(s.seed);
  w.u32(s.cache_count);
  w.u32(s.group_count);
  w.u32(s.document_count);
  w.f64(s.plane_width_ms);
  w.f64(s.plane_last_mile_ms);
  w.f64(s.duration_ms);
  w.f64(s.requests_per_cache_per_s);
  w.f64(s.zipf_alpha);
  w.f64(s.similarity);
  w.u8(s.profile);
  w.u8(s.scheme);
  w.u32(s.num_landmarks);
  w.u32(s.m_multiplier);
  w.f64(s.theta);
  w.u32(s.probes_per_measurement);
  w.f64(s.jitter_sigma);
  w.u64(s.cache_capacity_bytes);
  w.u32(s.beacons_per_group);
  w.f64(s.warmup_fraction);
  w.u8(s.consistency);
  w.f64(s.ttl_ms);
  w.u32(static_cast<std::uint32_t>(s.failures.size()));
  for (const auto& f : s.failures) {
    w.u32(f.cache);
    w.f64(f.time_ms);
  }
  w.u32(static_cast<std::uint32_t>(s.membership.size()));
  for (const auto& m : s.membership) {
    w.u8(static_cast<std::uint8_t>(m.kind));
    w.u32(m.cache);
    w.f64(m.time_ms);
  }
  w.f64(s.epoch_ms);
  w.u8(s.trace_on);
  w.u8(s.qualify);
  return w.take();
}

RunSpec decode_run_spec(const std::vector<std::uint8_t>& payload) {
  Reader r(payload);
  RunSpec s;
  s.seed = r.u64();
  s.cache_count = r.u32();
  s.group_count = r.u32();
  s.document_count = r.u32();
  s.plane_width_ms = r.f64();
  s.plane_last_mile_ms = r.f64();
  s.duration_ms = r.f64();
  s.requests_per_cache_per_s = r.f64();
  s.zipf_alpha = r.f64();
  s.similarity = r.f64();
  s.profile = r.u8();
  s.scheme = r.u8();
  s.num_landmarks = r.u32();
  s.m_multiplier = r.u32();
  s.theta = r.f64();
  s.probes_per_measurement = r.u32();
  s.jitter_sigma = r.f64();
  s.cache_capacity_bytes = r.u64();
  s.beacons_per_group = r.u32();
  s.warmup_fraction = r.f64();
  s.consistency = r.u8();
  s.ttl_ms = r.f64();
  const std::uint32_t nf = r.u32();
  if (nf > s.cache_count * 4u + 1024u) fail("implausible failure count");
  s.failures.resize(nf);
  for (auto& f : s.failures) {
    f.cache = r.u32();
    f.time_ms = r.f64();
  }
  const std::uint32_t nm = r.u32();
  if (nm > s.cache_count * 16u + 1024u) fail("implausible membership count");
  s.membership.resize(nm);
  for (auto& m : s.membership) {
    const std::uint8_t kind = r.u8();
    if (kind > 1) fail("bad membership kind");
    m.kind = static_cast<sim::MembershipChange::Kind>(kind);
    m.cache = r.u32();
    m.time_ms = r.f64();
  }
  s.epoch_ms = r.f64();
  s.trace_on = r.u8();
  s.qualify = r.u8();
  r.done();

  // Config hardening: reject anything the live drivers cannot honour
  // BEFORE any process starts building the world from it.
  if (s.cache_count == 0) fail("RunSpec: cache_count must be positive");
  if (s.group_count == 0 || s.group_count > s.cache_count) {
    fail("RunSpec: group_count must be in [1, cache_count]");
  }
  if (s.document_count == 0) fail("RunSpec: document_count must be positive");
  if (!(s.duration_ms > 0.0) || !std::isfinite(s.duration_ms)) {
    fail("RunSpec: duration_ms must be positive and finite");
  }
  if (!(s.plane_width_ms > 0.0) || !(s.plane_last_mile_ms >= 0.0)) {
    fail("RunSpec: bad plane geometry");
  }
  if (!(s.requests_per_cache_per_s > 0.0)) {
    fail("RunSpec: request rate must be positive");
  }
  if (s.profile > 1) fail("RunSpec: unknown stream profile");
  if (s.scheme > 1) fail("RunSpec: unknown formation scheme");
  if (s.num_landmarks < 2) fail("RunSpec: need at least 2 landmarks");
  if (s.m_multiplier == 0) fail("RunSpec: m_multiplier must be positive");
  if (s.probes_per_measurement == 0) {
    fail("RunSpec: probes_per_measurement must be positive");
  }
  if (!(s.jitter_sigma >= 0.0)) fail("RunSpec: jitter_sigma must be >= 0");
  if (s.cache_capacity_bytes == 0) {
    fail("RunSpec: cache capacity must be positive");
  }
  if (!(s.warmup_fraction >= 0.0 && s.warmup_fraction < 1.0)) {
    fail("RunSpec: warmup_fraction must be in [0, 1)");
  }
  if (s.consistency > 1) fail("RunSpec: unknown consistency mode");
  if (!(s.ttl_ms > 0.0)) fail("RunSpec: ttl_ms must be positive");
  for (const auto& f : s.failures) {
    if (f.cache >= s.cache_count) fail("RunSpec: failure names unknown cache");
    if (!(f.time_ms >= 0.0)) fail("RunSpec: failure time must be >= 0");
  }
  for (const auto& m : s.membership) {
    if (m.cache >= s.cache_count) {
      fail("RunSpec: membership event names unknown cache");
    }
    if (!(m.time_ms >= 0.0)) fail("RunSpec: membership time must be >= 0");
  }
  if (!(s.epoch_ms >= 0.0)) fail("RunSpec: epoch_ms must be >= 0");
  return s;
}

// ---- groups ---------------------------------------------------------------

std::vector<std::uint8_t> encode_groups(
    const std::vector<std::vector<cache::CacheIndex>>& groups) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(groups.size()));
  for (const auto& g : groups) {
    w.u32(static_cast<std::uint32_t>(g.size()));
    for (cache::CacheIndex c : g) w.u32(c);
  }
  return w.take();
}

std::vector<std::vector<cache::CacheIndex>> decode_groups(
    const std::vector<std::uint8_t>& payload, std::uint32_t cache_count) {
  Reader r(payload);
  const std::uint32_t ng = r.u32();
  if (ng == 0 || ng > cache_count) fail("groups: bad group count");
  std::vector<std::vector<cache::CacheIndex>> groups(ng);
  std::vector<bool> seen(cache_count, false);
  std::uint32_t total = 0;
  for (auto& g : groups) {
    const std::uint32_t sz = r.u32();
    if (sz == 0 || sz > cache_count) fail("groups: bad member count");
    g.resize(sz);
    for (auto& c : g) {
      c = r.u32();
      if (c >= cache_count) fail("groups: member out of range");
      if (seen[c]) fail("groups: cache appears twice");
      seen[c] = true;
    }
    total += sz;
  }
  r.done();
  if (total != cache_count) fail("groups: not a partition of [0, N)");
  return groups;
}

// ---- effects --------------------------------------------------------------

namespace {

constexpr std::uint8_t kMaxEventClass =
    static_cast<std::uint8_t>(sim::EventClass::kArrival);
constexpr std::uint8_t kMaxEffectKind =
    static_cast<std::uint8_t>(shard::BufferedEffect::Kind::kRttSample);
constexpr std::uint8_t kMaxTraceKind =
    static_cast<std::uint8_t>(obs::EventKind::kLinkUtil);
constexpr std::uint8_t kMaxResolution =
    static_cast<std::uint8_t>(sim::Resolution::kOriginFetch);

void encode_effect(Writer& w, const shard::BufferedEffect& e) {
  w.f64(e.key.time_ms);
  w.u8(e.key.klass);
  w.u64(e.key.event);
  w.u32(e.key.sub);
  w.u8(static_cast<std::uint8_t>(e.kind));
  switch (e.kind) {
    case shard::BufferedEffect::Kind::kTrace:
      w.u8(static_cast<std::uint8_t>(e.trace.kind));
      w.f64(e.trace.time_ms);
      w.f64(e.trace.a);
      w.f64(e.trace.b);
      w.f64(e.trace.c);
      w.f64(e.trace.d);
      break;
    case shard::BufferedEffect::Kind::kMetric:
      w.u32(e.cache);
      w.f64(e.value_ms);
      w.u8(static_cast<std::uint8_t>(e.how));
      w.f64(e.at_ms);
      break;
    case shard::BufferedEffect::Kind::kRttSample:
      w.u32(e.src);
      w.u32(e.dst);
      w.f64(e.value_ms);
      w.f64(e.at_ms);
      break;
  }
}

shard::BufferedEffect decode_effect(Reader& r) {
  shard::BufferedEffect e;
  e.key.time_ms = r.f64();
  e.key.klass = r.u8();
  if (e.key.klass > kMaxEventClass &&
      e.key.klass != static_cast<std::uint8_t>(sim::EventClass::kDefault)) {
    fail("effect: unknown event class");
  }
  e.key.event = r.u64();
  e.key.sub = r.u32();
  const std::uint8_t kind = r.u8();
  if (kind > kMaxEffectKind) fail("effect: unknown effect kind");
  e.kind = static_cast<shard::BufferedEffect::Kind>(kind);
  switch (e.kind) {
    case shard::BufferedEffect::Kind::kTrace: {
      const std::uint8_t tk = r.u8();
      if (tk > kMaxTraceKind) fail("effect: unknown trace event kind");
      e.trace.kind = static_cast<obs::EventKind>(tk);
      e.trace.time_ms = r.f64();
      e.trace.a = r.f64();
      e.trace.b = r.f64();
      e.trace.c = r.f64();
      e.trace.d = r.f64();
      break;
    }
    case shard::BufferedEffect::Kind::kMetric: {
      e.cache = r.u32();
      e.value_ms = r.f64();
      const std::uint8_t how = r.u8();
      if (how > kMaxResolution) fail("effect: unknown resolution");
      e.how = static_cast<sim::Resolution>(how);
      e.at_ms = r.f64();
      break;
    }
    case shard::BufferedEffect::Kind::kRttSample:
      e.src = r.u32();
      e.dst = r.u32();
      e.value_ms = r.f64();
      e.at_ms = r.f64();
      break;
  }
  return e;
}

}  // namespace

std::vector<std::uint8_t> encode_effects(const EffectsBatch& batch) {
  Writer w;
  w.u64(batch.executed);
  w.u64(batch.arrivals);
  w.f64(batch.earliest_pending);
  w.u32(static_cast<std::uint32_t>(batch.effects.size()));
  for (const auto& e : batch.effects) encode_effect(w, e);
  return w.take();
}

EffectsBatch decode_effects(const std::vector<std::uint8_t>& payload) {
  Reader r(payload);
  EffectsBatch batch;
  batch.executed = r.u64();
  batch.arrivals = r.u64();
  batch.earliest_pending = r.f64();
  const std::uint32_t n = r.u32();
  // Each effect is at least 22 bytes; a count the remaining payload can't
  // possibly hold is rejected before any allocation.
  if (static_cast<std::uint64_t>(n) * 22 > r.remaining()) {
    fail("effects: count exceeds payload");
  }
  batch.effects.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    batch.effects.push_back(decode_effect(r));
  }
  r.done();
  return batch;
}

// ---- barriers -------------------------------------------------------------

std::vector<std::uint8_t> encode_barrier(const BarrierMsg& b) {
  Writer w;
  w.f64(b.time_ms);
  w.u8(b.klass);
  w.u64(b.index);
  w.u8(b.synth);
  w.u32(b.cache);
  w.u8(b.kind);
  return w.take();
}

BarrierMsg decode_barrier(const std::vector<std::uint8_t>& payload) {
  Reader r(payload);
  BarrierMsg b;
  b.time_ms = r.f64();
  b.klass = r.u8();
  if (b.klass > kMaxEventClass) fail("barrier: unknown event class");
  b.index = r.u64();
  b.synth = r.u8();
  if (b.synth > 1) fail("barrier: bad synth flag");
  b.cache = r.u32();
  b.kind = r.u8();
  if (b.kind > 1) fail("barrier: bad membership kind");
  r.done();
  return b;
}

std::vector<std::uint8_t> encode_barrier_ack(const BarrierAck& a) {
  Writer w;
  w.u64(a.holders_dropped);
  w.u64(a.invalidations_delta);
  return w.take();
}

BarrierAck decode_barrier_ack(const std::vector<std::uint8_t>& payload) {
  Reader r(payload);
  BarrierAck a;
  a.holders_dropped = r.u64();
  a.invalidations_delta = r.u64();
  r.done();
  return a;
}

// ---- flush ----------------------------------------------------------------

std::vector<std::uint8_t> encode_flush_ack(const FlushAck& f) {
  Writer w;
  w.u64(f.tally.origin_fetches);
  w.u64(f.tally.failover_lookups);
  w.u64(f.tally.stale_served);
  w.u64(f.tally.wasted_summary_probes);
  w.u64(f.invalidations);
  return w.take();
}

FlushAck decode_flush_ack(const std::vector<std::uint8_t>& payload) {
  Reader r(payload);
  FlushAck f;
  f.tally.origin_fetches = r.u64();
  f.tally.failover_lookups = r.u64();
  f.tally.stale_served = r.u64();
  f.tally.wasted_summary_probes = r.u64();
  f.invalidations = r.u64();
  r.done();
  return f;
}

// ---- coop mirror ----------------------------------------------------------

std::vector<std::uint8_t> encode_coop(const CoopFrame& c) {
  Writer w;
  w.u32(c.src);
  w.u32(c.dst);
  w.f64(c.sent_ms);
  w.u64(c.bytes);
  w.f64(c.travel_ms);
  return w.take();
}

CoopFrame decode_coop(const std::vector<std::uint8_t>& payload) {
  Reader r(payload);
  CoopFrame c;
  c.src = r.u32();
  c.dst = r.u32();
  c.sent_ms = r.f64();
  c.bytes = r.u64();
  c.travel_ms = r.f64();
  r.done();
  return c;
}

// ---- error ----------------------------------------------------------------

std::vector<std::uint8_t> encode_error(const ErrorMsg& e) {
  Writer w;
  w.u16(e.code);
  w.str(e.text);
  return w.take();
}

ErrorMsg decode_error(const std::vector<std::uint8_t>& payload) {
  Reader r(payload);
  ErrorMsg e;
  e.code = r.u16();
  e.text = r.str();
  r.done();
  return e;
}

}  // namespace ecgf::live
