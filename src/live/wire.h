// The live-mode wire format: versioned, length-prefixed frames on loopback
// TCP connecting one coordinator to N member processes (docs/live_mode.md).
//
// Every frame is
//
//   u32 magic "ECGF" | u16 version | u16 type | u32 payload length | payload
//
// in little-endian byte order, with doubles shipped as their IEEE-754 bit
// patterns so a value decodes to EXACTLY the bits that were encoded —
// determinism across processes is the whole point of live mode, and a
// text round-trip would quietly destroy it. Decoding validates everything
// (magic, version, known type, length cap, payload underrun/overrun,
// enum ranges), throwing WireError instead of reading out of bounds; the
// fuzz-style cases in tests/live_test.cpp run these paths under ASan.
//
// The handshake message set follows the classic coordinator/client test
// idiom (Register → Welcome with an assigned id → Start carrying the run
// description → Stop): a member knows nothing at connect time and learns
// the entire deterministic world — catalog, RTT plane, workload, scheme —
// from the RunSpec in the Start frame.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "shard/exchange.h"
#include "sim/config.h"
#include "sim/control.h"

namespace ecgf::live {

/// Malformed frame or payload. Decoders throw this instead of touching
/// bytes beyond the buffer; connection handlers translate it into a
/// kError reply plus a dropped peer.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Protocol-level failure above the frame layer: a handshake violation,
/// an unexpected frame type for the current phase, a peer-reported
/// kError, or a determinism cross-check that did not hold.
class LiveError : public std::runtime_error {
 public:
  explicit LiveError(const std::string& what) : std::runtime_error(what) {}
};

constexpr std::uint32_t kWireMagic = 0x46474345u;  // "ECGF" little-endian
constexpr std::uint16_t kWireVersion = 3;
/// Hard cap on a frame payload: large enough for any effect batch a smoke
/// or bench run produces, small enough that a corrupt length field cannot
/// make the receiver allocate the moon.
constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;
constexpr std::size_t kFrameHeaderBytes = 12;

/// Message types. Values are wire-stable; add at the end only.
enum class MsgType : std::uint16_t {
  kRegister = 1,      ///< member → coord: first frame on a new connection
  kWelcome = 2,       ///< coord → member: {member_id, member_count}
  kStart = 3,         ///< coord → member: RunSpec (the whole world)
  kStartAck = 4,      ///< member → coord: world built
  kProbe = 5,         ///< coord → member: measure rtt(a, b) at a's owner
  kProbeEcho = 6,     ///< member → coord: {a, b, rtt_ms}
  kFormation = 7,     ///< coord → member: the formed group partition
  kFormationAck = 8,  ///< member → coord: {earliest pending event time}
  kQualify = 9,       ///< coord → member 0: run the transport check
  kQualifyAck = 10,   ///< member → coord: {ok, frames, messages, bytes}
  kWindow = 11,       ///< coord → member: {cut, inclusive}
  kEffects = 12,      ///< member → coord: window counters + effect batch
  kBarrier = 13,      ///< coord → member: one barrier event to apply
  kBarrierAck = 14,   ///< member → coord: {holders, invalidations}
  kCoopFetch = 15,    ///< SocketExchange mirror of a data-body delivery
  kCoopControl = 16,  ///< SocketExchange mirror of a control delivery
  kFlush = 17,        ///< coord → member: send final counters
  kFlushAck = 18,     ///< member → coord: EngineTally + invalidations
  kStop = 19,         ///< coord → member: clean shutdown
  kError = 20,        ///< either direction: {code, text}; sender gives up
};

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;
};

// ---- primitive codecs -----------------------------------------------------

/// Append-only little-endian encoder.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// IEEE-754 bit pattern, exact round-trip.
  void f64(double v);
  /// u32 length + raw bytes.
  void str(const std::string& s);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer. Every
/// read throws WireError on underrun; done() catches trailing garbage.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();

  std::size_t remaining() const { return size_ - pos_; }
  /// Throws WireError unless the payload was consumed exactly.
  void done() const;

 private:
  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---- frame header ---------------------------------------------------------

/// Serialize a complete frame (header + payload).
std::vector<std::uint8_t> encode_frame(MsgType type,
                                       const std::vector<std::uint8_t>& payload);

/// Parse and validate a 12-byte header; returns {type, payload length}.
/// Throws WireError on bad magic, unsupported version, unknown type, or a
/// length beyond kMaxPayloadBytes.
struct FrameHeader {
  MsgType type;
  std::uint32_t length;
};
FrameHeader decode_header(const std::uint8_t* data, std::size_t size);

// ---- RunSpec --------------------------------------------------------------

/// Everything a process needs to reconstruct the deterministic world:
/// coordinator, members, and the sequential oracle all build the SAME
/// catalog, RTT plane, workload, and simulation config from one RunSpec,
/// which is what makes byte-identity across process boundaries possible.
/// Kept to the live-supported subset: no control hook (a regroup would
/// have to migrate per-cache stream state between processes), beacon
/// directory mode, no flow-level netmodel.
struct RunSpec {
  std::uint64_t seed = 2006;
  std::uint32_t cache_count = 24;
  std::uint32_t group_count = 4;  ///< K
  // Catalog (cache::CatalogParams subset; the rest stays at defaults).
  std::uint32_t document_count = 400;
  // net::PlaneRttProvider geometry; hosts = caches + origin at centre.
  double plane_width_ms = 100.0;
  double plane_last_mile_ms = 1.0;
  // workload::WorkloadParams subset.
  double duration_ms = 30'000.0;
  double requests_per_cache_per_s = 2.0;
  double zipf_alpha = 0.9;
  double similarity = 0.8;
  std::uint8_t profile = 0;  ///< workload::StreamProfile underlying value
  // Formation (core::SchemeConfig subset).
  std::uint8_t scheme = 0;  ///< 0 = SL, 1 = SDSL
  std::uint32_t num_landmarks = 6;
  std::uint32_t m_multiplier = 2;
  double theta = 2.0;
  std::uint32_t probes_per_measurement = 5;
  double jitter_sigma = 0.08;
  // sim::SimulationConfig subset.
  std::uint64_t cache_capacity_bytes = 8ull << 20;
  std::uint32_t beacons_per_group = 3;
  double warmup_fraction = 0.2;
  std::uint8_t consistency = 0;  ///< sim::ConsistencyMode underlying value
  double ttl_ms = 30'000.0;
  std::vector<sim::SimulationConfig::CacheFailure> failures;
  std::vector<sim::MembershipChange> membership;
  // Fixed epoch width (shard::ShardOptions::epoch_ms); 0 = derived and
  // adaptive (shard::EpochSchedule).
  double epoch_ms = 0.0;
  // Set by the coordinator before broadcast: members buffer trace effects
  // only when the coordinator has a trace sink to replay them into (the
  // same filter the sharded driver applies to its shard sinks).
  std::uint8_t trace_on = 0;
  /// Run the SocketExchange transport-qualification pass on member 0.
  std::uint8_t qualify = 1;
};

std::vector<std::uint8_t> encode_run_spec(const RunSpec& spec);
/// Decode + validate (counts positive, hosts in range, enums known,
/// event lists time-ordered fields sane). Throws WireError.
RunSpec decode_run_spec(const std::vector<std::uint8_t>& payload);

// ---- typed payloads -------------------------------------------------------

std::vector<std::uint8_t> encode_groups(
    const std::vector<std::vector<cache::CacheIndex>>& groups);
/// Decode + validate: the groups must partition [0, cache_count) exactly.
std::vector<std::vector<cache::CacheIndex>> decode_groups(
    const std::vector<std::uint8_t>& payload, std::uint32_t cache_count);

/// One member's post-window report: counters, the new head-event time
/// (+inf encoded as the IEEE bit pattern, which round-trips exactly), and
/// the buffered effects in canonical order.
struct EffectsBatch {
  std::uint64_t executed = 0;
  std::uint64_t arrivals = 0;
  double earliest_pending = 0.0;
  std::vector<shard::BufferedEffect> effects;
};

std::vector<std::uint8_t> encode_effects(const EffectsBatch& batch);
EffectsBatch decode_effects(const std::vector<std::uint8_t>& payload);

/// One coordinator barrier directive. Scripted barriers name an index
/// into the RunSpec's corresponding list (updates / failures /
/// membership); synthetic ones (synth = 1, the member-death leave path)
/// carry the cache and kind inline because they exist in no script.
struct BarrierMsg {
  double time_ms = 0.0;
  std::uint8_t klass = 0;  ///< sim::EventClass underlying value
  std::uint64_t index = 0;
  std::uint8_t synth = 0;
  std::uint32_t cache = 0;  ///< synth only
  std::uint8_t kind = 0;    ///< synth only: MembershipChange::Kind value
};

std::vector<std::uint8_t> encode_barrier(const BarrierMsg& b);
BarrierMsg decode_barrier(const std::vector<std::uint8_t>& payload);

/// Member's reply to a barrier: for updates, the member's local holder
/// count and invalidation delta (zero for every other class) — the
/// coordinator sums these across members to reconstruct the sequential
/// run's global `invalidation` trace event and `invalidations_pushed`
/// counter.
struct BarrierAck {
  std::uint64_t holders_dropped = 0;
  std::uint64_t invalidations_delta = 0;
};

std::vector<std::uint8_t> encode_barrier_ack(const BarrierAck& a);
BarrierAck decode_barrier_ack(const std::vector<std::uint8_t>& payload);

/// End-of-run flush: the member's commutative tally plus its engine's
/// total invalidation count (cross-checks the per-barrier deltas).
struct FlushAck {
  sim::EngineTally tally;
  std::uint64_t invalidations = 0;
};

std::vector<std::uint8_t> encode_flush_ack(const FlushAck& f);
FlushAck decode_flush_ack(const std::vector<std::uint8_t>& payload);

/// SocketExchange's mirror of one message-engine delivery.
struct CoopFrame {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  double sent_ms = 0.0;
  std::uint64_t bytes = 0;
  double travel_ms = 0.0;
};

std::vector<std::uint8_t> encode_coop(const CoopFrame& c);
CoopFrame decode_coop(const std::vector<std::uint8_t>& payload);

struct ErrorMsg {
  std::uint16_t code = 0;
  std::string text;
};

std::vector<std::uint8_t> encode_error(const ErrorMsg& e);
ErrorMsg decode_error(const std::vector<std::uint8_t>& payload);

}  // namespace ecgf::live
