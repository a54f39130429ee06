// Tests for live distributed mode (src/live).
//
// Three layers:
//   * Wire format — round-trip every typed payload, and reject truncated /
//     oversized / bad-magic / bad-version / trailing-garbage frames with
//     WireError instead of undefined behaviour (these paths run under the
//     ASan shard of scripts/check.sh).
//   * Handshake — the coordinator's accept state machine turns a bad
//     first frame into a rejection without poisoning the run; a member
//     rejects a nonsensical kWelcome.
//   * End to end — coordinator + member THREADS (same binary, the
//     processes of examples/ use the identical classes) over loopback:
//     the merged live report and trace bytes must equal the sequential
//     oracle's bit for bit, across consistency modes and scripted churn;
//     a member killed mid-run degrades into graceful departures instead
//     of hanging.
//
// Every socket-touching test skips (with the reason recorded) when the
// sandbox forbids loopback sockets or ECGF_SKIP_LIVE=1 is set.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "live/coordinator.h"
#include "live/member.h"
#include "live/runspec.h"
#include "live/sock.h"
#include "live/wire.h"
#include "net/synthetic.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "shard/sharded_sim.h"
#include "sim/event_queue.h"
#include "sim/message_engine.h"
#include "util/expect.h"
#include "util/flags.h"

namespace ecgf::live {
namespace {

#define ECGF_REQUIRE_LIVE()                                              \
  do {                                                                   \
    if (skip_live_requested())                                           \
      GTEST_SKIP() << "ECGF_SKIP_LIVE=1: live-mode tests waived";        \
    if (!sockets_available())                                            \
      GTEST_SKIP() << "sandbox forbids loopback sockets";                \
  } while (false)

// ----------------------------------------------------------------------
// Wire format
// ----------------------------------------------------------------------

TEST(Wire, FrameHeaderRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const auto bytes = encode_frame(MsgType::kEffects, payload);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + payload.size());
  const FrameHeader h = decode_header(bytes.data(), bytes.size());
  EXPECT_EQ(h.type, MsgType::kEffects);
  EXPECT_EQ(h.length, payload.size());
}

TEST(Wire, HeaderRejectsCorruption) {
  const auto good = encode_frame(MsgType::kStop, {});
  // Short buffer.
  EXPECT_THROW(decode_header(good.data(), kFrameHeaderBytes - 1), WireError);
  // Bad magic.
  auto bad = good;
  bad[0] ^= 0xFF;
  EXPECT_THROW(decode_header(bad.data(), bad.size()), WireError);
  // Unsupported version.
  bad = good;
  bad[4] = 0x7F;
  EXPECT_THROW(decode_header(bad.data(), bad.size()), WireError);
  // Unknown message type.
  bad = good;
  bad[6] = 0xEE;
  bad[7] = 0xEE;
  EXPECT_THROW(decode_header(bad.data(), bad.size()), WireError);
  // Length beyond the cap.
  bad = good;
  bad[8] = 0xFF;
  bad[9] = 0xFF;
  bad[10] = 0xFF;
  bad[11] = 0xFF;
  EXPECT_THROW(decode_header(bad.data(), bad.size()), WireError);
}

RunSpec fancy_spec() {
  RunSpec s;
  s.seed = 0xDEADBEEFCAFEull;
  s.cache_count = 9;
  s.group_count = 3;
  s.document_count = 42;
  s.duration_ms = 1'234.5;
  s.requests_per_cache_per_s = 3.25;
  s.zipf_alpha = 0.75;
  s.similarity = 0.5;
  s.scheme = 1;
  s.num_landmarks = 4;
  s.consistency = 1;
  s.ttl_ms = 9'000.0;
  s.failures = {{2, 500.0}, {7, 900.0}};
  s.membership = {{sim::MembershipChange::Kind::kLeave, 4, 600.0},
                  {sim::MembershipChange::Kind::kJoin, 4, 1'000.0}};
  s.epoch_ms = 25.0;
  s.trace_on = 1;
  s.qualify = 0;
  return s;
}

TEST(Wire, RunSpecRoundTrip) {
  const RunSpec s = fancy_spec();
  const RunSpec d = decode_run_spec(encode_run_spec(s));
  EXPECT_EQ(d.seed, s.seed);
  EXPECT_EQ(d.cache_count, s.cache_count);
  EXPECT_EQ(d.group_count, s.group_count);
  EXPECT_EQ(d.document_count, s.document_count);
  EXPECT_EQ(d.duration_ms, s.duration_ms);
  EXPECT_EQ(d.requests_per_cache_per_s, s.requests_per_cache_per_s);
  EXPECT_EQ(d.zipf_alpha, s.zipf_alpha);
  EXPECT_EQ(d.similarity, s.similarity);
  EXPECT_EQ(d.scheme, s.scheme);
  EXPECT_EQ(d.num_landmarks, s.num_landmarks);
  EXPECT_EQ(d.consistency, s.consistency);
  EXPECT_EQ(d.ttl_ms, s.ttl_ms);
  ASSERT_EQ(d.failures.size(), 2u);
  EXPECT_EQ(d.failures[1].cache, 7u);
  EXPECT_EQ(d.failures[1].time_ms, 900.0);
  ASSERT_EQ(d.membership.size(), 2u);
  EXPECT_EQ(d.membership[0].kind, sim::MembershipChange::Kind::kLeave);
  EXPECT_EQ(d.membership[1].cache, 4u);
  EXPECT_EQ(d.epoch_ms, s.epoch_ms);
  EXPECT_EQ(d.trace_on, s.trace_on);
  EXPECT_EQ(d.qualify, s.qualify);
}

TEST(Wire, RunSpecRejectsMalformedPayloads) {
  auto bytes = encode_run_spec(fancy_spec());
  // Truncation at every prefix length must throw, never read past the end.
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    std::vector<std::uint8_t> trunc(bytes.begin(), bytes.begin() + cut);
    EXPECT_THROW(decode_run_spec(trunc), WireError) << "cut=" << cut;
  }
  // Trailing garbage.
  bytes.push_back(0);
  EXPECT_THROW(decode_run_spec(bytes), WireError);

  // Semantic hardening.
  RunSpec zero = fancy_spec();
  zero.cache_count = 0;
  EXPECT_THROW(decode_run_spec(encode_run_spec(zero)), WireError);
  RunSpec few = fancy_spec();
  few.group_count = few.cache_count + 1;
  EXPECT_THROW(decode_run_spec(encode_run_spec(few)), WireError);
  RunSpec bad_host = fancy_spec();
  bad_host.failures = {{99, 10.0}};
  EXPECT_THROW(decode_run_spec(encode_run_spec(bad_host)), WireError);
  RunSpec bad_mode = fancy_spec();
  bad_mode.consistency = 9;
  EXPECT_THROW(decode_run_spec(encode_run_spec(bad_mode)), WireError);
}

TEST(Wire, GroupsRoundTripAndPartitionCheck) {
  const std::vector<std::vector<cache::CacheIndex>> groups = {
      {0, 3, 5}, {1, 4}, {2, 6, 7}};
  EXPECT_EQ(decode_groups(encode_groups(groups), 8), groups);

  // Not a partition: missing cache 7.
  const std::vector<std::vector<cache::CacheIndex>> missing = {
      {0, 3, 5}, {1, 4}, {2, 6}};
  EXPECT_THROW(decode_groups(encode_groups(missing), 8), WireError);
  // Duplicate cache.
  const std::vector<std::vector<cache::CacheIndex>> dup = {
      {0, 3, 5}, {1, 4, 4}, {2, 6, 7}};
  EXPECT_THROW(decode_groups(encode_groups(dup), 8), WireError);
  // Out of range.
  EXPECT_THROW(decode_groups(encode_groups(groups), 7), WireError);
}

TEST(Wire, EffectsBatchRoundTripAllKinds) {
  EffectsBatch b;
  b.executed = 17;
  b.arrivals = 9;
  b.earliest_pending = std::numeric_limits<double>::infinity();
  shard::BufferedEffect t;
  t.key = {12.5, 6, 42, 0};
  t.kind = shard::BufferedEffect::Kind::kTrace;
  t.trace = obs::TraceEvent::request(12.5, 3, 7);
  b.effects.push_back(t);
  shard::BufferedEffect m;
  m.key = {13.0, 5, 42, 1};
  m.kind = shard::BufferedEffect::Kind::kMetric;
  m.cache = 3;
  m.value_ms = 4.25;
  m.how = sim::Resolution::kGroupHit;
  m.at_ms = 13.0;
  b.effects.push_back(m);
  shard::BufferedEffect r;
  r.key = {13.0, 5, 42, 2};
  r.kind = shard::BufferedEffect::Kind::kRttSample;
  r.src = 3;
  r.dst = 8;
  r.value_ms = 21.5;
  r.at_ms = 13.0;
  b.effects.push_back(r);

  const EffectsBatch d = decode_effects(encode_effects(b));
  EXPECT_EQ(d.executed, 17u);
  EXPECT_EQ(d.arrivals, 9u);
  EXPECT_EQ(d.earliest_pending, b.earliest_pending);  // +inf round-trips
  ASSERT_EQ(d.effects.size(), 3u);
  EXPECT_EQ(d.effects[0].kind, shard::BufferedEffect::Kind::kTrace);
  EXPECT_EQ(d.effects[0].trace.kind, obs::EventKind::kRequest);
  EXPECT_EQ(d.effects[0].trace.time_ms, 12.5);
  EXPECT_EQ(d.effects[0].key.event, 42u);
  EXPECT_EQ(d.effects[1].kind, shard::BufferedEffect::Kind::kMetric);
  EXPECT_EQ(d.effects[1].how, sim::Resolution::kGroupHit);
  EXPECT_EQ(d.effects[1].value_ms, 4.25);
  EXPECT_EQ(d.effects[2].kind, shard::BufferedEffect::Kind::kRttSample);
  EXPECT_EQ(d.effects[2].dst, 8u);

  // Truncation never reads out of bounds.
  const auto bytes = encode_effects(b);
  for (std::size_t cut = 0; cut < bytes.size(); cut += 5) {
    std::vector<std::uint8_t> trunc(bytes.begin(), bytes.begin() + cut);
    EXPECT_THROW(decode_effects(trunc), WireError) << "cut=" << cut;
  }
  // An implausible effect count must be rejected before any allocation.
  std::vector<std::uint8_t> lying(bytes.begin(), bytes.begin() + 32);
  lying[24] = 0xFF;
  lying[25] = 0xFF;
  lying[26] = 0xFF;
  lying[27] = 0xFF;  // count field
  EXPECT_THROW(decode_effects(lying), WireError);
}

TEST(Wire, ControlPayloadsRoundTrip) {
  BarrierMsg scripted;
  scripted.time_ms = 777.5;
  scripted.klass = 2;
  scripted.index = 13;
  const BarrierMsg s2 = decode_barrier(encode_barrier(scripted));
  EXPECT_EQ(s2.time_ms, 777.5);
  EXPECT_EQ(s2.klass, 2);
  EXPECT_EQ(s2.index, 13u);
  EXPECT_EQ(s2.synth, 0);

  BarrierMsg synth;
  synth.time_ms = 900.0;
  synth.klass = 1;
  synth.synth = 1;
  synth.cache = 6;
  synth.kind = 0;
  const BarrierMsg y2 = decode_barrier(encode_barrier(synth));
  EXPECT_EQ(y2.synth, 1);
  EXPECT_EQ(y2.cache, 6u);
  EXPECT_EQ(y2.kind, 0);

  BarrierAck ack;
  ack.applied = 1;
  ack.holders_dropped = 5;
  ack.invalidations_delta = 4;
  const BarrierAck a2 = decode_barrier_ack(encode_barrier_ack(ack));
  EXPECT_EQ(a2.applied, 1);
  EXPECT_EQ(a2.holders_dropped, 5u);
  EXPECT_EQ(a2.invalidations_delta, 4u);

  FlushAck fl;
  fl.tally.origin_fetches = 100;
  fl.tally.failover_lookups = 3;
  fl.tally.stale_served = 2;
  fl.tally.wasted_summary_probes = 1;
  fl.invalidations = 44;
  const FlushAck f2 = decode_flush_ack(encode_flush_ack(fl));
  EXPECT_EQ(f2.tally.origin_fetches, 100u);
  EXPECT_EQ(f2.tally.failover_lookups, 3u);
  EXPECT_EQ(f2.tally.stale_served, 2u);
  EXPECT_EQ(f2.tally.wasted_summary_probes, 1u);
  EXPECT_EQ(f2.invalidations, 44u);

  CoopFrame c;
  c.src = 4;
  c.dst = 9;
  c.sent_ms = 55.5;
  c.bytes = 1'000;
  c.travel_ms = 7.25;
  const CoopFrame c2 = decode_coop(encode_coop(c));
  EXPECT_EQ(c2.src, 4u);
  EXPECT_EQ(c2.dst, 9u);
  EXPECT_EQ(c2.sent_ms, 55.5);
  EXPECT_EQ(c2.bytes, 1'000u);
  EXPECT_EQ(c2.travel_ms, 7.25);

  ErrorMsg e;
  e.code = 3;
  e.text = "something went sideways";
  const ErrorMsg e2 = decode_error(encode_error(e));
  EXPECT_EQ(e2.code, 3);
  EXPECT_EQ(e2.text, e.text);

  // Truncated error text (declared length past the buffer).
  auto bytes = encode_error(e);
  bytes.resize(bytes.size() - 4);
  EXPECT_THROW(decode_error(bytes), WireError);
}

// ----------------------------------------------------------------------
// MessageExchange::validate diagnostics (the live transport's safety net)
// ----------------------------------------------------------------------

TEST(ExchangeDiagnostics, ValidateNamesEndpointsAndReason) {
  sim::EventQueue queue;
  const auto noop = [](sim::SimTime) {};

  // Before bind(): no host universe yet.
  {
    sim::DirectExchange ex;
    try {
      ex.deliver(0, 1, 0.0, queue, noop);
      FAIL() << "deliver before bind() must throw";
    } catch (const util::ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("before bind()"), std::string::npos) << what;
      EXPECT_NE(what.find("src=0"), std::string::npos) << what;
      EXPECT_NE(what.find("dst=1"), std::string::npos) << what;
    }
  }

  net::PlaneRttProvider rtt(5, {});
  const sim::CostModel cost;
  // Out-of-range endpoint: names both ends and the registered universe.
  {
    sim::DirectExchange ex;
    ex.bind(rtt, cost, 200, 4, 4);
    try {
      ex.deliver(1, 17, 0.0, queue, noop);
      FAIL() << "deliver to unregistered host must throw";
    } catch (const util::ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("out of range"), std::string::npos) << what;
      EXPECT_NE(what.find("cache 1"), std::string::npos) << what;
      EXPECT_NE(what.find("unregistered host 17"), std::string::npos) << what;
      EXPECT_NE(what.find("[0, 4)"), std::string::npos) << what;
    }
    // The origin id is registered and described as such.
    EXPECT_NO_THROW(ex.deliver(0, 4, 0.0, queue, noop));
  }

  // Downed destination: reason says down, not unregistered.
  {
    sim::DirectExchange ex;
    ex.bind(rtt, cost, 200, 4, 4);
    ex.mark_down(2);
    try {
      ex.deliver(0, 2, 0.0, queue, noop);
      FAIL() << "deliver to downed host must throw";
    } catch (const util::ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("downed host"), std::string::npos) << what;
      EXPECT_NE(what.find("cache 2"), std::string::npos) << what;
      EXPECT_NE(what.find("mark_down"), std::string::npos) << what;
    }
  }
}

// ----------------------------------------------------------------------
// End to end over loopback
// ----------------------------------------------------------------------

RunSpec small_spec() {
  RunSpec s;
  s.seed = 77;
  s.cache_count = 12;
  s.group_count = 3;
  s.document_count = 80;
  s.duration_ms = 4'000.0;
  s.requests_per_cache_per_s = 5.0;
  s.num_landmarks = 4;
  s.probes_per_measurement = 3;
  s.cache_capacity_bytes = 256'000;
  s.qualify = 0;
  return s;
}

struct PairRun {
  LiveRunResult live;
  OracleResult oracle;
  std::string live_report;
  std::string oracle_report;
  std::string live_trace;
  std::string oracle_trace;
};

/// Run `spec` live (coordinator + member threads on loopback) and through
/// the sequential oracle, capturing reports and trace bytes from both.
PairRun run_pair(const RunSpec& spec, std::uint32_t members, bool traced) {
  PairRun out;
  {
    std::ostringstream trace_out;
    // Scoped so the Tracer flushes its buffered events into trace_out
    // before the bytes are read.
    std::optional<obs::Tracer> tracer;
    obs::TraceContext ctx;
    if (traced) {
      tracer.emplace(std::make_unique<obs::JsonlTraceSink>(trace_out));
      ctx = obs::TraceContext::root(&*tracer, 1);
    }
    CoordinatorOptions copts;
    copts.members = members;
    Coordinator coordinator(spec, copts, ctx);
    const std::uint16_t port = coordinator.port();
    std::vector<std::thread> threads;
    std::vector<std::string> member_errors(members);
    threads.reserve(members);
    for (std::uint32_t m = 0; m < members; ++m) {
      threads.emplace_back([port, m, &member_errors] {
        try {
          MemberOptions mo;
          mo.port = port;
          MemberProcess(mo).run();
        } catch (const std::exception& e) {
          member_errors[m] = e.what();
        }
      });
    }
    std::string coord_error;
    try {
      out.live = coordinator.run();
    } catch (const std::exception& e) {
      coord_error = e.what();
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(coord_error, "");
    for (std::uint32_t m = 0; m < members; ++m) {
      EXPECT_EQ(member_errors[m], "") << "member " << m;
    }
    tracer.reset();  // flush buffered events before reading
    out.live_trace = trace_out.str();
  }
  {
    std::ostringstream trace_out;
    std::optional<obs::Tracer> tracer;
    obs::TraceContext ctx;
    if (traced) {
      tracer.emplace(std::make_unique<obs::JsonlTraceSink>(trace_out));
      ctx = obs::TraceContext::root(&*tracer, 1);
    }
    out.oracle = run_oracle(spec, ctx);
    tracer.reset();
    out.oracle_trace = trace_out.str();
  }
  std::ostringstream a;
  obs::write_report_jsonl(a, out.live.report, "live");
  out.live_report = a.str();
  std::ostringstream b;
  obs::write_report_jsonl(b, out.oracle.report, "live");
  out.oracle_report = b.str();
  return out;
}

class LiveEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override { util::set_trace_enabled(true); }
  void TearDown() override { util::set_trace_enabled(false); }
};

TEST_F(LiveEndToEnd, ReportAndTraceMatchOracleWithQualification) {
  ECGF_REQUIRE_LIVE();
  RunSpec spec = small_spec();
  spec.qualify = 1;
  const PairRun pair = run_pair(spec, 3, /*traced=*/true);

  // The run did real distributed work...
  EXPECT_GT(pair.live.report.requests_processed, 0u);
  EXPECT_GT(pair.live.report.counts.group_hits, 0u);
  EXPECT_GT(pair.live.cuts, 0u);
  EXPECT_GT(pair.live.windows, 0u);
  EXPECT_GT(pair.live.probes, 0u);
  EXPECT_EQ(pair.live.members_lost, 0u);
  // ...the transport qualification mirrored the full protocol flow
  // (self-deliveries stay local, so messages strictly exceed frames)...
  EXPECT_TRUE(pair.live.qualify_ran);
  EXPECT_GT(pair.live.qualify_frames, 0u);
  EXPECT_GT(pair.live.qualify_messages, pair.live.qualify_frames);
  // ...and the merged output is the oracle's, byte for byte.
  EXPECT_EQ(pair.live.groups, pair.oracle.groups);
  EXPECT_EQ(pair.live_report, pair.oracle_report);
  ASSERT_FALSE(pair.live_trace.empty());
  EXPECT_EQ(pair.live_trace, pair.oracle_trace);
}

TEST_F(LiveEndToEnd, ScriptedChurnAndFailuresMatchOracle) {
  ECGF_REQUIRE_LIVE();
  RunSpec spec = small_spec();
  spec.seed = 2006;
  spec.failures = {{5, 1'500.0}};
  spec.membership = {{sim::MembershipChange::Kind::kLeave, 2, 1'000.0},
                     {sim::MembershipChange::Kind::kJoin, 2, 2'500.0}};
  const PairRun pair = run_pair(spec, 4, /*traced=*/true);
  EXPECT_EQ(pair.live.report.failures_applied, 1u);
  EXPECT_EQ(pair.live_report, pair.oracle_report);
  EXPECT_EQ(pair.live_trace, pair.oracle_trace);
}

// Both drivers consume one shard::EpochSchedule and one shard::ShardLane
// window loop, so a live run on M members cuts the run exactly where the
// in-process driver with M shards does, barriers and churn included.
TEST_F(LiveEndToEnd, CutScheduleMatchesTheShardedDriver) {
  ECGF_REQUIRE_LIVE();
  for (const std::uint64_t seed : {77ull, 606ull, 2006ull}) {
    RunSpec spec = small_spec();
    spec.seed = seed;
    spec.failures = {{5, 1'500.0}};
    spec.membership = {{sim::MembershipChange::Kind::kLeave, 2, 1'000.0},
                       {sim::MembershipChange::Kind::kJoin, 2, 2'500.0}};
    for (std::uint32_t members = 1; members <= 4; ++members) {
      const PairRun pair = run_pair(spec, members, /*traced=*/false);
      EXPECT_EQ(pair.live_report, pair.oracle_report);

      World world = build_world(spec);
      shard::ShardOptions options;
      options.shards = members;
      shard::ShardedSimulator sharded(
          world.catalog, world.rtt, world.server(),
          sim_config_for(spec, form_live_groups(spec, world.rtt, nullptr)),
          options);
      sharded.run(*world.workload);
      EXPECT_EQ(pair.live.cuts, sharded.cuts_executed())
          << "seed " << seed << ", " << members << " members";
      EXPECT_EQ(pair.live.windows, sharded.windows_dispatched())
          << "seed " << seed << ", " << members << " members";
    }
  }
}

TEST_F(LiveEndToEnd, TtlConsistencyMatchesOracle) {
  ECGF_REQUIRE_LIVE();
  RunSpec spec = small_spec();
  spec.consistency = 1;  // TTL
  spec.ttl_ms = 1'000.0;
  const PairRun pair = run_pair(spec, 2, /*traced=*/false);
  EXPECT_EQ(pair.live_report, pair.oracle_report);
}

TEST_F(LiveEndToEnd, MemberKillDegradesIntoGracefulLeaves) {
  ECGF_REQUIRE_LIVE();
  RunSpec spec = small_spec();
  spec.duration_ms = 8'000.0;
  CoordinatorOptions copts;
  copts.members = 2;
  Coordinator coordinator(spec, copts);
  const std::uint16_t port = coordinator.port();
  std::vector<std::thread> threads;
  std::vector<int> rcs(2, -1);
  for (std::uint32_t m = 0; m < 2; ++m) {
    threads.emplace_back([port, m, &rcs] {
      MemberOptions mo;
      mo.port = port;
      // One member vanishes after a few windows; the other serves the
      // whole run.
      if (m == 0) mo.abort_after_windows = 3;
      rcs[m] = MemberProcess(mo).run();
    });
  }
  const LiveRunResult result = coordinator.run();
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(result.members_lost, 1u);
  EXPECT_GT(result.synthetic_leaves, 0u);
  // The dead member's caches departed; the survivor's kept serving.
  EXPECT_EQ(result.report.leaves_applied, result.synthetic_leaves);
  EXPECT_GT(result.report.requests_processed, 0u);
  // One member aborted (rc 9), one stopped cleanly (rc 0) — order of the
  // abort flag, not of thread ids.
  EXPECT_EQ(rcs[0], 9);
  EXPECT_EQ(rcs[1], 0);
}

// ----------------------------------------------------------------------
// Handshake state machine
// ----------------------------------------------------------------------

TEST(Handshake, BadFirstFrameIsRejectedWithoutPoisoningTheRun) {
  if (skip_live_requested()) GTEST_SKIP() << "ECGF_SKIP_LIVE=1";
  if (!sockets_available()) GTEST_SKIP() << "no loopback sockets";

  RunSpec spec = small_spec();
  spec.duration_ms = 1'000.0;
  CoordinatorOptions copts;
  copts.members = 1;
  Coordinator coordinator(spec, copts);
  const std::uint16_t port = coordinator.port();

  std::thread driver([port] {
    // An impostor speaks out of turn: kProbe where kRegister is required.
    {
      Socket bad = connect_loopback(port, 10'000.0);
      Writer w;
      w.u32(0);
      w.u32(1);
      bad.send_frame(MsgType::kProbe, w.bytes());
      const Frame reply = bad.recv_frame(10'000.0);
      EXPECT_EQ(reply.type, MsgType::kError);
    }
    // A well-behaved member then completes the whole run.
    MemberOptions mo;
    mo.port = port;
    EXPECT_EQ(MemberProcess(mo).run(), 0);
  });
  const LiveRunResult result = coordinator.run();
  driver.join();
  EXPECT_EQ(result.rejected_connections, 1u);
  EXPECT_EQ(result.members_lost, 0u);
  EXPECT_GT(result.report.requests_processed, 0u);
}

TEST(Handshake, MemberRejectsNonsensicalWelcome) {
  if (skip_live_requested()) GTEST_SKIP() << "ECGF_SKIP_LIVE=1";
  if (!sockets_available()) GTEST_SKIP() << "no loopback sockets";

  Listener listener(0);
  const std::uint16_t port = listener.port();
  bool threw = false;
  std::thread member([port, &threw] {
    MemberOptions mo;
    mo.port = port;
    try {
      MemberProcess(mo).run();
    } catch (const LiveError&) {
      threw = true;
    }
  });
  std::optional<Socket> conn = listener.accept(10'000.0);
  ASSERT_TRUE(conn.has_value());
  const Frame reg = conn->recv_frame(10'000.0);
  ASSERT_EQ(reg.type, MsgType::kRegister);
  // Member id 5 of a 2-member group: nonsense the member must refuse.
  Writer w;
  w.u32(5);
  w.u32(2);
  conn->send_frame(MsgType::kWelcome, w.bytes());
  member.join();
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace ecgf::live
