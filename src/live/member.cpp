#include "live/member.h"

#include <sstream>
#include <string>
#include <utility>

#include "live/exchange.h"
#include "obs/export.h"
#include "shard/plan.h"
#include "sim/message_engine.h"
#include "util/rng.h"

namespace ecgf::live {

namespace {

// Seeds the qualification workload's own RNG stream — independent of the
// catalog/workload/formation streams so the transport check never
// perturbs the run it is qualifying.
constexpr std::uint64_t kQualifySalt = 0x7175616C6966796Cull;  // "qualifyl"

Frame recv_expect(Socket& sock, MsgType want, double timeout_ms) {
  Frame f = sock.recv_frame(timeout_ms);
  if (f.type == MsgType::kError) {
    const ErrorMsg e = decode_error(f.payload);
    throw LiveError("peer reported error " + std::to_string(e.code) + ": " +
                    e.text);
  }
  if (f.type != want) {
    throw LiveError("unexpected frame type " +
                    std::to_string(static_cast<unsigned>(f.type)) +
                    " (wanted " + std::to_string(static_cast<unsigned>(want)) +
                    ")");
  }
  return f;
}

}  // namespace

int MemberProcess::run() {
  Socket sock = connect_loopback(options_.port, options_.connect_timeout_ms);
  sock.send_frame(MsgType::kRegister, {});

  Frame welcome = recv_expect(sock, MsgType::kWelcome, options_.io_timeout_ms);
  {
    Reader r(welcome.payload);
    member_id_ = r.u32();
    member_count_ = r.u32();
    r.done();
  }
  if (member_count_ == 0 || member_id_ >= member_count_) {
    throw LiveError("kWelcome assigned invalid member id " +
                    std::to_string(member_id_) + " of " +
                    std::to_string(member_count_));
  }

  Frame start = recv_expect(sock, MsgType::kStart, options_.io_timeout_ms);
  spec_ = decode_run_spec(start.payload);
  world_.emplace(build_world(spec_));
  sock.send_frame(MsgType::kStartAck, {});

  // Probe phase: answer RTT measurements until the coordinator announces
  // the formed partition (or aborts the run before forming one).
  for (;;) {
    Frame f = sock.recv_frame(options_.io_timeout_ms);
    if (f.type == MsgType::kProbe) {
      Reader r(f.payload);
      const std::uint32_t a = r.u32();
      const std::uint32_t b = r.u32();
      r.done();
      if (a > spec_.cache_count || b > spec_.cache_count) {
        throw LiveError("kProbe host out of range");
      }
      Writer w;
      w.u32(a);
      w.u32(b);
      w.f64(world_->rtt.rtt_ms(a, b));
      sock.send_frame(MsgType::kProbeEcho, w.take());
    } else if (f.type == MsgType::kFormation) {
      auto groups = decode_groups(f.payload, spec_.cache_count);
      engine_ = std::make_unique<sim::ShardableEngine>(
          world_->catalog, world_->rtt, world_->server(),
          sim_config_for(spec_, std::move(groups)));
      // One member == one shard of the in-process driver: the same
      // group-aligned plan maps caches to members, and this member's
      // stream slice covers exactly the caches it owns.
      shard::ShardPlan plan(engine_->groups(), engine_->cache_count(),
                            member_count_);
      auto streams = world_->workload->partition(
          member_count_,
          [&plan](std::uint32_t c) { return plan.shard_of_cache(c); }, 0.0);
      lane_.emplace(std::move(streams[member_id_]));
      // Same buffering filters the sharded driver applies to its shard
      // sinks: traces only when the coordinator has a sink to replay them
      // into, RTT observations never (live v1 runs hookless).
      sink_.set_trace_buffering(spec_.trace_on != 0);
      sink_.set_rtt_buffering(false);
      Writer w;
      w.f64(lane_->earliest());
      sock.send_frame(MsgType::kFormationAck, w.take());
      return serve(sock);
    } else if (f.type == MsgType::kStop) {
      return 0;
    } else if (f.type == MsgType::kError) {
      const ErrorMsg e = decode_error(f.payload);
      throw LiveError("coordinator error " + std::to_string(e.code) + ": " +
                      e.text);
    } else {
      throw LiveError("unexpected frame type " +
                      std::to_string(static_cast<unsigned>(f.type)) +
                      " during probe phase");
    }
  }
}

int MemberProcess::serve(Socket& sock) {
  for (;;) {
    Frame f = sock.recv_frame(options_.io_timeout_ms);
    switch (f.type) {
      case MsgType::kWindow: {
        Reader r(f.payload);
        // Only the window bound crosses the wire: an inclusive window is
        // the final drain, any other runs like an epoch window.
        shard::Cut cut;
        cut.time_ms = r.f64();
        if (r.u8() != 0) cut.kind = shard::Cut::Kind::kFinal;
        r.done();
        const shard::WindowCount count =
            lane_->run_window(cut, *engine_, sink_);
        EffectsBatch batch;
        batch.executed = count.executed;
        batch.arrivals = count.arrivals;
        batch.earliest_pending = lane_->earliest();
        batch.effects = sink_.effects();
        sock.send_frame(MsgType::kEffects, encode_effects(batch));
        sink_.clear();
        ++windows_run_;
        if (options_.abort_after_windows != 0 &&
            windows_run_ >= options_.abort_after_windows) {
          // Fault injection: vanish mid-run exactly like a crashed
          // process would (no goodbye frame). The coordinator must map
          // this onto the graceful-leave path.
          sock.close();
          return 9;
        }
        break;
      }
      case MsgType::kBarrier: {
        const BarrierAck ack = apply_barrier(decode_barrier(f.payload));
        sock.send_frame(MsgType::kBarrierAck, encode_barrier_ack(ack));
        break;
      }
      case MsgType::kQualify:
        qualify(sock);
        break;
      case MsgType::kFlush: {
        FlushAck ack;
        ack.tally = sink_.tally;
        ack.invalidations = engine_->invalidations_pushed();
        sock.send_frame(MsgType::kFlushAck, encode_flush_ack(ack));
        break;
      }
      case MsgType::kStop:
        return 0;
      case MsgType::kError: {
        const ErrorMsg e = decode_error(f.payload);
        throw LiveError("coordinator error " + std::to_string(e.code) + ": " +
                        e.text);
      }
      default: {
        ErrorMsg e;
        e.code = 1;
        e.text = "unexpected frame type " +
                 std::to_string(static_cast<unsigned>(f.type)) +
                 " during serving phase";
        sock.send_frame(MsgType::kError, encode_error(e));
        throw LiveError(e.text);
      }
    }
  }
}

BarrierAck MemberProcess::apply_barrier(const BarrierMsg& b) {
  // The coordinator owns every effect; this replica only keeps its state in
  // step.
  sim::DiscardSink discard;
  const auto klass = static_cast<sim::EventClass>(b.klass);
  if (klass == sim::EventClass::kMembership && b.synth != 0) {
    // A member-death departure exists in no script: cache and kind come
    // inline (decode_barrier has already rejected any kind past kJoin).
    if (b.cache >= engine_->cache_count()) {
      throw LiveError("synthetic kBarrier membership change malformed");
    }
    if (b.kind == static_cast<std::uint8_t>(
                      sim::MembershipChange::Kind::kLeave)) {
      engine_->on_leave(b.cache, b.time_ms, discard);
    } else {
      engine_->on_join(b.cache, b.time_ms, discard, nullptr);
    }
    return {};
  }
  const auto& config = engine_->config();
  const auto& updates = world_->workload->updates();
  const auto check_index = [&b](std::size_t count, const std::string& what) {
    if (b.synth != 0 || b.index >= count) {
      throw LiveError("kBarrier " + what + " index out of range");
    }
  };
  if (klass == sim::EventClass::kFailure) {
    check_index(config.failures.size(), "failure");
  } else if (klass == sim::EventClass::kMembership) {
    check_index(config.membership_events.size(), "membership");
  } else if (klass == sim::EventClass::kUpdate) {
    check_index(updates.size(), "update");
  } else {
    throw LiveError("unsupported kBarrier class " +
                    std::to_string(static_cast<unsigned>(b.klass)));
  }
  // Only this member's owned groups carry registrations and resident
  // copies (window events never ran for the others), so an update's
  // figures are this member's share of the global ones — the coordinator
  // sums the acks.
  const sim::BarrierOutcome out =
      engine_->on_barrier(klass, b.index, b.time_ms, updates, discard);
  BarrierAck ack;
  ack.holders_dropped = out.holders_dropped;
  ack.invalidations_delta = out.invalidations;
  return ack;
}

void MemberProcess::qualify(Socket& sock) {
  // A small message-level run of its own — independent workload stream,
  // same catalog/RTT/groups — executed twice: once through the default
  // in-process DirectExchange, once through SocketExchange with every
  // delivery mirrored to the coordinator. Identical reports plus a frame
  // count matching the engine's message count prove the wire carries the
  // full protocol flow without perturbing it.
  workload::WorkloadParams qp;
  qp.cache_count = spec_.cache_count;
  qp.duration_ms = 2'000.0;
  qp.requests_per_cache_per_s = 1.0;
  qp.zipf_alpha = spec_.zipf_alpha;
  qp.similarity = spec_.similarity;
  util::Rng qrng(spec_.seed ^ kQualifySalt);
  workload::SyntheticWorkload qw(qp, world_->catalog, qrng);
  workload::Trace qtrace = workload::materialise(qw);

  const auto base_config = [&] {
    sim::MessageEngineConfig mc;
    mc.base.groups = engine_->groups();
    mc.base.cache_capacity_bytes = spec_.cache_capacity_bytes;
    mc.base.beacons_per_group = spec_.beacons_per_group;
    mc.base.warmup_fraction = spec_.warmup_fraction;
    return mc;
  };
  const sim::MessageEngineReport direct = sim::run_message_level(
      world_->catalog, world_->rtt, world_->server(), base_config(), qtrace);

  sim::MessageEngineConfig mc = base_config();
  SocketExchange ex(&sock);
  mc.exchange = &ex;
  const sim::MessageEngineReport mirrored = sim::run_message_level(
      world_->catalog, world_->rtt, world_->server(), std::move(mc), qtrace);

  std::ostringstream left;
  std::ostringstream right;
  obs::write_report_jsonl(left, direct.base, "qualify");
  obs::write_report_jsonl(right, mirrored.base, "qualify");
  const bool ok = left.str() == right.str() && ex.frames() > 0 &&
                  mirrored.messages_sent == ex.deliveries();

  Writer w;
  w.u8(ok ? 1 : 0);
  w.u64(ex.frames());
  w.u64(mirrored.messages_sent);
  w.u64(ex.mirrored_bytes());
  sock.send_frame(MsgType::kQualifyAck, w.take());
}

}  // namespace ecgf::live
