#include "live/coordinator.h"

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <utility>

#include "shard/plan.h"
#include "util/expect.h"

namespace ecgf::live {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

double WireRttProvider::rtt_ms(net::HostId a, net::HostId b) const {
  if (a == b) return local_.rtt_ms(a, b);
  const std::size_t n = local_.host_count();
  const std::size_t idx = static_cast<std::size_t>(a) * n + b;
  if (cache_[idx] >= 0.0) return cache_[idx];
  const double wire = probe_(a, b);
  const double local = local_.rtt_ms(a, b);
  // Bit-exact or bust: both processes derived the value from the same
  // RunSpec through the same code, so any difference at all means the
  // worlds diverged and every downstream byte would too.
  if (wire != local) {
    throw LiveError("probe echo mismatch for (" + std::to_string(a) + ", " +
                    std::to_string(b) + "): wire " + std::to_string(wire) +
                    " vs local " + std::to_string(local));
  }
  ++probes_sent_;
  cache_[idx] = wire;
  cache_[static_cast<std::size_t>(b) * n + a] = wire;
  return wire;
}

Coordinator::Coordinator(RunSpec spec, CoordinatorOptions options,
                         obs::TraceContext trace)
    : options_(options), trace_(std::move(trace)), listener_(options.port) {
  ECGF_EXPECTS(options_.members >= 1);
  // Round-trip the spec through the wire codec so the coordinator applies
  // the exact hardening members do — an invalid spec fails here, in one
  // process, instead of asynchronously in N.
  spec_ = decode_run_spec(encode_run_spec(spec));
  if (!trace_.active()) {
    trace_ = obs::TraceContext::root(obs::global_tracer(), 0);
  }
  // Members buffer trace effects only when this process can replay them
  // into a real sink — the same filter the sharded driver applies.
  spec_.trace_on = trace_.tracer() != nullptr ? 1 : 0;
}

void Coordinator::accept_members(LiveRunResult& result) {
  members_.clear();
  while (members_.size() < options_.members) {
    std::optional<Socket> conn = listener_.accept(options_.accept_timeout_ms);
    if (!conn.has_value()) {
      throw LiveError("timed out waiting for " +
                      std::to_string(options_.members) + " members (" +
                      std::to_string(members_.size()) + " registered)");
    }
    // The handshake state machine: the FIRST frame on a connection must
    // be kRegister. Anything else — wrong type, malformed frame, silence
    // — rejects that connection only; the accept loop keeps going.
    try {
      Frame f = conn->recv_frame(options_.io_timeout_ms);
      if (f.type != MsgType::kRegister) {
        ErrorMsg e;
        e.code = 2;
        e.text = "expected kRegister as first frame";
        conn->send_frame(MsgType::kError, encode_error(e));
        ++result.rejected_connections;
        continue;
      }
      Reader r(f.payload);
      r.done();  // kRegister carries no payload
    } catch (const WireError&) {
      ++result.rejected_connections;
      continue;
    } catch (const SockError&) {
      ++result.rejected_connections;
      continue;
    }
    Member m;
    m.sock = std::move(*conn);
    m.alive = true;
    Writer w;
    w.u32(static_cast<std::uint32_t>(members_.size()));
    w.u32(options_.members);
    m.sock.send_frame(MsgType::kWelcome, w.bytes());
    members_.push_back(std::move(m));
  }
}

template <typename Call>
bool Coordinator::member_call(std::size_t m, Call&& call) {
  try {
    call();
    return true;
  } catch (const SockError&) {
  } catch (const WireError&) {
  } catch (const LiveError&) {
  }
  mark_dead(m);
  return false;
}

void Coordinator::broadcast(MsgType type,
                            const std::vector<std::uint8_t>& payload) {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (!members_[i].alive) continue;
    member_call(i, [&] { members_[i].sock.send_frame(type, payload); });
  }
}

Frame Coordinator::expect_from(std::size_t m, MsgType want) {
  Frame f = members_[m].sock.recv_frame(options_.io_timeout_ms);
  if (f.type == MsgType::kError) {
    const ErrorMsg e = decode_error(f.payload);
    throw LiveError("member " + std::to_string(m) + " reported error " +
                    std::to_string(e.code) + ": " + e.text);
  }
  if (f.type != want) {
    throw LiveError("member " + std::to_string(m) + " sent frame type " +
                    std::to_string(static_cast<unsigned>(f.type)) +
                    " (wanted " + std::to_string(static_cast<unsigned>(want)) +
                    ")");
  }
  return f;
}

void Coordinator::require_all_alive(const char* phase) const {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (!members_[i].alive) {
      throw LiveError("member " + std::to_string(i) + " died during " + phase);
    }
  }
}

void Coordinator::mark_dead(std::size_t m) {
  if (!members_[m].alive) return;
  members_[m].alive = false;
  members_[m].sock.close();
  members_[m].earliest = kInf;
  newly_dead_.push_back(m);
}

void Coordinator::run_qualify(LiveRunResult& result) {
  if (spec_.qualify == 0) return;
  Member& m0 = members_[0];
  m0.sock.send_frame(MsgType::kQualify, {});
  // Drain the mirrored delivery stream until the verdict arrives. Every
  // frame is decoded (and therefore validated) — the point is that the
  // wire genuinely carried the full protocol flow.
  for (;;) {
    Frame f = m0.sock.recv_frame(options_.io_timeout_ms);
    if (f.type == MsgType::kCoopFetch || f.type == MsgType::kCoopControl) {
      decode_coop(f.payload);
      ++result.qualify_frames;
      continue;
    }
    if (f.type == MsgType::kQualifyAck) {
      Reader r(f.payload);
      const bool ok = r.u8() != 0;
      const std::uint64_t frames = r.u64();
      const std::uint64_t messages = r.u64();
      r.u64();  // mirrored payload bytes (informational)
      r.done();
      result.qualify_ran = true;
      result.qualify_messages = messages;
      if (frames != result.qualify_frames) {
        throw LiveError("transport qualification: member mirrored " +
                        std::to_string(frames) +
                        " frames but the coordinator received " +
                        std::to_string(result.qualify_frames));
      }
      if (!ok) {
        throw LiveError(
            "transport qualification failed: the SocketExchange run "
            "diverged from the DirectExchange run");
      }
      return;
    }
    if (f.type == MsgType::kError) {
      const ErrorMsg e = decode_error(f.payload);
      throw LiveError("member 0 reported error during qualification: " +
                      e.text);
    }
    throw LiveError("unexpected frame type " +
                    std::to_string(static_cast<unsigned>(f.type)) +
                    " during qualification");
  }
}

double Coordinator::earliest_pending() const {
  double e = kInf;
  for (const Member& m : members_) {
    if (m.alive) e = std::min(e, m.earliest);
  }
  return e;
}

void Coordinator::run_windows(const shard::Cut& cut, LiveRunResult& result) {
  // Dispatch only members with pending work in the window (same predicate
  // as the sharded driver), then gather their effect batches. A member
  // that fails at either step is marked dead and queued for the graceful
  // leave pass; the run continues with the survivors.
  std::vector<std::size_t> dispatched;
  Writer w;
  w.f64(cut.time_ms);
  w.u8(cut.inclusive() ? 1 : 0);
  for (std::size_t i = 0; i < members_.size(); ++i) {
    Member& m = members_[i];
    if (!m.alive || !cut.covers(m.earliest)) continue;
    const auto send = [&] { m.sock.send_frame(MsgType::kWindow, w.bytes()); };
    if (member_call(i, send)) dispatched.push_back(i);
  }
  for (std::size_t i : dispatched) {
    if (!members_[i].alive) continue;
    member_call(i, [&] {
      Frame f = expect_from(i, MsgType::kEffects);
      EffectsBatch batch = decode_effects(f.payload);
      events_executed_ += batch.executed;
      requests_executed_ += batch.arrivals;
      members_[i].earliest = batch.earliest_pending;
      for (const shard::BufferedEffect& e : batch.effects) {
        sinks_[i].restore(e);
      }
      ++result.windows;
    });
  }
}

void Coordinator::execute_barrier(const shard::Barrier& b,
                                  LiveRunResult& result) {
  const double t = b.time_ms;
  BarrierMsg msg;
  msg.time_ms = t;
  msg.klass = static_cast<std::uint8_t>(b.klass);
  msg.index = b.index;
  const std::vector<std::uint8_t> payload = encode_barrier(msg);

  // Broadcast, then gather every replica's ack so all processes cross the
  // barrier together — the live analogue of "all shards quiescent".
  broadcast(MsgType::kBarrier, payload);
  std::uint64_t holders_sum = 0;
  std::uint64_t delta_sum = 0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (!members_[i].alive) continue;
    member_call(i, [&] {
      Frame f = expect_from(i, MsgType::kBarrierAck);
      const BarrierAck ack = decode_barrier_ack(f.payload);
      holders_sum += ack.holders_dropped;
      delta_sum += ack.invalidations_delta;
    });
  }

  // Apply on the local replica. Failure and membership events emit their
  // trace through the real sink (exactly once, coordinator-side). An
  // update's invalidation event is the one whose payload is distributed:
  // each replica saw only its own groups' holders, so the local event is
  // discarded and re-emitted with the sum across all of them — the
  // sequential run's figure. Under TTL an update logs nothing.
  const bool update = b.klass == sim::EventClass::kUpdate;
  const auto& updates = world_->workload->updates();
  sim::DiscardSink discard;
  sim::EffectSink& sink =
      update ? static_cast<sim::EffectSink&>(discard) : *coord_sink_;
  const sim::BarrierOutcome out =
      engine_->on_barrier(b.klass, b.index, t, updates, sink);
  if (update) {
    holders_sum += out.holders_dropped;
    delta_sum += out.invalidations;
    if (engine_->config().consistency ==
        sim::ConsistencyMode::kPushInvalidation) {
      trace_.emit(obs::TraceEvent::invalidation(
          t, updates[b.index].doc, static_cast<std::size_t>(holders_sum)));
    }
    invalidations_total_ += delta_sum;
  }
  ++result.barriers;
}

void Coordinator::depart_dead_members(double t, LiveRunResult& result) {
  // Index loop on purpose: departing one member can reveal further dead
  // members (send failures), which append to newly_dead_ as we go.
  for (std::size_t k = 0; k < newly_dead_.size(); ++k) {
    const std::size_t m = newly_dead_[k];
    ++result.members_lost;
    for (std::uint32_t c = 0; c < spec_.cache_count; ++c) {
      if (cache_owner_[c] != m) continue;
      if (engine_->is_departed(c)) continue;
      BarrierMsg msg;
      msg.time_ms = t;
      msg.klass = static_cast<std::uint8_t>(sim::EventClass::kMembership);
      msg.synth = 1;
      msg.cache = c;
      msg.kind = static_cast<std::uint8_t>(sim::MembershipChange::Kind::kLeave);
      const std::vector<std::uint8_t> payload = encode_barrier(msg);
      broadcast(MsgType::kBarrier, payload);
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (!members_[i].alive) continue;
        member_call(i, [&] { expect_from(i, MsgType::kBarrierAck); });
      }
      if (engine_->on_leave(c, t, *coord_sink_)) {
        ++result.synthetic_leaves;
      }
      ++events_executed_;
    }
  }
  newly_dead_.clear();
}

LiveRunResult Coordinator::run() {
  LiveRunResult result;
  accept_members(result);
  world_.emplace(build_world(spec_));

  // Start: ship the world description, wait for every member to finish
  // rebuilding it (catalog + workload generation can take a moment).
  broadcast(MsgType::kStart, encode_run_spec(spec_));
  require_all_alive("start");
  for (std::size_t i = 0; i < members_.size(); ++i) {
    Frame f = expect_from(i, MsgType::kStartAck);
    Reader r(f.payload);
    r.done();
  }

  // Formation: probes travel the wire (owner = host mod member count —
  // groups don't exist yet), every echo is cross-checked against the
  // local plane, and the scheme + all its RNG draws run HERE, so the
  // partition is the oracle's partition by construction.
  WireRttProvider provider(
      world_->rtt, [this](net::HostId a, net::HostId b) {
        const net::HostId h = (a != spec_.cache_count) ? a : b;
        const std::size_t m = h % members_.size();
        if (!members_[m].alive) {
          throw LiveError("member " + std::to_string(m) +
                          " died during probing");
        }
        Writer w;
        w.u32(a);
        w.u32(b);
        members_[m].sock.send_frame(MsgType::kProbe, w.bytes());
        Frame f = expect_from(m, MsgType::kProbeEcho);
        Reader r(f.payload);
        const std::uint32_t ea = r.u32();
        const std::uint32_t eb = r.u32();
        const double value = r.f64();
        r.done();
        if (ea != a || eb != b) {
          throw LiveError("probe echo pair mismatch from member " +
                          std::to_string(m));
        }
        return value;
      });
  std::vector<std::vector<cache::CacheIndex>> groups =
      form_live_groups(spec_, provider, nullptr);
  result.probes = provider.probes_sent();

  broadcast(MsgType::kFormation, encode_groups(groups));
  require_all_alive("formation");
  for (std::size_t i = 0; i < members_.size(); ++i) {
    Frame f = expect_from(i, MsgType::kFormationAck);
    Reader r(f.payload);
    members_[i].earliest = r.f64();
    r.done();
  }

  run_qualify(result);

  // Serving setup: the coordinator's own replica (for barrier state and
  // the final report), the real metrics/trace consumers, one restore-only
  // sink per member, and the exact epoch schedule of the sharded driver.
  engine_ = std::make_unique<sim::ShardableEngine>(
      world_->catalog, world_->rtt, world_->server(),
      sim_config_for(spec_, groups));
  metrics_ = std::make_unique<sim::MetricsCollector>(spec_.cache_count);
  metrics_->set_warmup_end(spec_.duration_ms * spec_.warmup_fraction);
  coord_sink_.emplace(trace_, *metrics_, /*hook=*/nullptr);
  sinks_.clear();
  sinks_.resize(members_.size());
  shard::ShardPlan plan(engine_->groups(), engine_->cache_count(),
                        members_.size());
  cache_owner_.resize(spec_.cache_count);
  for (std::uint32_t c = 0; c < spec_.cache_count; ++c) {
    cache_owner_[c] = plan.shard_of_cache(c);
  }
  // Live runs hookless on the beacon directory, so failures, membership
  // and updates are the whole barrier list.
  shard::EpochSchedule schedule(engine_->config(),
                                world_->workload->updates(),
                                spec_.duration_ms, spec_.epoch_ms);
  schedule.reset_width(plan, *engine_);
  events_executed_ = 0;
  requests_executed_ = 0;
  invalidations_total_ = 0;

  // The cut loop of shard::ShardedSimulator::run, with the windows
  // running in other processes. An all-dead membership drives
  // earliest_pending to +inf, which makes the very next cut the final
  // drain — a kill can degrade the run but never hang it.
  for (;;) {
    const shard::Cut cut = schedule.next_cut(earliest_pending());
    run_windows(cut, result);
    const std::size_t exchanged = shard::total_buffered_effects(sinks_);
    if (exchanged != 0) {
      shard::merge_and_replay(sinks_, *coord_sink_, merge_scratch_);
    }
    ++result.cuts;
    const std::span<const shard::Barrier> due =
        schedule.commit(cut, exchanged);
    if (!newly_dead_.empty()) depart_dead_members(cut.time_ms, result);
    for (const shard::Barrier& b : due) {
      execute_barrier(b, result);
      ++events_executed_;
    }
    if (!newly_dead_.empty()) depart_dead_members(cut.time_ms, result);
    if (cut.kind == shard::Cut::Kind::kFinal) break;
  }

  // Flush: gather the commutative tallies and the invalidation totals.
  sim::EngineTally tally = coord_sink_->tally;
  std::uint64_t flushed_invalidations = 0;
  bool flush_complete = true;
  broadcast(MsgType::kFlush, {});
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const bool flushed = members_[i].alive && member_call(i, [&] {
      Frame f = expect_from(i, MsgType::kFlushAck);
      const FlushAck ack = decode_flush_ack(f.payload);
      tally += ack.tally;
      flushed_invalidations += ack.invalidations;
    });
    if (!flushed) flush_complete = false;
  }
  // Cross-check on healthy runs: per-barrier deltas must re-sum to the
  // members' engine totals (the coordinator's own replica pushed none —
  // its directories never held registrations).
  if (flush_complete && result.members_lost == 0 &&
      flushed_invalidations + engine_->invalidations_pushed() !=
          invalidations_total_) {
    throw LiveError("invalidation totals diverged: members flushed " +
                    std::to_string(flushed_invalidations) +
                    " but barrier acks summed to " +
                    std::to_string(invalidations_total_));
  }

  result.report = engine_->assemble_report(*metrics_, requests_executed_,
                                           events_executed_,
                                           /*control_ticks=*/0, tally);
  // assemble_report reported the LOCAL replica's counter (always zero
  // here); the run's true figure is the summed member deltas.
  result.report.invalidations_pushed = invalidations_total_;
  result.groups = std::move(groups);

  broadcast(MsgType::kStop, {});
  return result;
}

}  // namespace ecgf::live
