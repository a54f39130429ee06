// The deterministic per-epoch effect exchange.
//
// Shards never apply order-sensitive side effects directly: the metrics
// collector's float accumulators and latency reservoir, the trace stream's
// sequence stamps, and the control hook's drift estimates all depend on
// the exact order samples arrive in. Instead each shard buffers its
// effects, tagged with the canonical key of the event that produced them
// — (time, sim::EventClass, event key, emission index) — and at every
// synchronisation cut the coordinator replays the k-way merge of all
// shard buffers into the real consumers.
//
// Because each simulation event executes on exactly one shard, the keys
// are globally unique, and because every shard executes its own events in
// canonical order, each buffer is already sorted. The merged replay is
// therefore the canonical event order at any shard count — which is the
// mechanism behind the bit-identical guarantee (docs/scaling.md).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace.h"
#include "sim/control.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"

namespace ecgf::shard {

/// Canonical ordering key of one buffered side effect.
struct EffectKey {
  double time_ms = 0.0;
  std::uint8_t klass = 0;  ///< sim::EventClass underlying value
  std::uint64_t event = 0;  ///< the event's canonical key
  std::uint32_t sub = 0;    ///< emission index within the event

  friend bool operator<(const EffectKey& a, const EffectKey& b) {
    if (a.time_ms != b.time_ms) return a.time_ms < b.time_ms;
    if (a.klass != b.klass) return a.klass < b.klass;
    if (a.event != b.event) return a.event < b.event;
    return a.sub < b.sub;
  }
};

/// One buffered side effect. A tagged struct rather than a variant: the
/// payloads are small and epochs clear the buffer, so simplicity wins.
struct BufferedEffect {
  enum class Kind : std::uint8_t { kTrace, kMetric, kRttSample };
  EffectKey key;
  Kind kind = Kind::kTrace;
  obs::TraceEvent trace{};       ///< kTrace
  cache::CacheIndex cache = 0;   ///< kMetric
  double value_ms = 0.0;         ///< kMetric latency / kRttSample rtt
  sim::Resolution how = sim::Resolution::kLocalHit;  ///< kMetric
  net::HostId src = 0, dst = 0;  ///< kRttSample
  double at_ms = 0.0;            ///< effect timestamp (== key.time_ms)
};

/// The per-shard EffectSink: buffers everything the coordinator will
/// consume, keyed by the event the shard loop is currently executing
/// (begin_event). The inherited tally member accumulates for the whole
/// run and is summed at the end — counters commute, so they need no
/// replay.
///
/// The buffer is a per-shard ARENA: it is owned by exactly one shard, is
/// only appended to between cuts (no locks, no cross-shard allocation),
/// and clear() keeps its capacity, so the steady-state epoch loop is
/// allocation-free.
///
/// Effects whose replay target is known to be a no-op can be filtered at
/// buffering time instead of after the merge: set_trace_buffering(false)
/// drops trace events (no trace sink attached — exactly the condition
/// under which the coordinator's TraceContext::emit would discard them),
/// and set_rtt_buffering(false) drops RTT observations (no control hook
/// registered). Filtering never changes output bytes — it skips only
/// effects the replay would also have discarded — but it keeps
/// benchmark-mode effect volume proportional to what is actually
/// consumed.
class ShardSink final : public sim::EffectSink {
 public:
  /// The shard loop calls this immediately before executing each event.
  void begin_event(double time_ms, sim::EventClass klass, std::uint64_t key) {
    current_ = EffectKey{time_ms, static_cast<std::uint8_t>(klass), key, 0};
  }

  void set_trace_buffering(bool enabled) { buffer_traces_ = enabled; }
  void set_rtt_buffering(bool enabled) { buffer_rtt_ = enabled; }

  void emit(const obs::TraceEvent& event) override {
    if (!buffer_traces_) return;
    BufferedEffect e;
    e.key = next_key();
    e.kind = BufferedEffect::Kind::kTrace;
    e.trace = event;
    effects_.push_back(e);
  }

  void record(cache::CacheIndex cache, double latency_ms, sim::Resolution how,
              sim::SimTime t) override {
    BufferedEffect e;
    e.key = next_key();
    e.kind = BufferedEffect::Kind::kMetric;
    e.cache = cache;
    e.value_ms = latency_ms;
    e.how = how;
    e.at_ms = t;
    effects_.push_back(e);
  }

  void rtt_sample(net::HostId src, net::HostId dst, double rtt_ms,
                  sim::SimTime t) override {
    if (!buffer_rtt_) return;
    BufferedEffect e;
    e.key = next_key();
    e.kind = BufferedEffect::Kind::kRttSample;
    e.src = src;
    e.dst = dst;
    e.value_ms = rtt_ms;
    e.at_ms = t;
    effects_.push_back(e);
  }

  const std::vector<BufferedEffect>& effects() const { return effects_; }
  void clear() { effects_.clear(); }

  /// Append an effect reconstructed elsewhere (the live transport decodes
  /// member effect batches into coordinator-side sinks so the same
  /// merge_and_replay drives both drivers). The caller must preserve the
  /// producer's canonical order — restore() appends verbatim.
  void restore(const BufferedEffect& e) { effects_.push_back(e); }

 private:
  EffectKey next_key() {
    EffectKey k = current_;
    ++current_.sub;
    return k;
  }

  std::vector<BufferedEffect> effects_;
  EffectKey current_{};
  bool buffer_traces_ = true;
  bool buffer_rtt_ = true;
};

/// The coordinator-side sink of both parallel drivers: applies effects to
/// the run's real consumers the moment they arrive. It is the target of
/// every per-cut merge and of barrier events. `hook` may be null (no
/// control plane; RTT observations are then dropped).
class ReplaySink final : public sim::EffectSink {
 public:
  ReplaySink(obs::TraceContext& trace, sim::MetricsCollector& metrics,
             sim::ControlHook* hook)
      : trace_(trace), metrics_(metrics), hook_(hook) {}

  void emit(const obs::TraceEvent& event) override { trace_.emit(event); }
  void record(cache::CacheIndex cache, double latency_ms, sim::Resolution how,
              sim::SimTime t) override {
    metrics_.set_now(t);
    metrics_.record(cache, latency_ms, how);
  }
  void rtt_sample(net::HostId src, net::HostId dst, double rtt_ms,
                  sim::SimTime t) override {
    if (hook_ != nullptr) hook_->on_rtt_sample(src, dst, rtt_ms, t);
  }

 private:
  obs::TraceContext& trace_;
  sim::MetricsCollector& metrics_;
  sim::ControlHook* hook_;
};

/// Reusable coordinator-side scratch for merge_and_replay, so the
/// steady-state barrier path performs no allocations (the cursor vector
/// keeps its capacity across cuts).
struct MergeScratch {
  std::vector<std::size_t> pos;
};

/// Total buffered effects across all shard sinks — the exchange volume of
/// the epoch about to be committed (drives the adaptive epoch width and
/// the empty-merge short-circuit).
std::size_t total_buffered_effects(const std::vector<ShardSink>& sinks);

/// Replay the k-way merge of all shard buffers into `target` in canonical
/// order, then clear the buffers. Single-threaded (coordinator only).
/// `scratch` keeps the merge allocation-free across cuts.
void merge_and_replay(std::vector<ShardSink>& sinks, sim::EffectSink& target,
                      MergeScratch& scratch);

/// Convenience overload with throwaway scratch (tests, one-shot callers).
void merge_and_replay(std::vector<ShardSink>& sinks, sim::EffectSink& target);

}  // namespace ecgf::shard
