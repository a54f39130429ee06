// Message-level protocol engine — the high-fidelity alternative to the
// analytic latency composition in sim::ShardableEngine.
//
// Every protocol step is its own discrete event:
//   client request → [queue] cache i → LOOKUP → [queue] beacon →
//     FORWARD → [queue] holder → DATA → [queue] cache i → respond
//   or beacon MISS → [queue] cache i → FETCH → [queue] origin (generation)
//     → DATA → [queue] cache i → respond
//
// Caches and the origin process messages through FIFO service queues
// (fixed per-message service time; generation time at the origin), so
// hotspots and origin overload produce real queueing delay — effects the
// analytic engine cannot express. Message travel time is ½·RTT plus
// serialisation for document bodies.
//
// Scope: push-invalidation consistency, no failure injection (the
// analytic engine covers those axes).
#pragma once

#include <memory>
#include <vector>

#include "sim/config.h"
#include "sim/engine.h"
#include "sim/netmodel/link_model.h"
#include "workload/stream.h"

namespace ecgf::sim {

/// Transport seam: every inter-host protocol message the message-level
/// engine emits (lookups, forwards, miss replies, document bodies, origin
/// fetches) passes through exactly one travel_ms() + deliver() pair. The
/// default in-process exchange (DirectExchange) uses the analytic latency
/// model and schedules straight onto the engine's event queue;
/// sim::CongestionExchange (src/sim/netmodel/) adds flow-level access-link
/// congestion on top; a sharded driver would substitute a buffering
/// exchange that holds cross-shard deliveries until the next conservative
/// epoch cut (the analytic engine's equivalent lives in src/shard/exchange.h).
class MessageExchange {
 public:
  /// What a message carries — control traffic (lookups, forwards, miss
  /// replies) or a document body.
  enum class Payload : std::uint8_t { kControl, kData };

  virtual ~MessageExchange() = default;

  /// Called once by the engine before the run: hands the backend the RTT
  /// oracle, the cost model, the control-message size, and the host
  /// universe (cache ids [0, cache_count) plus the origin's id). The
  /// default implementation captures them for travel_ms() and validate();
  /// overrides must call it.
  virtual void bind(const net::RttProvider& rtt, const CostModel& cost,
                    std::uint32_t control_bytes, std::size_t cache_count,
                    net::HostId server);

  /// Latency model: how long a message sent at `sent_ms` travels. The
  /// engine adds this to the send time before scheduling the delivery.
  /// The default reproduces the analytic formulas bit for bit — ½·RTT
  /// propagation plus serialisation at the cost model's bandwidth, where a
  /// control message to self is free and a data transfer pays serialisation
  /// even to self. Non-const because congestion backends advance per-link
  /// state here.
  virtual double travel_ms(net::HostId src, net::HostId dst, double sent_ms,
                           std::uint64_t bytes, Payload payload);

  /// Run `work` at simulation time `at` on the destination's event loop.
  /// `src`/`dst` are host ids (cache index, or the origin's id). `queue`
  /// is the destination's event queue — a pass-through exchange schedules
  /// immediately; a buffering one stores the delivery and schedules it at
  /// the next epoch cut. Implementations should call validate(src, dst)
  /// first so a backend swap can never silently deliver to a dead or
  /// never-registered host.
  virtual void deliver(net::HostId src, net::HostId dst, SimTime at,
                       EventQueue& queue, EventQueue::Action work) = 0;

  /// Aggregate congestion counters; all-zero for backends without a link
  /// model.
  virtual NetStats net_stats() const { return {}; }

  /// Mark a cache dead: validating exchanges refuse subsequent deliveries
  /// to it (contract violation, not silent loss). Host must be a cache id
  /// registered by bind().
  void mark_down(net::HostId host);

 protected:
  /// Contract check for deliver(): both endpoints registered by bind() (a
  /// cache index or the origin) and the destination not marked down.
  void validate(net::HostId src, net::HostId dst) const;

  const net::RttProvider* rtt_ = nullptr;
  const CostModel* cost_ = nullptr;
  std::uint32_t control_bytes_ = 0;
  std::size_t cache_count_ = 0;
  net::HostId server_ = 0;
  std::vector<bool> down_;
};

/// Default transport: analytic travel times, every delivery validated and
/// scheduled immediately on the engine's event queue (same process, same
/// shard).
class DirectExchange : public MessageExchange {
 public:
  void deliver(net::HostId src, net::HostId dst, SimTime at,
               EventQueue& queue, EventQueue::Action work) override {
    validate(src, dst);
    queue.schedule(at, std::move(work));
  }
};

struct MessageEngineConfig {
  /// Base simulation setup (groups, capacity, policy, beacons, cost —
  /// consistency must be kPushInvalidation and failures must be empty).
  SimulationConfig base{};
  /// Service time a cache spends on any protocol message (ms).
  double cache_service_ms = 0.15;
  /// Origin-side fixed overhead per fetch on top of the document's
  /// generation cost (ms).
  double origin_service_ms = 0.5;
  /// Concurrent fetches the origin can generate (worker pool size); each
  /// fetch occupies one worker for origin_service_ms + generation time.
  std::size_t origin_concurrency = 16;
  /// Control-message size (bytes) — lookups, forwards, miss replies.
  std::uint32_t control_bytes = 200;
  /// Transport override (non-owning; must outlive the run). nullptr uses
  /// the default direct exchange: deliveries schedule immediately on the
  /// engine's own event queue.
  MessageExchange* exchange = nullptr;
};

struct MessageEngineReport {
  SimulationReport base;
  std::uint64_t messages_sent = 0;
  double mean_cache_queue_delay_ms = 0.0;
  double mean_origin_queue_delay_ms = 0.0;
  double max_origin_queue_delay_ms = 0.0;
  /// Congestion counters from the exchange backend (all zero under the
  /// default DirectExchange or an uncontended CongestionExchange).
  std::uint64_t net_drops = 0;
  std::uint64_t net_marks = 0;
  std::uint64_t net_retransmits = 0;
  std::uint64_t net_bytes = 0;
  /// Busiest directed link's serialisation time over the trace duration.
  double max_link_utilisation = 0.0;
  /// Worst queue depth any directed link reached, in bytes.
  double peak_queue_bytes = 0.0;
};

/// Run the trace through the message-level engine.
MessageEngineReport run_message_level(const cache::Catalog& catalog,
                                      const net::RttProvider& rtt,
                                      net::HostId server,
                                      MessageEngineConfig config,
                                      const workload::Trace& trace);

/// Streaming overload: inject requests/updates from lazy workload sources
/// (workload/stream.h) so message-level runs scale past materialised
/// traces. One source backs one run.
MessageEngineReport run_message_level(const cache::Catalog& catalog,
                                      const net::RttProvider& rtt,
                                      net::HostId server,
                                      MessageEngineConfig config,
                                      workload::WorkloadSource& source);

}  // namespace ecgf::sim
