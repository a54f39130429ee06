#include "sim/message_engine.h"

#include <algorithm>
#include <limits>

#include "util/expect.h"
#include "util/stats.h"

namespace ecgf::sim {

void MessageExchange::bind(const net::RttProvider& rtt, const CostModel& cost,
                           std::uint32_t control_bytes,
                           std::size_t cache_count, net::HostId server) {
  ECGF_EXPECTS(cache_count > 0);
  ECGF_EXPECTS(server >= cache_count);
  rtt_ = &rtt;
  cost_ = &cost;
  control_bytes_ = control_bytes;
  cache_count_ = cache_count;
  server_ = server;
  down_.assign(cache_count, false);
}

double MessageExchange::travel_ms(net::HostId src, net::HostId dst,
                                  double /*sent_ms*/, std::uint64_t bytes,
                                  Payload payload) {
  ECGF_EXPECTS(rtt_ != nullptr && cost_ != nullptr);
  if (payload == Payload::kControl) {
    if (src == dst) return 0.0;
    return 0.5 * rtt_->rtt_ms(src, dst) +
           static_cast<double>(bytes) / cost_->bandwidth_bytes_per_ms;
  }
  const double hop = src == dst ? 0.0 : 0.5 * rtt_->rtt_ms(src, dst);
  return hop + cost_->transfer_ms(bytes);
}

void MessageExchange::mark_down(net::HostId host) {
  ECGF_EXPECTS(host < down_.size());
  down_[host] = true;
}

void MessageExchange::validate(net::HostId src, net::HostId dst) const {
  // Diagnostic contract checks: a misrouted delivery names both endpoints
  // and the reason, so a backend swap (DirectExchange → CongestionExchange
  // → live::SocketExchange) that starts delivering to a dead or
  // never-registered host fails with an actionable message instead of a
  // bare expression dump.
  const auto describe = [this](net::HostId h) {
    if (h == server_) return std::string("origin");
    if (h < cache_count_) return "cache " + std::to_string(h);
    return "unregistered host " + std::to_string(h);
  };
  if (cache_count_ == 0) {
    throw util::ContractViolation(
        "MessageExchange::deliver before bind(): no hosts registered "
        "(src=" +
        std::to_string(src) + ", dst=" + std::to_string(dst) + ")");
  }
  const auto registered = [this](net::HostId h) {
    return h < cache_count_ || h == server_;
  };
  if (!registered(src) || !registered(dst)) {
    throw util::ContractViolation(
        "MessageExchange::deliver endpoint out of range: src=" +
        describe(src) + ", dst=" + describe(dst) + " (caches [0, " +
        std::to_string(cache_count_) + "), origin " +
        std::to_string(server_) + ")");
  }
  if (dst < down_.size() && down_[dst]) {
    throw util::ContractViolation(
        "MessageExchange::deliver to downed host: src=" + describe(src) +
        ", dst=" + describe(dst) + " was marked down via mark_down()");
  }
}

namespace {

/// The engine proper. One instance per run; everything lives on the stack
/// of run_message_level.
class MessageLevelSimulator {
 public:
  MessageLevelSimulator(const cache::Catalog& catalog,
                        const net::RttProvider& rtt, net::HostId server,
                        const MessageEngineConfig& config)
      : catalog_(catalog), rtt_(rtt), server_(server), config_(config) {
    const SimulationConfig& base = config_.base;
    // The message level models push-invalidated beacon directories over
    // a static, failure-free membership with score-gated placement. Every
    // config field outside that is rejected rather than silently ignored.
    ECGF_EXPECTS(base.consistency == ConsistencyMode::kPushInvalidation);
    ECGF_EXPECTS(base.failures.empty());
    ECGF_EXPECTS(base.remote_placement == RemotePlacement::kScoreGated);
    ECGF_EXPECTS(base.directory == DirectoryMode::kBeacon);
    ECGF_EXPECTS(base.membership_events.empty());
    ECGF_EXPECTS(base.control_hook == nullptr);
    ECGF_EXPECTS(base.control_interval_ms == 0.0);
    ECGF_EXPECTS(base.netmodel == nullptr);  // CongestionExchange models links
    ECGF_EXPECTS(!base.trace.active());
    ECGF_EXPECTS(config_.cache_service_ms >= 0.0);
    ECGF_EXPECTS(config_.origin_service_ms >= 0.0);

    CacheGroups built = build_cache_groups(base, catalog_, rtt_.host_count());
    group_of_ = std::move(built.group_of);
    caches_ = std::move(built.caches);
    directories_ = std::move(built.directories);
    const std::size_t n = cache_count_ = group_of_.size();
    origin_ = std::make_unique<cache::OriginServer>(catalog_);
    metrics_ = std::make_unique<MetricsCollector>(n);
    cache_busy_until_.assign(n, 0.0);
    ECGF_EXPECTS(config_.origin_concurrency >= 1);
    origin_worker_busy_.assign(config_.origin_concurrency, 0.0);
    if (config_.exchange != nullptr) exchange_ = config_.exchange;
    exchange_->bind(rtt_, config_.base.cost, config_.control_bytes,
                    cache_count_, server_);
  }

  MessageEngineReport run(const workload::Trace& trace);
  MessageEngineReport run(workload::WorkloadSource& source);

 private:
  struct Request {
    cache::CacheIndex cache;
    cache::DocId doc;
    SimTime arrival;
  };

  double control_travel(net::HostId a, net::HostId b, SimTime now) {
    return exchange_->travel_ms(a, b, now, config_.control_bytes,
                                MessageExchange::Payload::kControl);
  }

  double data_travel(net::HostId a, net::HostId b, std::uint64_t bytes,
                     SimTime now) {
    return exchange_->travel_ms(a, b, now, bytes,
                                MessageExchange::Payload::kData);
  }

  /// One inter-host message: counted, then handed to the exchange. Every
  /// protocol send in this engine funnels through here — the seam a
  /// sharded driver overrides via MessageEngineConfig::exchange.
  void send(net::HostId src, net::HostId dst, SimTime at,
            EventQueue::Action work) {
    ++messages_;
    exchange_->deliver(src, dst, at, queue_, std::move(work));
  }

  /// FIFO service at a cache: the work closure runs at service completion.
  void enqueue_cache(net::HostId src, cache::CacheIndex c, SimTime arrival,
                     EventQueue::Action work) {
    const SimTime start = std::max(arrival, cache_busy_until_[c]);
    cache_queue_delay_.add(start - arrival);
    cache_busy_until_[c] = start + config_.cache_service_ms;
    send(src, c, cache_busy_until_[c], std::move(work));
  }

  /// Service at the origin's worker pool: a fetch grabs the earliest-free
  /// worker for origin_service_ms + generation time.
  void enqueue_origin(net::HostId src, SimTime arrival, double generation_ms,
                      EventQueue::Action work) {
    auto earliest = std::min_element(origin_worker_busy_.begin(),
                                     origin_worker_busy_.end());
    const SimTime start = std::max(arrival, *earliest);
    origin_queue_delay_.add(start - arrival);
    *earliest = start + config_.origin_service_ms + generation_ms;
    send(src, server_, *earliest, std::move(work));
  }

  void finish(const Request& req, SimTime now, Resolution how) {
    metrics_->set_now(now);
    metrics_->record(req.cache, now - req.arrival, how);
  }

  void store_copy(const Request& req, cache::Version version, SimTime now) {
    if (origin_->version(req.doc) != version) return;  // already stale
    std::vector<cache::DocId> evicted;
    cache::GroupDirectory& home = *directories_[group_of_[req.cache]];
    if (caches_[req.cache]->insert(req.doc, version, now, &evicted)) {
      home.add_holder(req.doc, req.cache);
    }
    for (cache::DocId e : evicted) home.remove_holder(e, req.cache);
  }

  void handle_client_request(const Request& req);
  void beacon_decide(const Request& req, cache::CacheIndex beacon,
                     SimTime now);
  void go_origin(const Request& req, SimTime now);
  void handle_update(const workload::Update& update);

  const cache::Catalog& catalog_;
  const net::RttProvider& rtt_;
  net::HostId server_;
  MessageEngineConfig config_;
  std::size_t cache_count_ = 0;

  std::vector<std::unique_ptr<cache::EdgeCache>> caches_;
  std::vector<std::unique_ptr<cache::GroupDirectory>> directories_;
  std::vector<std::size_t> group_of_;
  std::unique_ptr<cache::OriginServer> origin_;
  std::unique_ptr<MetricsCollector> metrics_;
  EventQueue queue_;
  DirectExchange direct_exchange_;
  MessageExchange* exchange_ = &direct_exchange_;

  std::vector<double> cache_busy_until_;
  std::vector<double> origin_worker_busy_;
  util::Accumulator cache_queue_delay_;
  util::Accumulator origin_queue_delay_;
  std::uint64_t messages_ = 0;
  std::uint64_t invalidations_ = 0;
};

void MessageLevelSimulator::handle_client_request(const Request& req) {
  enqueue_cache(req.cache, req.cache, req.arrival, [this, req](SimTime now) {
    const cache::Version version = origin_->version(req.doc);
    const auto outcome = caches_[req.cache]->lookup(req.doc, version, now);
    if (outcome == cache::LookupOutcome::kHitFresh) {
      finish(req, now, Resolution::kLocalHit);
      return;
    }
    const cache::GroupDirectory& dir = *directories_[group_of_[req.cache]];
    const cache::CacheIndex beacon = dir.beacon_for(req.doc);
    if (beacon == req.cache) {
      // The requester owns the directory partition: decide in place.
      beacon_decide(req, beacon, now);
      return;
    }
    const SimTime arrival = now + control_travel(req.cache, beacon, now);
    enqueue_cache(req.cache, beacon, arrival, [this, req, beacon](SimTime t) {
      beacon_decide(req, beacon, t);
    });
  });
}

void MessageLevelSimulator::beacon_decide(const Request& req,
                                          cache::CacheIndex beacon,
                                          SimTime now) {
  const cache::GroupDirectory& dir = *directories_[group_of_[req.cache]];
  const cache::Version version = origin_->version(req.doc);

  // Nearest (to the requester) registered fresh holder.
  cache::CacheIndex holder = req.cache;
  double best = std::numeric_limits<double>::infinity();
  for (cache::CacheIndex h : dir.holders(req.doc)) {
    if (h == req.cache) continue;
    if (!caches_[h]->has_fresh(req.doc, version)) continue;
    const double r = rtt_.rtt_ms(req.cache, h);
    if (r < best) {
      best = r;
      holder = h;
    }
  }

  if (holder == req.cache) {
    // Miss reply travels back to the requester, which then goes to the
    // origin (no extra service round at the requester: the reply handler
    // immediately issues the fetch).
    const SimTime reply = now + control_travel(beacon, req.cache, now);
    send(beacon, req.cache, reply,
         [this, req](SimTime t) { go_origin(req, t); });
    return;
  }

  // Forward to the holder; the holder ships the document to the requester.
  const SimTime at_holder = now + control_travel(beacon, holder, now);
  enqueue_cache(beacon, holder, at_holder, [this, req, holder](SimTime t) {
    const cache::Version v = origin_->version(req.doc);
    if (!caches_[holder]->has_fresh(req.doc, v)) {
      // Copy vanished between the beacon's decision and service here
      // (eviction or invalidation in flight): fall through to the origin.
      const SimTime reply = t + control_travel(holder, req.cache, t);
      send(holder, req.cache, reply,
           [this, req](SimTime t2) { go_origin(req, t2); });
      return;
    }
    caches_[holder]->touch(req.doc, t);
    const std::uint64_t size = catalog_.info(req.doc).size_bytes;
    const SimTime at_requester = t + data_travel(holder, req.cache, size, t);
    send(holder, req.cache, at_requester, [this, req, v](SimTime t2) {
      finish(req, t2, Resolution::kGroupHit);
      store_copy(req, v, t2);
    });
  });
}

void MessageLevelSimulator::go_origin(const Request& req, SimTime now) {
  const SimTime at_origin = now + control_travel(req.cache, server_, now);
  const double generation = origin_->serve_ms(req.doc);
  enqueue_origin(req.cache, at_origin, generation, [this, req](SimTime t) {
    const cache::Version version = origin_->version(req.doc);
    const std::uint64_t size = catalog_.info(req.doc).size_bytes;
    const SimTime at_requester = t + data_travel(server_, req.cache, size, t);
    send(server_, req.cache, at_requester, [this, req, version](SimTime t2) {
      finish(req, t2, Resolution::kOriginFetch);
      store_copy(req, version, t2);
    });
  });
}

void MessageLevelSimulator::handle_update(const workload::Update& update) {
  origin_->apply_update(update.doc);
  for (auto& dir : directories_) {
    const std::vector<cache::CacheIndex> holders = dir->holders(update.doc);
    for (cache::CacheIndex h : holders) {
      if (caches_[h]->invalidate(update.doc)) ++invalidations_;
      dir->remove_holder(update.doc, h);
    }
  }
}

MessageEngineReport MessageLevelSimulator::run(const workload::Trace& trace) {
  trace.validate(cache_count_, catalog_.size());
  workload::TraceWorkload source(trace, cache_count_);
  return run(source);
}

MessageEngineReport MessageLevelSimulator::run(
    workload::WorkloadSource& source) {
  const double duration_ms = source.duration_ms();
  metrics_->set_warmup_end(duration_ms * config_.base.warmup_fraction);

  // Request injection is stream-based like the analytic drivers: one
  // cursor event per log, pulled lazily, so message-level runs inherit the
  // flat-memory property (this engine's queue carries no canonical keys —
  // its protocol messages are not replay-merged, so plain time order
  // suffices).
  auto requests = source.requests();
  auto updates = source.update_stream();
  constexpr double kDone = std::numeric_limits<double>::infinity();
  std::uint64_t requests_processed = 0;
  std::function<void(SimTime)> pump_requests = [&](SimTime) {
    workload::Request r;
    std::uint64_t key = 0;
    if (!requests->next(r, key)) return;
    ++requests_processed;
    handle_client_request(Request{r.cache, r.doc, r.time_ms});
    if (requests->peek_time_ms() < kDone) {
      queue_.schedule(requests->peek_time_ms(), pump_requests);
    }
  };
  std::function<void(SimTime)> pump_updates = [&](SimTime) {
    workload::Update u;
    if (!updates->next(u)) return;
    handle_update(u);
    if (updates->peek_time_ms() < kDone) {
      queue_.schedule(updates->peek_time_ms(), pump_updates);
    }
  };
  if (requests->peek_time_ms() < kDone) {
    queue_.schedule(requests->peek_time_ms(), pump_requests);
  }
  if (updates->peek_time_ms() < kDone) {
    queue_.schedule(updates->peek_time_ms(), pump_updates);
  }

  MessageEngineReport report;
  report.base.events_executed = queue_.run(duration_ms + 120'000.0);

  report.base.avg_latency_ms = metrics_->network_latency().mean();
  report.base.p50_latency_ms = metrics_->latency_quantile(0.50);
  report.base.p95_latency_ms = metrics_->latency_quantile(0.95);
  report.base.p99_latency_ms = metrics_->latency_quantile(0.99);
  report.base.per_cache_latency_ms.resize(cache_count_);
  for (std::size_t c = 0; c < cache_count_; ++c) {
    report.base.per_cache_latency_ms[c] =
        metrics_->cache_latency(static_cast<std::uint32_t>(c)).mean();
  }
  report.base.counts = metrics_->counts();
  report.base.raw_counts = metrics_->raw_counts();
  report.base.origin_fetches = origin_->stats().fetches;
  report.base.origin_updates = origin_->stats().updates;
  report.base.invalidations_pushed = invalidations_;
  report.base.requests_processed = requests_processed;
  report.messages_sent = messages_;
  report.mean_cache_queue_delay_ms = cache_queue_delay_.mean();
  report.mean_origin_queue_delay_ms = origin_queue_delay_.mean();
  report.max_origin_queue_delay_ms = origin_queue_delay_.max();
  const NetStats net = exchange_->net_stats();
  report.net_drops = net.drops;
  report.net_marks = net.marks;
  report.net_retransmits = net.retransmits;
  report.net_bytes = net.bytes;
  report.max_link_utilisation =
      duration_ms > 0.0 ? net.max_link_busy_ms / duration_ms : 0.0;
  report.peak_queue_bytes = net.peak_backlog_bytes;
  return report;
}

}  // namespace

MessageEngineReport run_message_level(const cache::Catalog& catalog,
                                      const net::RttProvider& rtt,
                                      net::HostId server,
                                      MessageEngineConfig config,
                                      const workload::Trace& trace) {
  MessageLevelSimulator sim(catalog, rtt, server, config);
  return sim.run(trace);
}

MessageEngineReport run_message_level(const cache::Catalog& catalog,
                                      const net::RttProvider& rtt,
                                      net::HostId server,
                                      MessageEngineConfig config,
                                      workload::WorkloadSource& source) {
  MessageLevelSimulator sim(catalog, rtt, server, config);
  return sim.run(source);
}

}  // namespace ecgf::sim
