#include "sim/engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/profile.h"
#include "util/expect.h"

namespace ecgf::sim {

ShardableEngine::ShardableEngine(const cache::Catalog& catalog,
                                 const net::RttProvider& rtt,
                                 net::HostId server, SimulationConfig config)
    : catalog_(catalog),
      rtt_(rtt),
      server_(server),
      config_(std::move(config)) {
  ECGF_EXPECTS(!config_.groups.empty());
  ECGF_EXPECTS(server_ < rtt_.host_count());

  // The groups must partition [0, N) for some N.
  std::size_t n = 0;
  for (const auto& g : config_.groups) n += g.size();
  ECGF_EXPECTS(n > 0);
  ECGF_EXPECTS(n < rtt_.host_count());  // hosts = caches + origin
  cache_count_ = n;
  group_of_.assign(n, std::numeric_limits<std::size_t>::max());
  for (std::size_t g = 0; g < config_.groups.size(); ++g) {
    ECGF_EXPECTS(!config_.groups[g].empty());
    for (cache::CacheIndex c : config_.groups[g]) {
      ECGF_EXPECTS(c < n);
      ECGF_EXPECTS(group_of_[c] ==
                   std::numeric_limits<std::size_t>::max());  // no duplicates
      group_of_[c] = g;
    }
  }

  ECGF_EXPECTS(config_.per_cache_capacity_bytes.empty() ||
               config_.per_cache_capacity_bytes.size() == n);
  caches_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t capacity = config_.per_cache_capacity_bytes.empty()
                                       ? config_.cache_capacity_bytes
                                       : config_.per_cache_capacity_bytes[i];
    caches_.push_back(std::make_unique<cache::EdgeCache>(
        capacity, catalog_,
        cache::make_policy(config_.policy, catalog_, config_.utility_params)));
  }
  directories_.reserve(config_.groups.size());
  for (const auto& g : config_.groups) {
    directories_.push_back(
        std::make_unique<cache::GroupDirectory>(g, config_.beacons_per_group));
  }
  origin_ = std::make_unique<cache::OriginServer>(catalog_);
  down_.assign(n, false);
  departed_.assign(n, false);
  for (const auto& f : config_.failures) {
    ECGF_EXPECTS(f.cache < n);
    ECGF_EXPECTS(f.time_ms >= 0.0);
  }
  for (const auto& m : config_.membership_events) {
    ECGF_EXPECTS(m.cache < n);
    ECGF_EXPECTS(m.time_ms >= 0.0);
  }
  if (config_.control_hook != nullptr) {
    // The maintenance surface (apply_groups, membership churn) is defined
    // against the beacon directory; summary mode keeps static peer lists.
    ECGF_EXPECTS(config_.directory == DirectoryMode::kBeacon);
  }

  if (config_.directory == DirectoryMode::kSummary) {
    // Summary mode pairs with push invalidation only (TTL + stale
    // summaries would conflate two staleness sources).
    ECGF_EXPECTS(config_.consistency == ConsistencyMode::kPushInvalidation);
    ECGF_EXPECTS(config_.summary.filter_bits >= 8);
    ECGF_EXPECTS(config_.summary.hash_count >= 1);
    ECGF_EXPECTS(config_.summary.refresh_interval_ms > 0.0);
    ECGF_EXPECTS(config_.summary.max_probe_attempts >= 1);
    summaries_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      summaries_.emplace_back(config_.summary.filter_bits,
                              config_.summary.hash_count);
    }
    // Peers within each group, sorted by RTT from each member (static).
    sorted_peers_.resize(n);
    for (const auto& g : config_.groups) {
      for (cache::CacheIndex c : g) {
        auto& peers = sorted_peers_[c];
        for (cache::CacheIndex other : g) {
          if (other != c) peers.push_back(other);
        }
        std::sort(peers.begin(), peers.end(),
                  [&](cache::CacheIndex a, cache::CacheIndex b) {
                    const double ra = rtt_.rtt_ms(c, a);
                    const double rb = rtt_.rtt_ms(c, b);
                    return ra != rb ? ra < rb : a < b;
                  });
      }
    }
  }
}

bool ShardableEngine::is_down(cache::CacheIndex i) const {
  ECGF_EXPECTS(i < down_.size());
  return down_[i];
}

bool ShardableEngine::is_departed(cache::CacheIndex i) const {
  ECGF_EXPECTS(i < departed_.size());
  return departed_[i];
}

std::size_t ShardableEngine::group_index_of(cache::CacheIndex i) const {
  ECGF_EXPECTS(i < group_of_.size());
  return group_of_[i];
}

const cache::EdgeCache& ShardableEngine::edge_cache(cache::CacheIndex i) const {
  ECGF_EXPECTS(i < caches_.size());
  return *caches_[i];
}

const cache::GroupDirectory& ShardableEngine::directory_of(
    cache::CacheIndex i) const {
  ECGF_EXPECTS(i < group_of_.size());
  return *directories_[group_of_[i]];
}

double ShardableEngine::origin_generation(cache::DocId d, EffectSink& sink) {
  ++sink.tally.origin_fetches;
  return origin_->generation_ms(d);
}

void ShardableEngine::emit_leg_effects(net::HostId host, bool uplink,
                                       const LegOutcome& leg, SimTime now,
                                       EffectSink& sink) {
  if (leg.drops > 0) {
    sink.emit(obs::TraceEvent::net_drop(now, host, uplink, leg.drops));
  }
  if (leg.marked) {
    sink.emit(obs::TraceEvent::net_mark(now, host, uplink,
                                        leg.backlog_bytes));
  }
}

double ShardableEngine::charge_group_transfer(cache::CacheIndex holder,
                                              cache::CacheIndex requester,
                                              SimTime now, std::uint64_t size,
                                              EffectSink& sink) {
  if (config_.netmodel == nullptr) return 0.0;
  const PathOutcome path = config_.netmodel->send(holder, requester, now, size);
  emit_leg_effects(holder, /*uplink=*/true, path.up, now, sink);
  emit_leg_effects(requester, /*uplink=*/false, path.down, now, sink);
  return path.extra_ms;
}

double ShardableEngine::charge_origin_transfer(cache::CacheIndex requester,
                                               SimTime now, std::uint64_t size,
                                               EffectSink& sink) {
  if (config_.netmodel == nullptr) return 0.0;
  const PathOutcome path = config_.netmodel->recv(requester, now, size);
  emit_leg_effects(requester, /*uplink=*/false, path.down, now, sink);
  return path.extra_ms;
}

void ShardableEngine::rebuild_summaries() {
  ++summary_rebuilds_;
  for (std::size_t i = 0; i < caches_.size(); ++i) {
    summaries_[i].clear();
    if (down_[i]) continue;
    for (cache::DocId d : caches_[i]->resident_docs()) {
      summaries_[i].add(d);
    }
  }
}

bool ShardableEngine::on_leave(cache::CacheIndex cache, SimTime t,
                               EffectSink& sink) {
  if (departed_[cache]) return false;
  departed_[cache] = true;
  down_[cache] = true;
  ++leaves_applied_;
  directories_[group_of_[cache]]->remove_all_for_holder(cache);
  sink.emit(obs::TraceEvent::cache_leave(t, cache));
  return true;
}

bool ShardableEngine::on_join(cache::CacheIndex cache, SimTime t,
                              EffectSink& sink, std::uint32_t* group_out) {
  if (!departed_[cache]) return false;
  departed_[cache] = false;
  down_[cache] = false;
  // Rejoin cold: a returning node has no warm store to offer. It resumes
  // in its last group (beacon membership was never rewritten) unless the
  // control hook repartitions later.
  const std::uint64_t capacity =
      config_.per_cache_capacity_bytes.empty()
          ? config_.cache_capacity_bytes
          : config_.per_cache_capacity_bytes[cache];
  caches_[cache] = std::make_unique<cache::EdgeCache>(
      capacity, catalog_,
      cache::make_policy(config_.policy, catalog_, config_.utility_params));
  ++joins_applied_;
  const auto group = static_cast<std::uint32_t>(group_of_[cache]);
  sink.emit(obs::TraceEvent::cache_join(t, cache, group));
  if (group_out != nullptr) *group_out = group;
  return true;
}

void ShardableEngine::apply_groups(
    const std::vector<std::vector<cache::CacheIndex>>& groups) {
  ECGF_PROF_SCOPE("sim.apply_groups");
  ECGF_EXPECTS(!groups.empty());
  constexpr auto kUnassigned = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> new_group_of(cache_count_, kUnassigned);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    ECGF_EXPECTS(!groups[g].empty());
    for (cache::CacheIndex c : groups[g]) {
      ECGF_EXPECTS(c < cache_count_);
      ECGF_EXPECTS(!departed_[c]);
      ECGF_EXPECTS(new_group_of[c] == kUnassigned);
      new_group_of[c] = g;
    }
  }
  for (std::size_t c = 0; c < cache_count_; ++c) {
    ECGF_EXPECTS(departed_[c] || new_group_of[c] != kUnassigned);
    // Departed caches keep their old group id for the rejoin default;
    // clamp it into range if their group vanished.
    if (departed_[c] && group_of_[c] >= groups.size()) new_group_of[c] = 0;
    if (departed_[c] && group_of_[c] < groups.size()) {
      new_group_of[c] = group_of_[c];
    }
  }

  // The cut-over costs in proportion to what moved, and leaves every
  // directory exactly as a rebuild from scratch would. Directory g serves
  // new group g wherever both partitions have a group g: members and
  // beacons are re-derived, registrations kept. Directories past the old
  // count are built fresh; those past the new count are dropped.
  const std::vector<std::size_t> old_group_of = std::exchange(
      group_of_, std::move(new_group_of));
  config_.groups = groups;
  const std::size_t kept = std::min(directories_.size(), groups.size());
  for (std::size_t g = 0; g < kept; ++g) {
    directories_[g]->reassign(groups[g], config_.beacons_per_group);
  }
  directories_.resize(kept);
  for (std::size_t g = kept; g < groups.size(); ++g) {
    directories_.push_back(std::make_unique<cache::GroupDirectory>(
        groups[g], config_.beacons_per_group));
  }
  // Cooperative state survives the cut-over: every live cache whose group
  // index changed moves its registrations to its new group's directory.
  // Down and departed caches hold none.
  for (std::size_t c = 0; c < cache_count_; ++c) {
    const std::size_t from = old_group_of[c];
    const std::size_t to = group_of_[c];
    if (down_[c] || from == to) continue;
    const auto holder = static_cast<cache::CacheIndex>(c);
    const std::vector<cache::DocId> docs = caches_[c]->resident_docs();
    if (from < kept) {
      for (cache::DocId d : docs) directories_[from]->remove_holder(d, holder);
    }
    for (cache::DocId d : docs) directories_[to]->add_holder(d, holder);
  }
  // A rebuild registers caches in index order, and request_beacon breaks
  // RTT ties between holders by list position.
  for (auto& dir : directories_) dir->sort_holders();
  ++regroupings_;
}

void ShardableEngine::on_failure(cache::CacheIndex failed, SimTime t,
                                 EffectSink& sink) {
  if (down_[failed]) return;
  down_[failed] = true;
  ++failures_applied_;
  directories_[group_of_[failed]]->remove_all_for_holder(failed);
  sink.emit(obs::TraceEvent::cache_failure(t, failed));
}

void ShardableEngine::on_update(const workload::Update& update,
                                EffectSink& sink) {
  origin_->apply_update(update.doc);
  if (config_.consistency == ConsistencyMode::kTtl) {
    // TTL consistency: updates generate no traffic; copies simply age out.
    return;
  }
  // Push invalidation: every registered holder in every group drops its
  // copy. The consistency traffic travels off the client path, so no
  // client-visible latency is charged here (its cost shows up as the lost
  // cache hits).
  std::size_t holders_dropped = 0;
  for (auto& dir : directories_) {
    // Copy: remove_holder mutates the underlying list.
    const std::vector<cache::CacheIndex> holders = dir->holders(update.doc);
    holders_dropped += holders.size();
    for (cache::CacheIndex h : holders) {
      if (caches_[h]->invalidate(update.doc)) ++invalidations_pushed_;
      dir->remove_holder(update.doc, h);
    }
  }
  sink.emit(obs::TraceEvent::invalidation(update.time_ms, update.doc,
                                          holders_dropped));
}

bool ShardableEngine::find_beacon(const cache::GroupDirectory& dir,
                                  cache::CacheIndex i, cache::DocId d,
                                  SimTime now, cache::CacheIndex& beacon,
                                  double& penalty_ms, EffectSink& sink) {
  // Beacon failover: crashed beacon slots are skipped in order, each dead
  // slot costing one timeout round trip to the dead member.
  const auto& members = dir.members();
  const std::size_t slots = dir.beacon_count();
  const std::size_t slot = dir.beacon_slot(d);
  for (std::size_t attempt = 0; attempt < slots; ++attempt) {
    const cache::CacheIndex candidate = members[(slot + attempt) % slots];
    if (!down_[candidate]) {
      beacon = candidate;
      return true;
    }
    penalty_ms += candidate == i ? 0.0 : rtt_.rtt_ms_at(i, candidate, now);
    ++sink.tally.failover_lookups;
  }
  return false;
}

void ShardableEngine::store_fetched(cache::CacheIndex i, cache::DocId d,
                                    cache::Version version, SimTime t,
                                    Resolution how) {
  // Cooperative placement: peer-served documents are stored according to
  // the configured RemotePlacement; origin-served documents always go
  // through the (possibly score-gated) local store.
  const bool from_peer = how == Resolution::kGroupHit;
  if (from_peer && config_.remote_placement == RemotePlacement::kNever) {
    return;
  }
  const bool force = config_.remote_placement == RemotePlacement::kAlways;
  std::vector<cache::DocId> evicted;
  cache::GroupDirectory& home = *directories_[group_of_[i]];
  if (caches_[i]->insert(d, version, t, &evicted, force)) {
    home.add_holder(d, i);
  }
  for (cache::DocId e : evicted) home.remove_holder(e, i);
}

void ShardableEngine::on_complete(const Completion& c, EffectSink& sink) {
  sink.record(c.cache, c.latency_ms, c.how, c.time);
  sink.emit(obs::TraceEvent::resolution(c.time, c.cache, c.doc,
                                        static_cast<int>(c.how),
                                        c.latency_ms));
  switch (c.store) {
    case StoreMode::kNoStore:
      break;
    case StoreMode::kIfVersionCurrent:
      // Store the fetched copy unless the origin moved on mid-flight
      // (the fetched bytes are already stale then) or the cache crashed
      // while the fetch was outstanding.
      if (origin_->version(c.doc) != c.version || down_[c.cache]) break;
      store_fetched(c.cache, c.doc, c.version, c.time, c.how);
      break;
    case StoreMode::kTtl:
      if (down_[c.cache]) break;
      // TTL restarts on (re)insertion — the copy is as fresh as the
      // holder's was, which the version records.
      store_fetched(c.cache, c.doc, c.version, c.time, c.how);
      break;
  }
}

Completion ShardableEngine::on_request(std::uint64_t request_index,
                                       const workload::Request& request,
                                       SimTime now, EffectSink& sink) {
  if (config_.directory == DirectoryMode::kSummary) {
    return request_summary(request_index, request, now, sink);
  }
  if (config_.consistency == ConsistencyMode::kTtl) {
    return request_ttl(request_index, request, now, sink);
  }
  return request_beacon(request_index, request, now, sink);
}

Completion ShardableEngine::request_beacon(std::uint64_t index,
                                           const workload::Request& request,
                                           SimTime now, EffectSink& sink) {
  const cache::CacheIndex i = request.cache;
  const cache::DocId d = request.doc;
  cache::EdgeCache& local = *caches_[i];
  cache::GroupDirectory& dir = *directories_[group_of_[i]];
  const cache::Version version = origin_->version(d);
  const std::uint64_t size = catalog_.info(d).size_bytes;
  sink.emit(obs::TraceEvent::request(now, i, d));

  Completion c;
  c.request_index = index;
  c.cache = i;
  c.doc = d;

  // A crashed edge cache serves nothing: its clients fall back to the
  // origin directly (no beacon consultation, no insert).
  if (down_[i]) {
    const double gen = origin_generation(d, sink);
    c.latency_ms = config_.cost.origin_fetch_ms(
        0.0, rtt_.rtt_ms_at(i, server_, now), gen, size);
    c.how = Resolution::kOriginFetch;
    c.time = now + c.latency_ms;
    return c;
  }

  const cache::LookupOutcome outcome = local.lookup(d, version, now);
  if (outcome == cache::LookupOutcome::kHitFresh) {
    c.latency_ms = config_.cost.local_hit_ms();
    c.how = Resolution::kLocalHit;
    c.time = now + c.latency_ms;
    return c;
  }

  // Local miss (or stale copy): consult the document's beacon point.
  double failover_penalty_ms = 0.0;
  cache::CacheIndex beacon = i;  // provisional; overwritten below
  const bool beacon_alive =
      find_beacon(dir, i, d, now, beacon, failover_penalty_ms, sink);
  if (!beacon_alive) {
    // Every beacon in the group is down: straight to the origin.
    const double gen = origin_generation(d, sink);
    c.latency_ms = failover_penalty_ms +
                   config_.cost.origin_fetch_ms(
                       0.0, rtt_.rtt_ms_at(i, server_, now), gen, size);
    c.latency_ms += charge_origin_transfer(i, now, size, sink);
    c.how = Resolution::kOriginFetch;
    c.time = now + c.latency_ms;
    return c;
  }
  const double rtt_ib = failover_penalty_ms +
                        (beacon == i ? 0.0 : rtt_.rtt_ms_at(i, beacon, now));
  sink.emit(
      obs::TraceEvent::dir_lookup(now, i, beacon, d, dir.holders(d).size()));
  if (beacon != i) {
    sink.rtt_sample(i, beacon, rtt_.rtt_ms_at(i, beacon, now), now);
  }

  // Cheapest fresh holder registered in the group directory.
  cache::CacheIndex holder = i;
  double best_rtt = std::numeric_limits<double>::infinity();
  for (cache::CacheIndex h : dir.holders(d)) {
    if (h == i || down_[h]) continue;
    if (!caches_[h]->has_fresh(d, version)) continue;
    const double r = rtt_.rtt_ms_at(i, h, now);
    if (r < best_rtt) {
      best_rtt = r;
      holder = h;
    }
  }

  if (holder != i) {
    const double rtt_bh =
        beacon == holder ? 0.0 : rtt_.rtt_ms_at(beacon, holder, now);
    c.latency_ms = config_.cost.group_hit_ms(rtt_ib, rtt_bh, best_rtt, size);
    c.how = Resolution::kGroupHit;
    // Congestion on the holder→requester transfer inflates both the
    // request's latency and the RTT the control hook observes — a
    // congested peer looks farther away to the drift monitor, exactly as
    // a passive measurement would see it.
    const double net_extra = charge_group_transfer(holder, i, now, size, sink);
    c.latency_ms += net_extra;
    sink.rtt_sample(i, holder, best_rtt + net_extra, now);
    caches_[holder]->touch(d, now);
  } else {
    const double gen = origin_generation(d, sink);
    c.latency_ms = config_.cost.origin_fetch_ms(
        rtt_ib, rtt_.rtt_ms_at(i, server_, now), gen, size);
    c.latency_ms += charge_origin_transfer(i, now, size, sink);
    c.how = Resolution::kOriginFetch;
  }

  c.version = version;
  c.store = StoreMode::kIfVersionCurrent;
  c.time = now + c.latency_ms;
  return c;
}

Completion ShardableEngine::request_summary(std::uint64_t index,
                                            const workload::Request& request,
                                            SimTime now, EffectSink& sink) {
  const cache::CacheIndex i = request.cache;
  const cache::DocId d = request.doc;
  cache::EdgeCache& local = *caches_[i];
  const cache::Version version = origin_->version(d);
  const std::uint64_t size = catalog_.info(d).size_bytes;
  sink.emit(obs::TraceEvent::request(now, i, d));

  Completion c;
  c.request_index = index;
  c.cache = i;
  c.doc = d;

  if (down_[i]) {
    const double gen = origin_generation(d, sink);
    c.latency_ms = config_.cost.origin_fetch_ms(
        0.0, rtt_.rtt_ms_at(i, server_, now), gen, size);
    c.how = Resolution::kOriginFetch;
    c.time = now + c.latency_ms;
    return c;
  }

  const auto outcome = local.lookup(d, version, now);
  if (outcome == cache::LookupOutcome::kHitFresh) {
    c.latency_ms = config_.cost.local_hit_ms();
    c.how = Resolution::kLocalHit;
    c.time = now + c.latency_ms;
    return c;
  }

  // Consult peers' (possibly stale) summaries locally — no lookup hop.
  // Try the nearest summary-positive peers; each false positive costs a
  // wasted round trip.
  double wasted_ms = 0.0;
  cache::CacheIndex holder = i;
  std::size_t attempts = 0;
  for (cache::CacheIndex peer : sorted_peers_[i]) {
    if (attempts >= config_.summary.max_probe_attempts) break;
    if (down_[peer]) continue;
    if (!summaries_[peer].maybe_contains(d)) continue;
    ++attempts;
    if (caches_[peer]->has_fresh(d, version)) {
      holder = peer;
      break;
    }
    // False positive (never stored, evicted since the last refresh, or
    // invalidated): one wasted round trip.
    wasted_ms += rtt_.rtt_ms_at(i, peer, now);
    ++sink.tally.wasted_summary_probes;
  }

  if (holder != i) {
    // Direct fetch: request (½RTT) + document back (½RTT + transfer).
    c.latency_ms = config_.cost.local_hit_ms() + wasted_ms +
                   rtt_.rtt_ms_at(i, holder, now) +
                   config_.cost.transfer_ms(size);
    c.latency_ms += charge_group_transfer(holder, i, now, size, sink);
    c.how = Resolution::kGroupHit;
    caches_[holder]->touch(d, now);
  } else {
    const double gen = origin_generation(d, sink);
    c.latency_ms = wasted_ms + config_.cost.origin_fetch_ms(
                                   0.0, rtt_.rtt_ms_at(i, server_, now), gen,
                                   size);
    c.latency_ms += charge_origin_transfer(i, now, size, sink);
    c.how = Resolution::kOriginFetch;
  }

  c.version = version;
  c.store = StoreMode::kIfVersionCurrent;
  c.time = now + c.latency_ms;
  return c;
}

Completion ShardableEngine::request_ttl(std::uint64_t index,
                                        const workload::Request& request,
                                        SimTime now, EffectSink& sink) {
  const cache::CacheIndex i = request.cache;
  const cache::DocId d = request.doc;
  cache::EdgeCache& local = *caches_[i];
  cache::GroupDirectory& dir = *directories_[group_of_[i]];
  const double ttl = config_.ttl_ms;
  const std::uint64_t size = catalog_.info(d).size_bytes;
  sink.emit(obs::TraceEvent::request(now, i, d));

  Completion c;
  c.request_index = index;
  c.cache = i;
  c.doc = d;

  if (down_[i]) {
    const double gen = origin_generation(d, sink);
    c.latency_ms = config_.cost.origin_fetch_ms(
        0.0, rtt_.rtt_ms_at(i, server_, now), gen, size);
    c.how = Resolution::kOriginFetch;
    c.time = now + c.latency_ms;
    return c;
  }

  const cache::LookupOutcome outcome = local.lookup_ttl(d, ttl, now);
  if (outcome == cache::LookupOutcome::kHitFresh) {
    // Served within TTL — possibly an outdated copy (the TTL trade-off).
    if (local.resident_version(d) != origin_->version(d)) {
      ++sink.tally.stale_served;
    }
    c.latency_ms = config_.cost.local_hit_ms();
    c.how = Resolution::kLocalHit;
    c.time = now + c.latency_ms;
    return c;
  }

  double failover_penalty_ms = 0.0;
  cache::CacheIndex beacon = i;
  const bool beacon_alive =
      find_beacon(dir, i, d, now, beacon, failover_penalty_ms, sink);

  // Cheapest unexpired holder; its copy may itself be outdated.
  cache::CacheIndex holder = i;
  double best_rtt = std::numeric_limits<double>::infinity();
  if (beacon_alive) {
    sink.emit(
        obs::TraceEvent::dir_lookup(now, i, beacon, d, dir.holders(d).size()));
    for (cache::CacheIndex h : dir.holders(d)) {
      if (h == i || down_[h]) continue;
      if (!caches_[h]->has_unexpired(d, ttl, now)) continue;
      const double r = rtt_.rtt_ms_at(i, h, now);
      if (r < best_rtt) {
        best_rtt = r;
        holder = h;
      }
    }
  }

  if (beacon_alive && holder != i) {
    const double rtt_ib = failover_penalty_ms +
                          (beacon == i ? 0.0 : rtt_.rtt_ms_at(i, beacon, now));
    const double rtt_bh =
        beacon == holder ? 0.0 : rtt_.rtt_ms_at(beacon, holder, now);
    c.latency_ms = config_.cost.group_hit_ms(rtt_ib, rtt_bh, best_rtt, size);
    c.latency_ms += charge_group_transfer(holder, i, now, size, sink);
    c.how = Resolution::kGroupHit;
    c.version = caches_[holder]->resident_version(d);
    if (c.version != origin_->version(d)) ++sink.tally.stale_served;
    caches_[holder]->touch(d, now);
  } else {
    const double rtt_ib =
        beacon_alive ? failover_penalty_ms +
                           (beacon == i ? 0.0 : rtt_.rtt_ms_at(i, beacon, now))
                     : failover_penalty_ms;
    const double gen = origin_generation(d, sink);
    c.latency_ms = config_.cost.origin_fetch_ms(
        rtt_ib, rtt_.rtt_ms_at(i, server_, now), gen, size);
    c.latency_ms += charge_origin_transfer(i, now, size, sink);
    c.how = Resolution::kOriginFetch;
    c.version = origin_->version(d);
  }

  c.store = StoreMode::kTtl;
  c.time = now + c.latency_ms;
  return c;
}

SimulationReport ShardableEngine::assemble_report(
    const MetricsCollector& metrics, std::uint64_t requests_processed,
    std::uint64_t events_executed, std::uint64_t control_ticks,
    const EngineTally& tally) const {
  SimulationReport report;
  report.events_executed = events_executed;
  report.avg_latency_ms = metrics.network_latency().mean();
  report.avg_miss_latency_ms = metrics.miss_latency().mean();
  report.p50_latency_ms = metrics.latency_quantile(0.50);
  report.p95_latency_ms = metrics.latency_quantile(0.95);
  report.p99_latency_ms = metrics.latency_quantile(0.99);
  report.per_cache_latency_ms.resize(cache_count_);
  report.per_cache_counts.resize(cache_count_);
  for (std::size_t c = 0; c < cache_count_; ++c) {
    report.per_cache_latency_ms[c] =
        metrics.cache_latency(static_cast<std::uint32_t>(c)).mean();
    report.per_cache_counts[c] =
        metrics.cache_counts(static_cast<std::uint32_t>(c));
  }
  report.counts = metrics.counts();
  report.raw_counts = metrics.raw_counts();
  report.origin_fetches = tally.origin_fetches;
  report.origin_updates = origin_->stats().updates;
  report.invalidations_pushed = invalidations_pushed_;
  report.requests_processed = requests_processed;
  report.failures_applied = failures_applied_;
  report.failover_lookups = tally.failover_lookups;
  report.leaves_applied = leaves_applied_;
  report.joins_applied = joins_applied_;
  report.regroupings = regroupings_;
  report.control_ticks = control_ticks;
  report.stale_served = tally.stale_served;
  report.wasted_summary_probes = tally.wasted_summary_probes;
  report.summary_rebuilds = summary_rebuilds_;
  if (config_.netmodel != nullptr) {
    const NetStats net = config_.netmodel->totals();
    report.net_drops = net.drops;
    report.net_marks = net.marks;
    report.net_retransmits = net.retransmits;
  }
  return report;
}

}  // namespace ecgf::sim
