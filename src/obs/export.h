// Metrics exporters — machine-readable serialization of simulation results.
//
// Three formats, all deterministic (std::to_chars number formatting, fixed
// field order):
//
//  * write_report_jsonl   — one JSON object per simulation run: the full
//                           SimulationReport (latencies, resolution
//                           breakdown, protocol counters).
//  * write_cache_csv      — one row per cache: post-warm-up mean latency
//                           and resolution counts (from per_cache_counts).
//  * write_group_csv      — one row per cooperative group: size plus the
//                           member-summed resolution counts and the
//                           member-mean latency.
//
// All writers take an ostream so callers choose file vs. buffer; none of
// them close or flush beyond operator<<. Thread-safety: none — call from
// one thread after the simulation finished.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "cache/directory.h"
#include "sim/metrics.h"
#include "sim/config.h"

namespace ecgf::obs {

/// Append one JSONL record for `report` to `os`. `label` names the run
/// (e.g. the sweep point or scheme name) and lands in a leading "label"
/// field; pass "" to omit it.
void write_report_jsonl(std::ostream& os, const sim::SimulationReport& report,
                        std::string_view label = {});

/// Append one JSONL record with the lifetime + post-warm-up counters of a
/// live MetricsCollector (for callers that never built a report).
void write_metrics_jsonl(std::ostream& os, const sim::MetricsCollector& metrics,
                         std::string_view label = {});

/// CSV of per-cache results: header
/// `cache,mean_latency_ms,local_hits,group_hits,origin_fetches` then one
/// row per cache. Requires report.per_cache_counts (filled by
/// a driver's run); latencies come from report.per_cache_latency_ms.
void write_cache_csv(std::ostream& os, const sim::SimulationReport& report);

/// CSV of per-group summaries: header
/// `group,size,local_hits,group_hits,origin_fetches,group_hit_rate,mean_latency_ms`
/// then one row per group in `groups` (the partition handed to the
/// simulator). Counts are summed over members; latency is the unweighted
/// member mean.
void write_group_csv(std::ostream& os, const sim::SimulationReport& report,
                     const std::vector<std::vector<cache::CacheIndex>>& groups);

}  // namespace ecgf::obs
