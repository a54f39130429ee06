// Self-contained timing harness for the perf-regression suite (bench/perf).
//
// Deliberately tiny and dependency-free (no google-benchmark): each case is
// a naive-vs-optimised pair timed with steady_clock, warmed up, and
// summarised by the MEDIAN of its repetitions — the median is stable under
// the occasional scheduler hiccup that poisons means and minima on shared
// machines. Results accumulate into a Report that prints a human table and
// writes the machine-readable BENCH_perf.json consumed by
// docs/performance.md (see that file for how to read the numbers and how to
// add a benchmark).
//
// The harness never compares timings across variants to decide pass/fail in
// smoke mode — timing checks are advisory and full-mode only; correctness
// (bit-identical outputs) is what `# shape-check:` lines assert.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "peak_rss.h"

namespace ecgf::perf {

/// Defeat dead-code elimination of a computed result without adding
/// measurable work inside the timed region.
inline void keep(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "g"(p) : "memory");
#else
  static volatile const void* sink;
  sink = p;
#endif
}

struct Timing {
  double median_ms = 0.0;
  double min_ms = 0.0;
  double mean_ms = 0.0;
  std::size_t reps = 0;
};

/// Summarise a sample vector (sorted in place).
inline Timing summarize(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  double total = 0.0;
  for (double s : samples) total += s;
  Timing t;
  t.reps = samples.size();
  t.min_ms = samples.front();
  t.mean_ms = total / static_cast<double>(samples.size());
  const std::size_t mid = samples.size() / 2;
  t.median_ms = (samples.size() % 2 == 1)
                    ? samples[mid]
                    : 0.5 * (samples[mid - 1] + samples[mid]);
  return t;
}

template <typename Fn>
double time_once_ms(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Run `fn` `warmup` untimed times (touch caches, fault pages, settle any
/// lazy init), then `reps` timed times; summarise.
template <typename Fn>
Timing time_fn(Fn&& fn, std::size_t reps, std::size_t warmup) {
  for (std::size_t i = 0; i < warmup; ++i) fn();
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) samples.push_back(time_once_ms(fn));
  return summarize(samples);
}

/// Time a naive-vs-optimised pair with INTERLEAVED repetitions (A B A B …
/// instead of all A then all B): slow drifts in background machine load
/// then hit both variants equally, so the speedup ratio of the medians is
/// far more stable than timing each side in its own block.
template <typename FnA, typename FnB>
std::pair<Timing, Timing> time_pair(FnA&& naive, FnB&& optimized,
                                    std::size_t reps, std::size_t warmup) {
  for (std::size_t i = 0; i < warmup; ++i) {
    naive();
    optimized();
  }
  std::vector<double> sa, sb;
  sa.reserve(reps);
  sb.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    sa.push_back(time_once_ms(naive));
    sb.push_back(time_once_ms(optimized));
  }
  return {summarize(sa), summarize(sb)};
}

/// One naive-vs-optimised comparison row.
struct Entry {
  std::string bench;   ///< kernel name, e.g. "kmeans"
  std::string params;  ///< human-readable size string, e.g. "n=4096 d=25 k=32"
  std::size_t n = 0;   ///< principal problem size (for sorting/plotting)
  Timing naive;
  Timing optimized;

  double speedup() const {
    return optimized.median_ms > 0.0 ? naive.median_ms / optimized.median_ms
                                     : 0.0;
  }
};

/// Accumulates entries; renders the table and BENCH_perf.json.
class Report {
 public:
  Report(std::string mode, std::size_t threads)
      : mode_(std::move(mode)), threads_(threads) {}

  void add(Entry entry) { entries_.push_back(std::move(entry)); }

  const std::vector<Entry>& entries() const { return entries_; }

  void print_table(std::ostream& os) const {
    os << std::left << std::setw(18) << "bench" << std::setw(26) << "params"
       << std::right << std::setw(14) << "naive ms" << std::setw(14)
       << "optimized ms" << std::setw(10) << "speedup" << '\n';
    for (const Entry& e : entries_) {
      os << std::left << std::setw(18) << e.bench << std::setw(26) << e.params
         << std::right << std::fixed << std::setprecision(3) << std::setw(14)
         << e.naive.median_ms << std::setw(14) << e.optimized.median_ms
         << std::setprecision(2) << std::setw(9) << e.speedup() << "x\n";
    }
  }

  /// Write the JSON document. Schema (ecgf-bench-perf/1): top-level
  /// `schema`, `mode` ("full"|"smoke"), `threads`, `host_cores`,
  /// `peak_rss_bytes` and `entries[]`, each
  /// with `bench`, `params`, `n`, `naive`/`optimized` timing objects
  /// (median_ms/min_ms/mean_ms/reps) and the derived `speedup`
  /// (naive median / optimized median; higher is better).
  bool write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\n  \"schema\": \"ecgf-bench-perf/1\",\n  \"mode\": \"" << mode_
        << "\",\n  \"threads\": " << threads_ << ",\n  \"host_cores\": "
        << std::max(1u, std::thread::hardware_concurrency())
        << ",\n  \"peak_rss_bytes\": " << bench::peak_rss_bytes()
        << ",\n  \"entries\": [";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << (i == 0 ? "" : ",") << "\n    {\n      \"bench\": \"" << e.bench
          << "\",\n      \"params\": \"" << e.params
          << "\",\n      \"n\": " << e.n << ",\n      \"naive\": "
          << timing_json(e.naive) << ",\n      \"optimized\": "
          << timing_json(e.optimized) << ",\n      \"speedup\": "
          << round3(e.speedup()) << "\n    }";
    }
    out << "\n  ]\n}\n";
    return out.good();
  }

 private:
  static std::string round3(double v) {
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(3) << v;
    return ss.str();
  }

  static std::string timing_json(const Timing& t) {
    std::ostringstream ss;
    ss << "{\"median_ms\": " << round3(t.median_ms)
       << ", \"min_ms\": " << round3(t.min_ms)
       << ", \"mean_ms\": " << round3(t.mean_ms) << ", \"reps\": " << t.reps
       << "}";
    return ss.str();
  }

  std::string mode_;
  std::size_t threads_;
  std::vector<Entry> entries_;
};

}  // namespace ecgf::perf
