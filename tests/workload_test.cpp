// Tests for the workload generator: Zipf sampling, trace generation,
// trace (de)serialisation — and the streaming engine (workload/stream.h):
// byte-identity with a frozen copy of the legacy generator, shard-safe
// partitioning, nonstationary processes (diurnal, churn, regional flash
// crowds), and bit-identical simulation runs at any (shards, threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "net/distance_matrix.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "shard/sharded_sim.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "workload/generator.h"
#include "workload/stream.h"
#include "workload/trace.h"
#include "workload/zipf.h"

namespace ecgf::workload {
namespace {

TEST(Zipf, PmfNormalisedAndMonotone) {
  const ZipfSampler zipf(100, 0.9);
  double total = 0.0;
  for (std::size_t r = 0; r < 100; ++r) {
    total += zipf.pmf(r);
    if (r > 0) {
      EXPECT_LE(zipf.pmf(r), zipf.pmf(r - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Zipf, AlphaZeroIsUniform) {
  const ZipfSampler zipf(10, 0.0);
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(zipf.pmf(r), 0.1, 1e-12);
  }
}

TEST(Zipf, SampleFrequenciesTrackPmf) {
  const ZipfSampler zipf(20, 1.0);
  util::Rng rng(1);
  std::map<std::size_t, int> counts;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t r : {0u, 1u, 5u, 19u}) {
    EXPECT_NEAR(counts[r] / static_cast<double>(kN), zipf.pmf(r), 0.01)
        << "rank " << r;
  }
}

TEST(Zipf, HigherAlphaMoreSkewed) {
  const ZipfSampler mild(50, 0.5);
  const ZipfSampler steep(50, 1.5);
  EXPECT_GT(steep.pmf(0), mild.pmf(0));
  EXPECT_LT(steep.pmf(49), mild.pmf(49));
}

cache::Catalog test_catalog(std::size_t docs, double update_rate = 0.01) {
  std::vector<cache::DocumentInfo> infos(docs);
  for (auto& d : infos) d = {2048, 10.0, update_rate};
  return cache::Catalog(std::move(infos));
}

TEST(Generator, TraceWellFormed) {
  const auto catalog = test_catalog(200);
  WorkloadParams params;
  params.cache_count = 10;
  params.duration_ms = 30'000.0;
  util::Rng rng(2);
  const Trace trace = generate_trace(params, catalog, rng);
  EXPECT_NO_THROW(trace.validate(10, 200));
  EXPECT_FALSE(trace.requests.empty());
  EXPECT_FALSE(trace.updates.empty());
}

TEST(Generator, RequestVolumeMatchesRate) {
  const auto catalog = test_catalog(100, 0.0);
  WorkloadParams params;
  params.cache_count = 20;
  params.duration_ms = 60'000.0;
  params.requests_per_cache_per_s = 3.0;
  util::Rng rng(3);
  const Trace trace = generate_trace(params, catalog, rng);
  const double expected = 20 * 3.0 * 60.0;  // caches × rate × seconds
  EXPECT_NEAR(static_cast<double>(trace.requests.size()), expected,
              expected * 0.1);
}

TEST(Generator, UpdateVolumeMatchesCatalogRates) {
  const auto catalog = test_catalog(100, 0.05);
  WorkloadParams params;
  params.cache_count = 5;
  params.duration_ms = 120'000.0;
  util::Rng rng(4);
  const Trace trace = generate_trace(params, catalog, rng);
  const double expected = 100 * 0.05 * 120.0;  // docs × rate × seconds
  EXPECT_NEAR(static_cast<double>(trace.updates.size()), expected,
              expected * 0.15);
}

TEST(Generator, DeterministicForSameSeed) {
  const auto catalog = test_catalog(50);
  WorkloadParams params;
  params.cache_count = 4;
  params.duration_ms = 10'000.0;
  util::Rng r1(5), r2(5);
  const Trace t1 = generate_trace(params, catalog, r1);
  const Trace t2 = generate_trace(params, catalog, r2);
  ASSERT_EQ(t1.requests.size(), t2.requests.size());
  for (std::size_t i = 0; i < t1.requests.size(); ++i) {
    EXPECT_EQ(t1.requests[i].doc, t2.requests[i].doc);
    EXPECT_DOUBLE_EQ(t1.requests[i].time_ms, t2.requests[i].time_ms);
  }
}

/// Top-document overlap between two caches' request streams.
double top_doc_overlap(const Trace& trace, std::uint32_t c1, std::uint32_t c2,
                       std::size_t top = 10) {
  auto top_docs = [&](std::uint32_t c) {
    std::map<cache::DocId, int> counts;
    for (const auto& r : trace.requests) {
      if (r.cache == c) ++counts[r.doc];
    }
    std::vector<std::pair<int, cache::DocId>> ranked;
    for (auto [d, n] : counts) ranked.emplace_back(n, d);
    std::sort(ranked.rbegin(), ranked.rend());
    std::set<cache::DocId> out;
    for (std::size_t i = 0; i < std::min(top, ranked.size()); ++i) {
      out.insert(ranked[i].second);
    }
    return out;
  };
  const auto a = top_docs(c1);
  const auto b = top_docs(c2);
  int common = 0;
  for (auto d : a) {
    if (b.contains(d)) ++common;
  }
  return static_cast<double>(common) / static_cast<double>(top);
}

TEST(Generator, SimilarityKnobControlsOverlap) {
  const auto catalog = test_catalog(500, 0.0);
  WorkloadParams params;
  params.cache_count = 2;
  params.duration_ms = 400'000.0;
  params.requests_per_cache_per_s = 5.0;
  params.zipf_alpha = 1.0;

  params.similarity = 1.0;
  util::Rng r1(6);
  const Trace same = generate_trace(params, catalog, r1);

  params.similarity = 0.0;
  util::Rng r2(6);
  const Trace diff = generate_trace(params, catalog, r2);

  EXPECT_GT(top_doc_overlap(same, 0, 1), 0.7);
  EXPECT_LT(top_doc_overlap(diff, 0, 1), 0.4);
}

TEST(TraceIo, RoundTrips) {
  const auto catalog = test_catalog(30);
  WorkloadParams params;
  params.cache_count = 3;
  params.duration_ms = 5'000.0;
  util::Rng rng(7);
  const Trace trace = generate_trace(params, catalog, rng);

  std::stringstream ss;
  write_trace(ss, trace);
  const Trace back = read_trace(ss);

  ASSERT_EQ(back.requests.size(), trace.requests.size());
  ASSERT_EQ(back.updates.size(), trace.updates.size());
  EXPECT_DOUBLE_EQ(back.duration_ms, trace.duration_ms);
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    EXPECT_EQ(back.requests[i].cache, trace.requests[i].cache);
    EXPECT_EQ(back.requests[i].doc, trace.requests[i].doc);
    EXPECT_NEAR(back.requests[i].time_ms, trace.requests[i].time_ms, 1e-6);
  }
  EXPECT_NO_THROW(back.validate(3, 30));
}

TEST(TraceIo, RejectsGarbage) {
  std::stringstream bad1("not-a-trace\n");
  EXPECT_THROW(read_trace(bad1), util::ContractViolation);
  std::stringstream bad2("ecgf-trace v1 100\nX 1 2 3\n");
  EXPECT_THROW(read_trace(bad2), util::ContractViolation);
  std::stringstream bad3("ecgf-trace v1 100\nR oops\n");
  EXPECT_THROW(read_trace(bad3), util::ContractViolation);
}

TEST(TraceValidate, CatchesViolations) {
  Trace t;
  t.duration_ms = 100.0;
  t.requests = {{50.0, 0, 0}, {25.0, 0, 0}};  // out of order
  EXPECT_THROW(t.validate(1, 1), util::ContractViolation);

  Trace t2;
  t2.duration_ms = 100.0;
  t2.requests = {{50.0, 5, 0}};  // cache out of range
  EXPECT_THROW(t2.validate(1, 1), util::ContractViolation);

  Trace t3;
  t3.duration_ms = 100.0;
  t3.updates = {{150.0, 0}};  // past the end
  EXPECT_THROW(t3.validate(1, 1), util::ContractViolation);
}

// ----------------------------------------------------------------------
// Frozen legacy generator: a verbatim copy of generate_trace as it stood
// before the streaming engine replaced it. The stream must reproduce this
// byte for byte at default StreamProfile::kExact with every nonstationary
// knob off — the pin that keeps "generate_trace is a thin wrapper" honest.
// ----------------------------------------------------------------------

Trace frozen_legacy_trace(const WorkloadParams& params,
                          const cache::Catalog& catalog, util::Rng& rng) {
  const std::size_t docs = catalog.size();
  const ZipfSampler zipf(docs, params.zipf_alpha);

  std::vector<cache::DocId> global_rank(docs);
  for (std::size_t i = 0; i < docs; ++i) {
    global_rank[i] = static_cast<cache::DocId>(i);
  }
  rng.shuffle(global_rank);

  Trace trace;
  trace.duration_ms = params.duration_ms;

  const double rate_per_ms = params.requests_per_cache_per_s / 1000.0;
  for (std::uint32_t c = 0; c < params.cache_count; ++c) {
    util::Rng cache_rng = rng.fork(c + 1);
    std::vector<cache::DocId> private_rank = global_rank;
    cache_rng.shuffle(private_rank);

    double t = cache_rng.exponential(rate_per_ms);
    while (t < params.duration_ms) {
      const std::size_t rank = zipf.sample(cache_rng);
      const bool shared = cache_rng.bernoulli(params.similarity);
      trace.requests.push_back(
          Request{t, c, shared ? global_rank[rank] : private_rank[rank]});
      t += cache_rng.exponential(rate_per_ms);
    }
  }
  if (params.flash_crowd_enabled) {
    const FlashCrowd& fc = params.flash_crowd;
    util::Rng fc_rng = rng.fork(0xF1A5Cu);
    std::vector<cache::DocId> hot;
    for (std::size_t i : fc_rng.sample_indices(docs, fc.hot_docs)) {
      hot.push_back(static_cast<cache::DocId>(i));
    }
    const ZipfSampler hot_zipf(fc.hot_docs, fc.hot_zipf_alpha);
    const double extra_rate_per_ms = fc.extra_rate_per_cache_per_s / 1000.0;
    for (std::uint32_t c = 0; c < params.cache_count; ++c) {
      util::Rng cache_rng = fc_rng.fork(c + 1);
      double t = fc.start_ms + cache_rng.exponential(extra_rate_per_ms);
      while (t < fc.start_ms + fc.duration_ms) {
        trace.requests.push_back(Request{t, c, hot[hot_zipf.sample(cache_rng)]});
        t += cache_rng.exponential(extra_rate_per_ms);
      }
    }
  }

  std::sort(trace.requests.begin(), trace.requests.end(),
            [](const Request& a, const Request& b) {
              return a.time_ms != b.time_ms ? a.time_ms < b.time_ms
                                            : a.cache < b.cache;
            });

  util::Rng update_rng = rng.fork(0x5eedu);
  for (cache::DocId d = 0; d < docs; ++d) {
    const double rate = catalog.info(d).update_rate / 1000.0;
    if (rate <= 0.0) continue;
    double t = update_rng.exponential(rate);
    while (t < params.duration_ms) {
      trace.updates.push_back(Update{t, d});
      t += update_rng.exponential(rate);
    }
  }
  std::sort(trace.updates.begin(), trace.updates.end(),
            [](const Update& a, const Update& b) {
              return a.time_ms != b.time_ms ? a.time_ms < b.time_ms
                                            : a.doc < b.doc;
            });
  return trace;
}

void expect_traces_identical(const Trace& got, const Trace& want) {
  ASSERT_EQ(got.requests.size(), want.requests.size());
  ASSERT_EQ(got.updates.size(), want.updates.size());
  EXPECT_EQ(got.duration_ms, want.duration_ms);
  for (std::size_t i = 0; i < want.requests.size(); ++i) {
    ASSERT_EQ(got.requests[i].time_ms, want.requests[i].time_ms) << "req " << i;
    ASSERT_EQ(got.requests[i].cache, want.requests[i].cache) << "req " << i;
    ASSERT_EQ(got.requests[i].doc, want.requests[i].doc) << "req " << i;
  }
  for (std::size_t i = 0; i < want.updates.size(); ++i) {
    ASSERT_EQ(got.updates[i].time_ms, want.updates[i].time_ms) << "upd " << i;
    ASSERT_EQ(got.updates[i].doc, want.updates[i].doc) << "upd " << i;
  }
}

TEST(Stream, StreamMatchesFrozenLegacyGenerator) {
  const auto catalog = test_catalog(150, 0.02);

  std::vector<WorkloadParams> grid;
  {
    WorkloadParams p;  // defaults, small
    p.cache_count = 6;
    p.duration_ms = 40'000.0;
    grid.push_back(p);
    p.similarity = 0.0;  // all-private draws
    grid.push_back(p);
    p.similarity = 1.0;  // all-shared draws
    grid.push_back(p);
    p.similarity = 0.8;
    p.zipf_alpha = 0.0;  // uniform popularity
    grid.push_back(p);
    p.zipf_alpha = 0.9;  // flash crowd on (full region — the legacy shape)
    p.flash_crowd_enabled = true;
    p.flash_crowd.start_ms = 10'000.0;
    p.flash_crowd.duration_ms = 8'000.0;
    p.flash_crowd.extra_rate_per_cache_per_s = 6.0;
    p.flash_crowd.hot_docs = 12;
    grid.push_back(p);
  }

  for (std::size_t g = 0; g < grid.size(); ++g) {
    SCOPED_TRACE("grid case " + std::to_string(g));
    util::Rng legacy_rng(77);
    const Trace want = frozen_legacy_trace(grid[g], catalog, legacy_rng);
    util::Rng stream_rng(77);
    const Trace got = generate_trace(grid[g], catalog, stream_rng);
    expect_traces_identical(got, want);
    // The wrapper consumes the caller's rng exactly as the legacy code did.
    EXPECT_EQ(stream_rng.engine()(), legacy_rng.engine()());
  }
}

// ----------------------------------------------------------------------
// Zipf edge cases and the one-uniform sampling contract.
// ----------------------------------------------------------------------

TEST(Zipf, SingleDocumentAlwaysRankZero) {
  const ZipfSampler zipf(1, 0.9);
  EXPECT_NEAR(zipf.pmf(0), 1.0, 1e-12);
  EXPECT_EQ(zipf.sample_from(0.0), 0u);
  EXPECT_EQ(zipf.sample_from(0.999999), 0u);
  util::Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(Zipf, SampleFromIsMonotoneAndHitsBoundaries) {
  const ZipfSampler zipf(32, 0.7);
  EXPECT_EQ(zipf.sample_from(0.0), 0u);
  EXPECT_EQ(zipf.sample_from(1.0 - 1e-15), 31u);
  std::size_t prev = 0;
  for (int i = 0; i <= 1'000; ++i) {
    const std::size_t r = zipf.sample_from(i / 1'000.0 * (1.0 - 1e-12));
    EXPECT_GE(r, prev);
    EXPECT_LT(r, 32u);
    prev = r;
  }
}

TEST(Zipf, AlphaZeroSampleFromIsUniformPartition) {
  const ZipfSampler zipf(10, 0.0);
  // Inverse CDF of the uniform pmf is floor(u * n).
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(zipf.sample_from((i + 0.5) / 10.0), static_cast<std::size_t>(i));
  }
}

TEST(Zipf, LargeAlphaConcentratesOnRankZero) {
  const ZipfSampler zipf(1'000, 5.0);
  EXPECT_GT(zipf.pmf(0), 0.95);
  EXPECT_EQ(zipf.sample_from(0.9), 0u);
}

TEST(Stream, PseudoPermuteIsABijection) {
  for (const std::size_t n : {1u, 2u, 3u, 7u, 64u, 100u, 1'000u}) {
    for (const std::uint64_t key : {0ull, 42ull, 0xDEADBEEFull}) {
      std::vector<bool> hit(n, false);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = stream_detail::pseudo_permute(key, n, i);
        ASSERT_LT(j, n);
        ASSERT_FALSE(hit[j]) << "collision at n=" << n << " i=" << i;
        hit[j] = true;
      }
    }
  }
  // Different keys give different permutations (overwhelmingly likely).
  std::vector<std::size_t> a, b;
  for (std::size_t i = 0; i < 100; ++i) {
    a.push_back(stream_detail::pseudo_permute(1, 100, i));
    b.push_back(stream_detail::pseudo_permute(2, 100, i));
  }
  EXPECT_NE(a, b);
}

// ----------------------------------------------------------------------
// Stream mechanics: canonical keys, peeking, suffix fast-forward, the
// update cursor.
// ----------------------------------------------------------------------

WorkloadParams small_params() {
  WorkloadParams p;
  p.cache_count = 5;
  p.duration_ms = 30'000.0;
  p.requests_per_cache_per_s = 4.0;
  return p;
}

TEST(Stream, KeysArePerCacheSequencesAndPeekMatchesNext) {
  const auto catalog = test_catalog(80);
  util::Rng rng(11);
  SyntheticWorkload source(small_params(), catalog, rng);
  auto stream = source.requests();

  std::map<std::uint32_t, std::uint64_t> next_seq;
  Request r;
  std::uint64_t key = 0;
  double prev_time = 0.0;
  while (stream->peek_time_ms() < kNoEvent) {
    const double peeked = stream->peek_time_ms();
    const std::uint64_t peeked_key = stream->peek_key();
    ASSERT_TRUE(stream->next(r, key));
    EXPECT_EQ(r.time_ms, peeked);
    EXPECT_EQ(key, peeked_key);
    EXPECT_EQ(key, request_key(r.cache, next_seq[r.cache]++));
    EXPECT_GE(r.time_ms, prev_time);  // nondecreasing (time, cache) order
    prev_time = r.time_ms;
  }
  EXPECT_FALSE(stream->next(r, key));
  EXPECT_GT(next_seq.size(), 0u);
}

TEST(Stream, FromMsStreamsTheExactSuffix) {
  const auto catalog = test_catalog(80);
  const WorkloadParams params = small_params();

  util::Rng r1(13);
  SyntheticWorkload full(params, catalog, r1);
  std::vector<std::pair<Request, std::uint64_t>> all;
  {
    auto stream = full.requests();
    Request r;
    std::uint64_t key = 0;
    while (stream->next(r, key)) all.emplace_back(r, key);
  }

  const double cut = 11'000.0;
  util::Rng r2(13);
  SyntheticWorkload suffix_source(params, catalog, r2);
  auto stream = suffix_source.requests(cut);
  std::size_t pos = 0;
  while (pos < all.size() && all[pos].first.time_ms < cut) ++pos;
  Request r;
  std::uint64_t key = 0;
  while (stream->next(r, key)) {
    ASSERT_LT(pos, all.size());
    EXPECT_EQ(r.time_ms, all[pos].first.time_ms);
    EXPECT_EQ(r.cache, all[pos].first.cache);
    EXPECT_EQ(r.doc, all[pos].first.doc);
    EXPECT_EQ(key, all[pos].second);  // seq counters survive the fast-forward
    ++pos;
  }
  EXPECT_EQ(pos, all.size());
}

TEST(Stream, UpdateStreamIsACursorOverTheLog) {
  const auto catalog = test_catalog(60, 0.05);
  util::Rng rng(17);
  SyntheticWorkload source(small_params(), catalog, rng);
  const auto& log = source.updates();
  ASSERT_FALSE(log.empty());

  const double cut = log[log.size() / 2].time_ms;
  auto stream = source.update_stream(cut);
  std::size_t pos = 0;
  while (log[pos].time_ms < cut) ++pos;
  Update u;
  while (stream->next(u)) {
    ASSERT_LT(pos, log.size());
    EXPECT_EQ(u.time_ms, log[pos].time_ms);
    EXPECT_EQ(u.doc, log[pos].doc);
    ++pos;
  }
  EXPECT_EQ(pos, log.size());
  EXPECT_EQ(stream->peek_time_ms(), kNoEvent);
}

// ----------------------------------------------------------------------
// Shard safety: partitioned streams reassemble to the single-stream run —
// same times, docs and canonical keys — at any shard count, including with
// every nonstationary process switched on (lean profile).
// ----------------------------------------------------------------------

WorkloadParams nonstationary_params() {
  WorkloadParams p;
  p.cache_count = 8;
  p.duration_ms = 60'000.0;
  p.requests_per_cache_per_s = 3.0;
  p.profile = StreamProfile::kLean;
  p.diurnal.amplitude = 0.5;
  p.diurnal.period_ms = 30'000.0;
  p.churn.interval_ms = 5'000.0;
  p.churn.half_life_ms = 20'000.0;
  p.flash_crowd_enabled = true;
  p.flash_crowd.start_ms = 20'000.0;
  p.flash_crowd.duration_ms = 10'000.0;
  p.flash_crowd.extra_rate_per_cache_per_s = 5.0;
  p.flash_crowd.hot_docs = 10;
  p.flash_crowd.region_fraction = 0.5;
  return p;
}

void check_partition_reassembles(const WorkloadParams& params) {
  const auto catalog = test_catalog(120, 0.0);

  util::Rng ref_rng(23);
  SyntheticWorkload ref_source(params, catalog, ref_rng);
  std::vector<std::pair<Request, std::uint64_t>> reference;
  {
    auto stream = ref_source.requests();
    Request r;
    std::uint64_t key = 0;
    while (stream->next(r, key)) reference.emplace_back(r, key);
  }
  ASSERT_FALSE(reference.empty());

  for (const std::size_t shards : {1u, 4u, 8u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    util::Rng rng(23);
    SyntheticWorkload source(params, catalog, rng);
    auto parts = source.partition(
        shards, [shards](std::uint32_t c) { return c % shards; }, 0.0);
    ASSERT_EQ(parts.size(), shards);

    std::vector<std::pair<Request, std::uint64_t>> merged;
    for (auto& part : parts) {
      Request r;
      std::uint64_t key = 0;
      double prev = 0.0;
      while (part->next(r, key)) {
        EXPECT_GE(r.time_ms, prev);  // each shard stream is time-ordered
        prev = r.time_ms;
        merged.emplace_back(r, key);
      }
    }
    // Canonical (time, cache) merge — what the sharded driver's event
    // order reduces to for request arrivals.
    std::sort(merged.begin(), merged.end(),
              [](const auto& a, const auto& b) {
                if (a.first.time_ms != b.first.time_ms) {
                  return a.first.time_ms < b.first.time_ms;
                }
                return a.first.cache < b.first.cache;
              });
    ASSERT_EQ(merged.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(merged[i].first.time_ms, reference[i].first.time_ms) << i;
      ASSERT_EQ(merged[i].first.cache, reference[i].first.cache) << i;
      ASSERT_EQ(merged[i].first.doc, reference[i].first.doc) << i;
      ASSERT_EQ(merged[i].second, reference[i].second) << i;
    }
  }
}

TEST(Stream, PartitionReassemblesExactProfile) {
  WorkloadParams p = small_params();
  p.cache_count = 8;
  check_partition_reassembles(p);
}

TEST(Stream, PartitionReassemblesWithNonstationaryProcesses) {
  check_partition_reassembles(nonstationary_params());
}

// ----------------------------------------------------------------------
// Statistical behaviour of the lean profile and the nonstationary knobs.
// ----------------------------------------------------------------------

TEST(Stream, LeanProfileTracksZipfPmf) {
  // All-shared draws so every request exposes its rank through the global
  // mapping; then a chi-squared fit against the exact pmf. sample_from is
  // an exact inverse-CDF, so only the SplitMix uniforms are on trial.
  const std::size_t kDocs = 50;
  const auto catalog = test_catalog(kDocs, 0.0);
  WorkloadParams p;
  p.cache_count = 1;
  p.duration_ms = 500'000.0;
  p.requests_per_cache_per_s = 100.0;
  p.zipf_alpha = 1.0;
  p.similarity = 1.0;
  p.profile = StreamProfile::kLean;

  util::Rng rng(31);
  SyntheticWorkload source(p, catalog, rng);
  const Trace trace = materialise(source);
  ASSERT_GT(trace.requests.size(), 40'000u);

  // Invert the global rank→doc mapping via a second identical source's
  // all-shared draws is overkill: ranks are recoverable by popularity
  // order, but the mapping itself is deterministic — rebuild it.
  util::Rng rng2(31);
  std::vector<cache::DocId> global_rank(kDocs);
  std::iota(global_rank.begin(), global_rank.end(), cache::DocId{0});
  rng2.shuffle(global_rank);
  std::vector<std::size_t> rank_of(kDocs);
  for (std::size_t r = 0; r < kDocs; ++r) rank_of[global_rank[r]] = r;

  const ZipfSampler zipf(kDocs, 1.0);
  constexpr std::size_t kHeadBins = 20;
  std::vector<double> observed(kHeadBins + 1, 0.0);
  for (const auto& r : trace.requests) {
    const std::size_t rank = rank_of[r.doc];
    ++observed[std::min(rank, kHeadBins)];
  }
  const double n = static_cast<double>(trace.requests.size());
  double chi2 = 0.0;
  double tail_p = 1.0;
  for (std::size_t r = 0; r < kHeadBins; ++r) tail_p -= zipf.pmf(r);
  for (std::size_t b = 0; b <= kHeadBins; ++b) {
    const double expected = n * (b < kHeadBins ? zipf.pmf(b) : tail_p);
    chi2 += (observed[b] - expected) * (observed[b] - expected) / expected;
  }
  // 20 degrees of freedom; 0.999 critical value is 45.3. Fixed seed, so
  // this is a regression gate, not a flaky significance test.
  EXPECT_LT(chi2, 60.0);
}

TEST(Stream, DiurnalModulationShapesArrivalRate) {
  const auto catalog = test_catalog(50, 0.0);
  WorkloadParams p;
  p.cache_count = 20;
  p.duration_ms = 200'000.0;
  p.requests_per_cache_per_s = 5.0;
  p.diurnal.amplitude = 0.8;
  p.diurnal.period_ms = p.duration_ms;  // one full cycle

  util::Rng rng(37);
  SyntheticWorkload source(p, catalog, rng);
  const Trace trace = materialise(source);

  constexpr std::size_t kBins = 8;
  std::vector<double> bins(kBins, 0.0);
  for (const auto& r : trace.requests) {
    ++bins[std::min(kBins - 1, static_cast<std::size_t>(
                                   r.time_ms / p.duration_ms * kBins))];
  }
  // sin peaks in bin 2 (phase π/2..3π/4) and troughs in bin 6; with
  // amplitude 0.8 the bin-averaged rates are 1.72 vs 0.28 — a 6x swing.
  EXPECT_GT(bins[2], 3.0 * bins[6]);
  const double total = std::accumulate(bins.begin(), bins.end(), 0.0);
  // Mean rate is preserved: the modulation integrates to 1 over a period.
  const double expected_total =
      p.duration_ms / 1000.0 * p.requests_per_cache_per_s * p.cache_count;
  EXPECT_NEAR(total, expected_total, expected_total * 0.05);
}

TEST(Stream, ChurnDecaysAtTheConfiguredHalfLife) {
  const std::size_t kDocs = 1'000;
  std::vector<cache::DocId> identity(kDocs);
  std::iota(identity.begin(), identity.end(), cache::DocId{0});
  PopularityChurn params;
  params.interval_ms = 1'000.0;
  params.half_life_ms = 8'000.0;

  PopularityChurnProcess churn(identity, params, util::Rng(41));
  ASSERT_TRUE(churn.enabled());

  auto unchanged = [&] {
    std::size_t same = 0;
    for (std::size_t r = 0; r < kDocs; ++r) {
      if (churn.doc_at(r) == static_cast<cache::DocId>(r)) ++same;
    }
    return static_cast<double>(same) / static_cast<double>(kDocs);
  };

  churn.advance_to(8'000.0);  // one half-life
  EXPECT_EQ(churn.epochs_applied(), 8u);
  EXPECT_NEAR(unchanged(), 0.5, 0.08);

  churn.advance_to(16'000.0);  // two half-lives
  EXPECT_EQ(churn.epochs_applied(), 16u);
  EXPECT_NEAR(unchanged(), 0.25, 0.08);

  // Deterministic replay: a second process from the same inputs lands on
  // the identical mapping — the property per-shard streams rely on.
  PopularityChurnProcess replay(identity, params, util::Rng(41));
  replay.advance_to(16'000.0);
  EXPECT_EQ(replay.rank_to_doc(), churn.rank_to_doc());
}

TEST(Stream, RegionalFlashCrowdLeavesOtherCachesUntouched) {
  const auto catalog = test_catalog(100, 0.0);
  WorkloadParams base = small_params();
  base.cache_count = 8;

  WorkloadParams regional = base;
  regional.flash_crowd_enabled = true;
  regional.flash_crowd.start_ms = 5'000.0;
  regional.flash_crowd.duration_ms = 10'000.0;
  regional.flash_crowd.extra_rate_per_cache_per_s = 8.0;
  regional.flash_crowd.hot_docs = 10;
  regional.flash_crowd.region_fraction = 0.25;  // 2 of 8 caches

  util::Rng r1(43);
  SyntheticWorkload quiet_source(base, catalog, r1);
  const Trace quiet = materialise(quiet_source);
  util::Rng r2(43);
  SyntheticWorkload stormy_source(regional, catalog, r2);
  const Trace stormy = materialise(stormy_source);

  auto per_cache = [](const Trace& t, std::uint32_t c) {
    std::vector<std::pair<double, cache::DocId>> out;
    for (const auto& r : t.requests) {
      if (r.cache == c) out.emplace_back(r.time_ms, r.doc);
    }
    return out;
  };

  std::size_t untouched = 0;
  for (std::uint32_t c = 0; c < 8; ++c) {
    if (per_cache(quiet, c) == per_cache(stormy, c)) ++untouched;
  }
  // Exactly the out-of-region caches stream their base sequence unchanged;
  // the in-region pair carries the burst on top.
  EXPECT_EQ(untouched, 6u);
  EXPECT_GT(stormy.requests.size(), quiet.requests.size());
}

// ----------------------------------------------------------------------
// End-to-end: streamed sources drive both simulation drivers to the same
// bytes as materialised traces, at every (shards, threads) shape.
// ----------------------------------------------------------------------

net::MatrixRttProvider stream_sim_provider(std::size_t caches,
                                           net::HostId server) {
  net::DistanceMatrix m(caches + 1);
  for (std::size_t a = 0; a < caches; ++a) {
    for (std::size_t b = a + 1; b < caches; ++b) {
      m.set(a, b, (a / 4 == b / 4) ? 6.0 : 45.0);
    }
    m.set(a, server, 90.0);
  }
  return net::MatrixRttProvider(std::move(m));
}

sim::SimulationConfig stream_sim_config(std::size_t caches,
                                        obs::Tracer* tracer) {
  sim::SimulationConfig config;
  config.groups.assign(2, {});
  for (std::uint32_t c = 0; c < caches; ++c) {
    config.groups[c / 4].push_back(c);
  }
  config.cache_capacity_bytes = 16'384;
  config.policy = cache::PolicyKind::kLru;
  config.warmup_fraction = 0.0;
  if (tracer != nullptr) config.trace = obs::TraceContext::root(tracer, 1);
  return config;
}

struct StreamRun {
  std::string report_jsonl;
  std::string trace_bytes;
};

/// Runs the nonstationary workload (exact profile so the Trace comparison
/// is meaningful) through a driver. shards == 0 → sequential Simulator;
/// as_trace → materialise first and use the Trace overload.
StreamRun run_stream_scenario(std::size_t shards, std::size_t threads,
                              bool as_trace) {
  constexpr std::size_t kCaches = 8;
  constexpr net::HostId kServer = 8;
  WorkloadParams params = nonstationary_params();
  params.profile = StreamProfile::kExact;
  const auto catalog = test_catalog(120, 0.01);

  StreamRun out;
  std::ostringstream trace_out;
  sim::SimulationReport report;
  {
    obs::Tracer tracer(std::make_unique<obs::JsonlTraceSink>(trace_out));
    const auto provider = stream_sim_provider(kCaches, kServer);
    sim::SimulationConfig config = stream_sim_config(kCaches, &tracer);

    util::Rng rng(47);
    SyntheticWorkload source(params, catalog, rng);
    Trace trace;
    if (as_trace) trace = materialise(source);

    if (shards == 0) {
      sim::Simulator sim(catalog, provider, kServer, std::move(config));
      report = as_trace ? sim.run(trace) : sim.run(source);
    } else {
      shard::ShardOptions options;
      options.shards = shards;
      options.threads = threads;
      shard::ShardedSimulator sim(catalog, provider, kServer,
                                  std::move(config), options);
      report = as_trace ? sim.run(trace) : sim.run(source);
    }
  }
  out.trace_bytes = trace_out.str();
  std::ostringstream report_out;
  obs::write_report_jsonl(report_out, report, "stream-scenario");
  out.report_jsonl = report_out.str();
  return out;
}

class StreamSim : public ::testing::Test {
 protected:
  void SetUp() override { util::set_trace_enabled(true); }
  void TearDown() override { util::set_trace_enabled(false); }
};

TEST_F(StreamSim, SequentialStreamMatchesMaterialisedTrace) {
  const StreamRun streamed = run_stream_scenario(0, 0, false);
  const StreamRun traced = run_stream_scenario(0, 0, true);
  EXPECT_EQ(streamed.report_jsonl, traced.report_jsonl);
  EXPECT_EQ(streamed.trace_bytes, traced.trace_bytes);
  EXPECT_FALSE(streamed.trace_bytes.empty());
}

TEST_F(StreamSim, ShardedStreamBitIdenticalAcrossShardsAndThreads) {
  const StreamRun sequential = run_stream_scenario(0, 0, false);
  for (const std::size_t shards : {1u, 4u, 8u}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " +
                   std::to_string(threads) + " threads");
      const StreamRun sharded = run_stream_scenario(shards, threads, false);
      EXPECT_EQ(sharded.report_jsonl, sequential.report_jsonl);
      EXPECT_EQ(sharded.trace_bytes, sequential.trace_bytes);
    }
  }
}

}  // namespace
}  // namespace ecgf::workload
