// Tests for the net layer: distance matrix, RTT provider, prober.
#include <gtest/gtest.h>

#include <cmath>

#include "net/distance_matrix.h"
#include "net/drift.h"
#include "net/prober.h"
#include "net/synthetic.h"
#include "util/expect.h"

namespace ecgf::net {
namespace {

DistanceMatrix small_matrix() {
  DistanceMatrix m(3);
  m.set(0, 1, 10.0);
  m.set(0, 2, 20.0);
  m.set(1, 2, 5.0);
  return m;
}

TEST(DistanceMatrix, SymmetricStorage) {
  const auto m = small_matrix();
  EXPECT_DOUBLE_EQ(m.at(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 10.0);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

TEST(DistanceMatrix, RejectsDiagonalWrites) {
  DistanceMatrix m(2);
  EXPECT_THROW(m.set(1, 1, 3.0), util::ContractViolation);
  EXPECT_THROW(m.set(0, 1, -1.0), util::ContractViolation);
  EXPECT_THROW(m.at(0, 2), util::ContractViolation);
}

TEST(DistanceMatrix, FromFullValidates) {
  std::vector<std::vector<double>> good{{0, 1}, {1, 0}};
  EXPECT_NO_THROW(DistanceMatrix::from_full(good));

  std::vector<std::vector<double>> asym{{0, 1}, {2, 0}};
  EXPECT_THROW(DistanceMatrix::from_full(asym), util::ContractViolation);

  std::vector<std::vector<double>> diag{{1, 1}, {1, 0}};
  EXPECT_THROW(DistanceMatrix::from_full(diag), util::ContractViolation);

  std::vector<std::vector<double>> ragged{{0, 1}, {1}};
  EXPECT_THROW(DistanceMatrix::from_full(ragged), util::ContractViolation);
}

TEST(MatrixRttProvider, ExposesMatrix) {
  MatrixRttProvider p(small_matrix());
  EXPECT_EQ(p.host_count(), 3u);
  EXPECT_DOUBLE_EQ(p.rtt_ms(0, 2), 20.0);
  EXPECT_DOUBLE_EQ(p.rtt_ms(2, 0), 20.0);
}

TEST(Prober, NoiseFreeReturnsTruth) {
  MatrixRttProvider provider(small_matrix());
  ProberOptions opts;
  opts.jitter_sigma = 0.0;
  Prober prober(provider, opts, util::Rng(1));
  EXPECT_DOUBLE_EQ(prober.measure_rtt_ms(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(prober.measure_rtt_ms(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(prober.measure_rtt_ms(2, 2), 0.0);
}

TEST(Prober, CountsProbes) {
  MatrixRttProvider provider(small_matrix());
  ProberOptions opts;
  opts.probes_per_measurement = 4;
  Prober prober(provider, opts, util::Rng(1));
  prober.measure_rtt_ms(0, 1);
  prober.measure_rtt_ms(1, 2);
  EXPECT_EQ(prober.probes_sent(), 8u);
  prober.measure_rtt_ms(1, 1);  // self-measurement costs nothing
  EXPECT_EQ(prober.probes_sent(), 8u);
}

TEST(Prober, JitteredMeasurementsAverageToTruth) {
  MatrixRttProvider provider(small_matrix());
  ProberOptions opts;
  opts.jitter_sigma = 0.2;
  opts.probes_per_measurement = 1;
  Prober prober(provider, opts, util::Rng(7));
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += prober.measure_rtt_ms(0, 1);
  EXPECT_NEAR(sum / kN, 10.0, 0.15);
}

TEST(Prober, MoreProbesReduceVariance) {
  MatrixRttProvider provider(small_matrix());
  auto spread = [&](std::size_t probes) {
    ProberOptions opts;
    opts.jitter_sigma = 0.3;
    opts.probes_per_measurement = probes;
    Prober prober(provider, opts, util::Rng(11));
    double sq = 0.0;
    constexpr int kN = 3000;
    for (int i = 0; i < kN; ++i) {
      const double e = prober.measure_rtt_ms(0, 1) - 10.0;
      sq += e * e;
    }
    return sq / kN;
  };
  EXPECT_LT(spread(10), spread(1) * 0.5);
}

DistanceMatrix random_matrix(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  DistanceMatrix m(n);
  for (std::size_t i = 1; i < n; ++i) {
    auto row = m.lower_row(i);
    for (std::size_t j = 0; j < i; ++j) row[j] = rng.uniform(5.0, 200.0);
  }
  return m;
}

TEST(DriftingRtt, UnboundClockIsExactlyTheBaseMatrix) {
  const auto base = random_matrix(12, 1);
  DriftOptions opts;
  opts.ramp_end_ms = 1000.0;
  util::Rng rng(2);
  const DriftingRttProvider drift(base, opts, rng);
  EXPECT_EQ(drift.weight_now(), 0.0);
  for (HostId a = 0; a < 12; ++a)
    for (HostId b = 0; b < 12; ++b)
      EXPECT_EQ(drift.rtt_ms(a, b), base.at(a, b)) << a << "," << b;
}

TEST(DriftingRtt, RampBlendsLinearlyAndSaturates) {
  const auto base = random_matrix(10, 3);
  DriftOptions opts;
  opts.ramp_start_ms = 100.0;
  opts.ramp_end_ms = 300.0;
  opts.max_weight = 0.8;
  util::Rng rng(4);
  DriftingRttProvider drift(base, opts, rng);
  double now = 0.0;
  drift.bind_clock(&now);

  now = 50.0;
  EXPECT_EQ(drift.weight_now(), 0.0);
  now = 200.0;  // halfway up the ramp
  EXPECT_DOUBLE_EQ(drift.weight_now(), 0.4);
  const HostId a = drift.drifting_caches().at(0);
  const HostId pa = drift.permuted(a);
  ASSERT_NE(a, pa);
  EXPECT_DOUBLE_EQ(drift.rtt_ms(a, 9),
                   0.6 * base.at(a, 9) + 0.4 * base.at(pa, drift.permuted(9)));
  now = 1e9;
  EXPECT_DOUBLE_EQ(drift.weight_now(), 0.8);
}

TEST(DriftingRtt, StaysSymmetricWithZeroDiagonal) {
  const auto base = random_matrix(15, 5);
  DriftOptions opts;
  opts.ramp_end_ms = 100.0;
  util::Rng rng(6);
  DriftingRttProvider drift(base, opts, rng);
  double now = 60.0;
  drift.bind_clock(&now);
  for (HostId a = 0; a < 15; ++a) {
    EXPECT_EQ(drift.rtt_ms(a, a), 0.0);
    for (HostId b = 0; b < a; ++b) {
      EXPECT_EQ(drift.rtt_ms(a, b), drift.rtt_ms(b, a));
      EXPECT_GT(drift.rtt_ms(a, b), 0.0);
    }
  }
}

TEST(DriftingRtt, PermutationMovesOnlySelectedCachesNeverTheServer) {
  const auto base = random_matrix(21, 7);  // 20 caches + server
  DriftOptions opts;
  opts.drift_fraction = 0.4;
  opts.ramp_end_ms = 10.0;
  util::Rng rng(8);
  const DriftingRttProvider drift(base, opts, rng);
  const auto& moved = drift.drifting_caches();
  EXPECT_EQ(moved.size(), 8u);  // 0.4 × 20
  std::vector<bool> selected(21, false);
  for (HostId c : moved) {
    EXPECT_LT(c, 20u);  // server (host 20) never drifts
    selected[c] = true;
    EXPECT_NE(drift.permuted(c), c);  // every selected cache really moves
  }
  for (HostId h = 0; h < 21; ++h) {
    if (!selected[h]) {
      EXPECT_EQ(drift.permuted(h), h);
    }
  }
  // π is a bijection.
  std::vector<bool> hit(21, false);
  for (HostId h = 0; h < 21; ++h) {
    EXPECT_FALSE(hit[drift.permuted(h)]);
    hit[drift.permuted(h)] = true;
  }
}

TEST(DriftingRtt, DeterministicForEqualSeeds) {
  const auto base = random_matrix(16, 9);
  DriftOptions opts;
  opts.ramp_end_ms = 50.0;
  util::Rng r1(10), r2(10);
  DriftingRttProvider d1(base, opts, r1);
  DriftingRttProvider d2(base, opts, r2);
  double now = 25.0;
  d1.bind_clock(&now);
  d2.bind_clock(&now);
  for (HostId a = 0; a < 16; ++a)
    for (HostId b = 0; b < 16; ++b)
      EXPECT_EQ(d1.rtt_ms(a, b), d2.rtt_ms(a, b));
}

TEST(DriftingRtt, TinyFractionDegeneratesToIdentity) {
  const auto base = random_matrix(10, 11);
  DriftOptions opts;
  opts.drift_fraction = 0.1;  // 0.1 × 9 caches → 0 selected, below the min of 2
  opts.ramp_end_ms = 10.0;
  util::Rng rng(12);
  DriftingRttProvider drift(base, opts, rng);
  EXPECT_TRUE(drift.drifting_caches().empty());
  double now = 1e6;
  drift.bind_clock(&now);
  for (HostId a = 0; a < 10; ++a)
    for (HostId b = 0; b < 10; ++b)
      EXPECT_EQ(drift.rtt_ms(a, b), base.at(a, b));
}

TEST(Prober, RejectsOutOfRangeHosts) {
  MatrixRttProvider provider(small_matrix());
  Prober prober(provider, ProberOptions{}, util::Rng(1));
  EXPECT_THROW(prober.measure_rtt_ms(0, 3), util::ContractViolation);
}

// ----------------------------------------------------------------------
// Float32 storage and the on-demand synthetic providers (large-N path).
// ----------------------------------------------------------------------

TEST(DistanceMatrixF32, StoresFloatRoundedValues) {
  DistanceMatrixF32 m(3);
  m.set(0, 1, 10.125);             // exactly representable in float
  m.set(0, 2, 0.1);                // not exactly representable
  EXPECT_DOUBLE_EQ(m.at(0, 1), 10.125);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 10.125);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), static_cast<double>(0.1f));
  EXPECT_NE(m.at(0, 2), 0.1);  // float storage, by design
  // Provider view agrees with the matrix.
  MatrixRttProviderF32 provider(m);
  EXPECT_EQ(provider.host_count(), 3u);
  EXPECT_DOUBLE_EQ(provider.rtt_ms(1, 0), 10.125);
}

TEST(DistanceMatrixF32, FromFullMatchesDoublePathWithinFloatPrecision) {
  const std::vector<std::vector<double>> full = {
      {0.0, 12.34, 56.78}, {12.34, 0.0, 9.01}, {56.78, 9.01, 0.0}};
  const auto d = DistanceMatrix::from_full(full);
  const auto f = DistanceMatrixF32::from_full(full);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(f.at(i, j), static_cast<double>(
                                       static_cast<float>(d.at(i, j))));
    }
  }
}

TEST(PlaneRtt, SymmetricZeroDiagonalAndDeterministic) {
  PlaneOptions options;
  options.width_ms = 50.0;
  options.last_mile_ms = 1.5;
  options.seed = 7;
  const PlaneRttProvider a(100, options);
  const PlaneRttProvider b(100, options);
  EXPECT_EQ(a.host_count(), 100u);
  for (HostId i = 0; i < 100; i += 13) {
    EXPECT_DOUBLE_EQ(a.rtt_ms(i, i), 0.0);
    for (HostId j = 0; j < 100; j += 17) {
      EXPECT_DOUBLE_EQ(a.rtt_ms(i, j), a.rtt_ms(j, i));
      EXPECT_DOUBLE_EQ(a.rtt_ms(i, j), b.rtt_ms(i, j));
      if (i != j) {
        // Floor: two last-miles each way; ceiling: floor + the square's
        // diagonal.
        EXPECT_GE(a.rtt_ms(i, j), 2.0 * 2.0 * options.last_mile_ms);
        EXPECT_LE(a.rtt_ms(i, j), 2.0 * (2.0 * options.last_mile_ms +
                                         50.0 * std::sqrt(2.0)));
      }
    }
  }
  EXPECT_THROW(a.rtt_ms(0, 100), util::ContractViolation);
}

TEST(GroupBlockRtt, BlockStructureMatchesContiguousClusters) {
  GroupBlockOptions options;
  options.clusters = 4;
  options.intra_ms = 5.0;
  options.cross_ms = 60.0;
  options.server_ms = 80.0;
  const GroupBlockRttProvider rtt(16, options);
  EXPECT_EQ(rtt.host_count(), 17u);
  EXPECT_DOUBLE_EQ(rtt.rtt_ms(0, 3), 5.0);    // same block [0, 4)
  EXPECT_DOUBLE_EQ(rtt.rtt_ms(3, 4), 60.0);   // adjacent blocks
  EXPECT_DOUBLE_EQ(rtt.rtt_ms(0, 15), 60.0);
  EXPECT_DOUBLE_EQ(rtt.rtt_ms(5, 16), 80.0);  // server host
  EXPECT_DOUBLE_EQ(rtt.rtt_ms(16, 16), 0.0);
  const auto groups = rtt.clusters_as_groups();
  ASSERT_EQ(groups.size(), 4u);
  for (const auto& g : groups) EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(groups[1],
            (std::vector<std::uint32_t>{4, 5, 6, 7}));
}

}  // namespace
}  // namespace ecgf::net
