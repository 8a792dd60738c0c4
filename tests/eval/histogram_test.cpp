#include "eval/histogram.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.h"
#include "common/rng.h"

namespace flashgen::eval {
namespace {

TEST(HistogramTest, BinningAndCenters) {
  HistogramConfig config{.lo = 0.0, .hi = 10.0, .bins = 10};
  Histogram h(config);
  EXPECT_EQ(h.bin_of(0.0), 0);
  EXPECT_EQ(h.bin_of(0.99), 0);
  EXPECT_EQ(h.bin_of(5.5), 5);
  EXPECT_EQ(h.bin_of(9.99), 9);
  EXPECT_FLOAT_EQ(h.bin_center(0), 0.5);
  EXPECT_FLOAT_EQ(h.bin_center(9), 9.5);
}

TEST(HistogramTest, OutOfRangeClampsToEdgeBins) {
  HistogramConfig config{.lo = 0.0, .hi = 10.0, .bins = 10};
  Histogram h(config);
  h.add(-100.0);
  h.add(100.0);
  EXPECT_EQ(h.count(0), 1);
  EXPECT_EQ(h.count(9), 1);
  EXPECT_EQ(h.total(), 2);
}

TEST(HistogramTest, PmfSumsToOne) {
  Histogram h({.lo = -1.0, .hi = 1.0, .bins = 7});
  flashgen::Rng rng(1);
  for (int i = 0; i < 1000; ++i) h.add(rng.uniform(-1.0, 1.0));
  const auto pmf = h.pmf();
  double sum = 0.0;
  for (double p : pmf) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(HistogramTest, EmptyPmfIsAllZero) {
  Histogram h;
  for (double p : h.pmf()) EXPECT_EQ(p, 0.0);
}

TEST(HistogramTest, InvalidConfigThrows) {
  EXPECT_THROW(Histogram({.lo = 0.0, .hi = 0.0, .bins = 10}), Error);
  EXPECT_THROW(Histogram({.lo = 0.0, .hi = 1.0, .bins = 0}), Error);
}

// Regression: bin_of computed floor((v - lo) / (hi - lo) * bins), whose
// divide-then-multiply rounding put 39 of the default config's 650 exact
// interior edges one bin low. Binning must be lower-edge-inclusive against
// the canonical edge positions lo + i*width (what bin_center reports).
TEST(HistogramTest, EveryExactBinEdgeLandsLowerEdgeInclusive) {
  Histogram h;  // default config: 650 bins over [-350, 950)
  const HistogramConfig& c = h.config();
  const double width = (c.hi - c.lo) / c.bins;
  for (int i = 0; i < c.bins; ++i)
    EXPECT_EQ(h.bin_of(c.lo + i * width), i) << "edge " << i;
  EXPECT_EQ(h.bin_of(c.hi), c.bins - 1);
}

TEST(HistogramTest, ExactBinEdgesLandCorrectlyForAwkwardRanges) {
  const HistogramConfig configs[] = {
      {.lo = 0.1, .hi = 0.7, .bins = 7},
      {.lo = -1.0 / 3.0, .hi = 2.0 / 3.0, .bins = 29},
      {.lo = -350.0, .hi = 950.0, .bins = 1300},
  };
  for (const HistogramConfig& c : configs) {
    Histogram h(c);
    const double width = (c.hi - c.lo) / c.bins;
    for (int i = 0; i < c.bins; ++i)
      EXPECT_EQ(h.bin_of(c.lo + i * width), i)
          << "edge " << i << " of " << c.bins << " over [" << c.lo << ", " << c.hi << ")";
    EXPECT_EQ(h.bin_of(c.hi), c.bins - 1);
  }
}

TEST(HistogramTest, UpperBoundCountsInLastBin) {
  Histogram h({.lo = 0.0, .hi = 1.0, .bins = 3});
  h.add(1.0);
  h.add(std::nextafter(1.0, 0.0));
  EXPECT_EQ(h.count(2), 2);
  EXPECT_EQ(h.total(), 2);
}

TEST(TvDistance, IdenticalDistributionsScoreZero) {
  Histogram p, q;
  flashgen::Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.normal(100.0, 30.0);
    p.add(v);
    q.add(v);
  }
  EXPECT_EQ(tv_distance(p, q), 0.0);
}

TEST(TvDistance, DisjointDistributionsScoreOne) {
  Histogram p, q;
  for (int i = 0; i < 100; ++i) {
    p.add(-300.0 + i);
    q.add(700.0 + i * 0.1);
  }
  EXPECT_NEAR(tv_distance(p, q), 1.0, 1e-9);
}

TEST(TvDistance, SymmetryAndRange) {
  Histogram p, q;
  flashgen::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    p.add(rng.normal(0.0, 50.0));
    q.add(rng.normal(80.0, 50.0));
  }
  const double d1 = tv_distance(p, q);
  const double d2 = tv_distance(q, p);
  EXPECT_DOUBLE_EQ(d1, d2);
  EXPECT_GT(d1, 0.0);
  EXPECT_LT(d1, 1.0);
}

TEST(TvDistance, TriangleInequality) {
  Histogram p, q, r;
  flashgen::Rng rng(4);
  for (int i = 0; i < 3000; ++i) {
    p.add(rng.normal(0.0, 40.0));
    q.add(rng.normal(50.0, 40.0));
    r.add(rng.normal(100.0, 40.0));
  }
  EXPECT_LE(tv_distance(p, r), tv_distance(p, q) + tv_distance(q, r) + 1e-12);
}

// Table I's metric against its closed form: N(mu1, s^2) and N(mu2, s^2) are
// 2 Phi(|mu1 - mu2| / 2s) - 1 apart in total variation. The histogram TV of
// N draws from each may miss that by two terms, fixed here before any run:
//   * the binning error |TV_b - TV|, TV_b being the exact TV of the two binned
//     distributions (Phi at the bin edges, clamped tails in the edge bins);
//   * the sampling error |TV^ - TV_b| <= S = 1/2 sum_i |D_i - d_i|, where D_i
//     and d_i are the drawn and the exact difference of bin i's masses.
//     Jensen gives E[S] <= 1/2 sum_i sqrt((P_i (1 - P_i) + Q_i (1 - Q_i)) / N)
//     and one draw moves S by at most 1/N, so McDiarmid gives
//     P(S > E[S] + t) <= exp(-N t^2): t = 5 / sqrt(N) fails once in ~7e10.
TEST(TvDistance, EqualSigmaGaussiansMatchClosedForm) {
  const HistogramConfig config;  // Table I's binning: 650 bins of 2 over [-350, 950)
  const double width = (config.hi - config.lo) / config.bins;
  const double inf = std::numeric_limits<double>::infinity();
  const double sigma = 40.0, mu1 = 200.0;
  const long n = 1'000'000;
  const auto phi = [](double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); };
  const auto bin_mass = [&](double mu, int i) {
    const double lo = i == 0 ? -inf : config.lo + i * width;
    const double hi = i == config.bins - 1 ? inf : config.lo + (i + 1) * width;
    return phi((hi - mu) / sigma) - phi((lo - mu) / sigma);
  };
  std::uint64_t seed = 10;
  // The densities cross mid-bin (205) and on bin edges (220, 250).
  for (const double delta : {10.0, 40.0, 100.0}) {
    const double mu2 = mu1 + delta;
    const double exact = 2.0 * phi(delta / (2.0 * sigma)) - 1.0;
    double binned = 0.0, sampling = 0.0;
    for (int i = 0; i < config.bins; ++i) {
      const double p = bin_mass(mu1, i), q = bin_mass(mu2, i);
      binned += 0.5 * std::fabs(p - q);
      sampling += 0.5 * std::sqrt((p * (1.0 - p) + q * (1.0 - q)) / n);
    }
    const double tolerance =
        std::fabs(binned - exact) + sampling + 5.0 / std::sqrt(static_cast<double>(n));
    Histogram h1(config), h2(config);
    flashgen::Rng rng1(++seed), rng2(++seed);
    for (long i = 0; i < n; ++i) {
      h1.add(rng1.normal(mu1, sigma));
      h2.add(rng2.normal(mu2, sigma));
    }
    EXPECT_NEAR(tv_distance(h1, h2), exact, tolerance) << "delta = " << delta;
  }
}

TEST(TvDistance, MismatchedBinningThrows) {
  Histogram p({.lo = 0.0, .hi = 1.0, .bins = 10});
  Histogram q({.lo = 0.0, .hi = 1.0, .bins = 20});
  EXPECT_THROW(tv_distance(p, q), Error);
}

TEST(ConditionalHistogramsTest, RoutesSamplesByLevel) {
  ConditionalHistograms hists;
  hists.add(0, -100.0);
  hists.add(0, -120.0);
  hists.add(7, 700.0);
  EXPECT_EQ(hists.level(0).total(), 2);
  EXPECT_EQ(hists.level(7).total(), 1);
  EXPECT_EQ(hists.level(3).total(), 0);
  EXPECT_EQ(hists.overall().total(), 3);
}

TEST(ConditionalHistogramsTest, AddGridsAccumulatesEveryCell) {
  ConditionalHistograms hists;
  flash::Grid<std::uint8_t> levels(4, 4, 2);
  flash::Grid<float> volts(4, 4, 200.0f);
  hists.add_grids(levels, volts);
  EXPECT_EQ(hists.level(2).total(), 16);
  EXPECT_EQ(hists.overall().total(), 16);
}

TEST(ConditionalHistogramsTest, InvalidLevelOrShapeThrows) {
  ConditionalHistograms hists;
  EXPECT_THROW(hists.add(8, 0.0), Error);
  EXPECT_THROW(hists.add(-1, 0.0), Error);
  flash::Grid<std::uint8_t> levels(2, 2);
  flash::Grid<float> volts(2, 3);
  EXPECT_THROW(hists.add_grids(levels, volts), Error);
}

}  // namespace
}  // namespace flashgen::eval
