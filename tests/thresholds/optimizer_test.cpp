#include "thresholds/optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "data/normalization.h"

namespace flashgen::thresholds {
namespace {

// Deterministic analytic channel: level means at 0, 100, ..., 700 that drift
// down with wear while the spread grows. Row voltages are a pure function of
// (rows[i], seed, rows[i].stream, condition), matching the ChannelSampler
// contract, so optimizer reports are reproducible bit-for-bit.
class GaussianSampler : public ChannelSampler {
 public:
  explicit GaussianSampler(const data::NormalizerConfig& norm = {}) : normalizer_(norm) {}

  std::vector<std::vector<float>> sample(std::span<const RowRequest> rows, std::uint64_t seed,
                                         const data::Condition& condition) override {
    ++calls;
    const double droop = condition.pe_cycles * 5e-3 + condition.retention_hours * 2e-2;
    const double sigma = 16.0 + condition.pe_cycles * 2e-3;
    std::vector<std::vector<float>> out;
    out.reserve(rows.size());
    for (const auto& row : rows) {
      flashgen::Rng rng = flashgen::Rng::from_stream(seed ^ 0x5A11ED, row.stream);
      std::vector<float> voltages;
      voltages.reserve(row.program_levels.size());
      for (float pl : row.program_levels) {
        const int level = normalizer_.denormalize_level(pl);
        const double mean = level * 100.0 - droop * level / 7.0;
        voltages.push_back(normalizer_.normalize_voltage(rng.normal(mean, sigma)));
      }
      out.push_back(std::move(voltages));
    }
    return out;
  }

  int calls = 0;

 private:
  data::VoltageNormalizer normalizer_;
};

OptimizerConfig small_config() {
  OptimizerConfig config;
  config.side = 16;
  config.batch_rows = 4;
  config.waves = 6;
  return config;
}

void expect_same_report(const ThresholdReport& a, const ThresholdReport& b) {
  for (std::size_t k = 0; k < a.thresholds.size(); ++k)
    EXPECT_EQ(a.thresholds[k], b.thresholds[k]) << "threshold " << k;
  for (std::size_t p = 0; p < a.page_ber.size(); ++p)
    EXPECT_EQ(a.page_ber[p], b.page_ber[p]) << "page " << p;
  EXPECT_EQ(a.level_error_rate, b.level_error_rate);
  EXPECT_EQ(a.mutual_information_bits, b.mutual_information_bits);
  EXPECT_EQ(a.sample_cells, b.sample_cells);
}

TEST(ThresholdOptimizer, RecoversMidpointsForCleanGaussianChannel) {
  GaussianSampler sampler;
  ThresholdOptimizer optimizer(sampler, small_config());
  const ThresholdReport report = optimizer.optimize({0.0, 0.0});
  ASSERT_EQ(report.sample_cells, 6u * 4u * 16u * 16u);
  for (int k = 0; k < 7; ++k) {
    EXPECT_NEAR(report.thresholds[static_cast<std::size_t>(k)], 100.0 * k + 50.0, 20.0)
        << "threshold " << k;
  }
  // sigma 16 against 100 spacing: essentially error-free, MI ~ log2(8).
  EXPECT_LT(report.level_error_rate, 0.01);
  for (double ber : report.page_ber) EXPECT_LT(ber, 0.01);
  EXPECT_GT(report.mutual_information_bits, 2.85);
  EXPECT_LE(report.mutual_information_bits, 3.0 + 1e-9);
  EXPECT_FALSE(report.from_cache);
}

TEST(ThresholdOptimizer, ThresholdsAlwaysStrictlyIncreasing) {
  GaussianSampler sampler;
  ThresholdOptimizer optimizer(sampler, small_config());
  for (double pe : {0.0, 4000.0, 12000.0}) {
    const ThresholdReport report = optimizer.optimize({pe, 250.0});
    for (int k = 0; k + 1 < 7; ++k)
      EXPECT_LT(report.thresholds[static_cast<std::size_t>(k)],
                report.thresholds[static_cast<std::size_t>(k + 1)])
          << "pe " << pe;
  }
}

TEST(ThresholdOptimizer, WearDroopPullsUpperThresholdsDown) {
  GaussianSampler sampler;
  ThresholdOptimizer optimizer(sampler, small_config());
  const ThresholdReport fresh = optimizer.optimize({0.0, 0.0});
  const ThresholdReport worn = optimizer.optimize({12000.0, 800.0});
  // The simulated droop moves the upper level means down by ~60+; the
  // optimizer must follow.
  EXPECT_LT(worn.thresholds[6], fresh.thresholds[6] - 20.0);
}

TEST(ThresholdOptimizer, ReportsAreBitIdenticalAcrossInstances) {
  GaussianSampler sampler_a;
  GaussianSampler sampler_b;
  ThresholdOptimizer a(sampler_a, small_config());
  ThresholdOptimizer b(sampler_b, small_config());
  expect_same_report(a.optimize({7000.0, 120.0}), b.optimize({7000.0, 120.0}));
}

TEST(ThresholdOptimizer, CacheHitSkipsSamplingAndPreservesBits) {
  GaussianSampler sampler;
  ThresholdOptimizer optimizer(sampler, small_config());
  const ThresholdReport first = optimizer.optimize({4000.0, 0.0});
  const int calls_after_first = sampler.calls;
  const ThresholdReport second = optimizer.optimize({4000.0, 0.0});
  EXPECT_EQ(sampler.calls, calls_after_first);  // served from cache, no sampling
  EXPECT_FALSE(first.from_cache);
  EXPECT_TRUE(second.from_cache);
  expect_same_report(first, second);
  EXPECT_EQ(optimizer.cache_hits(), 1u);
  EXPECT_EQ(optimizer.cache_misses(), 1u);
}

TEST(ThresholdOptimizer, QuantizedConditionsShareACacheEntry) {
  GaussianSampler sampler;
  OptimizerConfig config = small_config();
  config.pe_quantum = 100.0;
  config.retention_quantum = 24.0;
  ThresholdOptimizer optimizer(sampler, config);
  optimizer.optimize({4000.0, 0.0});
  // 4040 rounds to the same PE bucket (40); 10 hours rounds to bucket 0.
  EXPECT_TRUE(optimizer.optimize({4040.0, 10.0}).from_cache);
  // 4060 rounds to bucket 41: a distinct entry.
  EXPECT_FALSE(optimizer.optimize({4060.0, 0.0}).from_cache);
  EXPECT_EQ(optimizer.cache_hits(), 1u);
  EXPECT_EQ(optimizer.cache_misses(), 2u);
}

TEST(ThresholdOptimizer, InvalidateBumpsVersionAndRecomputes) {
  GaussianSampler sampler;
  ThresholdOptimizer optimizer(sampler, small_config());
  const ThresholdReport before = optimizer.optimize({4000.0, 0.0});
  const std::uint64_t version = optimizer.cache_version();
  optimizer.invalidate();
  EXPECT_GT(optimizer.cache_version(), version);
  const int calls_before = sampler.calls;
  const ThresholdReport after = optimizer.optimize({4000.0, 0.0});
  EXPECT_GT(sampler.calls, calls_before);  // stale entry not served
  EXPECT_FALSE(after.from_cache);
  // Same sampler, same config: the recomputed report has the same bits.
  expect_same_report(before, after);
}

TEST(ThresholdOptimizer, LruEvictsLeastRecentlyUsedEntry) {
  GaussianSampler sampler;
  OptimizerConfig config = small_config();
  config.cache_capacity = 2;
  ThresholdOptimizer optimizer(sampler, config);
  optimizer.optimize({1000.0, 0.0});   // A
  optimizer.optimize({2000.0, 0.0});   // B
  EXPECT_TRUE(optimizer.optimize({1000.0, 0.0}).from_cache);   // touch A
  optimizer.optimize({3000.0, 0.0});   // C evicts B
  EXPECT_TRUE(optimizer.optimize({1000.0, 0.0}).from_cache);   // A survives
  EXPECT_FALSE(optimizer.optimize({2000.0, 0.0}).from_cache);  // B was evicted
}

TEST(ThresholdOptimizer, ZeroCapacityDisablesCaching) {
  GaussianSampler sampler;
  OptimizerConfig config = small_config();
  config.cache_capacity = 0;
  ThresholdOptimizer optimizer(sampler, config);
  EXPECT_FALSE(optimizer.optimize({4000.0, 0.0}).from_cache);
  EXPECT_FALSE(optimizer.optimize({4000.0, 0.0}).from_cache);
  EXPECT_EQ(optimizer.cache_hits(), 0u);
}

// Answers a request in slices of `slice` rows, one inner call per slice —
// the shape of a sampler that batches the rows its own way.
class SlicingSampler : public ChannelSampler {
 public:
  SlicingSampler(ChannelSampler& inner, std::size_t slice) : inner_(inner), slice_(slice) {}

  std::vector<std::vector<float>> sample(std::span<const RowRequest> rows, std::uint64_t seed,
                                         const data::Condition& condition) override {
    std::vector<std::vector<float>> out;
    for (std::size_t start = 0; start < rows.size(); start += slice_) {
      auto part = inner_.sample(rows.subspan(start, std::min(slice_, rows.size() - start)), seed,
                                condition);
      for (auto& row : part) out.push_back(std::move(row));
    }
    return out;
  }

 private:
  ChannelSampler& inner_;
  std::size_t slice_;
};

// A cold query is one sampler call over all waves * batch_rows rows, so a
// fleet sampler can spread the whole query at once; how the sampler slices
// the rows never shows in the report.
TEST(ThresholdOptimizer, ColdQueryIsOneSamplerCallIndependentOfSlicing) {
  const OptimizerConfig config = small_config();
  GaussianSampler whole;
  ThresholdOptimizer one_call(whole, config);
  const ThresholdReport report = one_call.optimize({7000.0, 120.0});
  EXPECT_EQ(whole.calls, 1);

  GaussianSampler inner;
  SlicingSampler sliced(inner, static_cast<std::size_t>(config.batch_rows));
  ThresholdOptimizer by_slices(sliced, config);
  expect_same_report(report, by_slices.optimize({7000.0, 120.0}));
  EXPECT_EQ(inner.calls, config.waves);
}

TEST(ThresholdOptimizer, RejectsInvalidConfig) {
  GaussianSampler sampler;
  auto with = [](auto mutate) {
    OptimizerConfig config;
    mutate(config);
    return config;
  };
  EXPECT_THROW(ThresholdOptimizer(sampler, with([](auto& c) { c.side = 0; })), flashgen::Error);
  EXPECT_THROW(ThresholdOptimizer(sampler, with([](auto& c) { c.waves = 0; })), flashgen::Error);
  EXPECT_THROW(ThresholdOptimizer(sampler, with([](auto& c) { c.batch_rows = -1; })),
               flashgen::Error);
  EXPECT_THROW(ThresholdOptimizer(sampler, with([](auto& c) { c.smoothing_window = 0; })),
               flashgen::Error);
  EXPECT_THROW(ThresholdOptimizer(sampler, with([](auto& c) { c.histogram.bins = 4; })),
               flashgen::Error);
  EXPECT_THROW(ThresholdOptimizer(sampler, with([](auto& c) { c.pe_quantum = 0.0; })),
               flashgen::Error);
}

}  // namespace
}  // namespace flashgen::thresholds
