#include "thresholds/model_sampler.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "models/cvae_gan.h"
#include "models/spatio_temporal.h"

namespace flashgen::thresholds {
namespace {

models::NetworkConfig tiny_network_config() {
  models::NetworkConfig config;
  config.array_size = 8;
  config.base_channels = 4;
  config.z_dim = 4;
  return config;
}

std::vector<RowRequest> make_rows(int count, int side, std::uint64_t first_stream) {
  data::VoltageNormalizer normalizer;
  std::vector<RowRequest> rows(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    flashgen::Rng rng(900 + static_cast<std::uint64_t>(i));
    auto& row = rows[static_cast<std::size_t>(i)];
    row.stream = first_stream + static_cast<std::uint64_t>(i);
    row.program_levels.reserve(static_cast<std::size_t>(side * side));
    for (int c = 0; c < side * side; ++c)
      row.program_levels.push_back(normalizer.normalize_level(rng.uniform_int(8)));
  }
  return rows;
}

TEST(ModelSampler, RejectsConditionUnawareModel) {
  models::CvaeGanModel model(tiny_network_config(), /*seed=*/3);
  EXPECT_THROW(ModelSampler sampler(model), flashgen::Error);
}

TEST(ModelSampler, ReturnsOneVoltageRowPerRequest) {
  models::TemporalCvaeGanModel model(tiny_network_config(), /*pe_scale=*/10000.0,
                                    /*retention_scale=*/1000.0, /*seed=*/3);
  ModelSampler sampler(model);
  const auto rows = make_rows(3, 8, /*first_stream=*/100);
  const auto out = sampler.sample(rows, /*seed=*/17, {4000.0, 100.0});
  ASSERT_EQ(out.size(), 3u);
  for (const auto& voltages : out) EXPECT_EQ(voltages.size(), 64u);
}

TEST(ModelSampler, RowsAreBatchingInvariant) {
  models::TemporalCvaeGanModel model(tiny_network_config(), /*pe_scale=*/10000.0,
                                    /*retention_scale=*/1000.0, /*seed=*/3);
  ModelSampler sampler(model);
  const auto rows = make_rows(4, 8, /*first_stream=*/7);
  const data::Condition condition{6000.0, 48.0};
  const auto together = sampler.sample(rows, /*seed=*/17, condition);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto alone =
        sampler.sample(std::span<const RowRequest>(&rows[i], 1), /*seed=*/17, condition);
    EXPECT_EQ(together[i], alone[0]) << "row " << i << " depends on its batch";
  }
}

TEST(ModelSampler, ConditionChangesTheSample) {
  models::TemporalCvaeGanModel model(tiny_network_config(), /*pe_scale=*/10000.0,
                                    /*retention_scale=*/1000.0, /*seed=*/3);
  ModelSampler sampler(model);
  const auto rows = make_rows(1, 8, /*first_stream=*/7);
  const auto fresh = sampler.sample(rows, /*seed=*/17, {0.0, 0.0});
  const auto worn = sampler.sample(rows, /*seed=*/17, {9000.0, 900.0});
  EXPECT_NE(fresh[0], worn[0]);
}

TEST(ModelSampler, RejectsRaggedAndNonSquareRows) {
  models::TemporalCvaeGanModel model(tiny_network_config(), /*pe_scale=*/10000.0,
                                    /*retention_scale=*/1000.0, /*seed=*/3);
  ModelSampler sampler(model);
  auto rows = make_rows(2, 8, /*first_stream=*/0);
  rows[1].program_levels.pop_back();
  EXPECT_THROW(sampler.sample(rows, /*seed=*/1, {0.0, 0.0}), flashgen::Error);
  auto non_square = make_rows(1, 8, /*first_stream=*/0);
  non_square[0].program_levels.resize(63);
  EXPECT_THROW(sampler.sample(non_square, /*seed=*/1, {0.0, 0.0}), flashgen::Error);
}

}  // namespace
}  // namespace flashgen::thresholds
