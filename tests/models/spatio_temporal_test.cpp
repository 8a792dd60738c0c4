#include "models/spatio_temporal.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "nn/serialize.h"
#include "serve/engine.h"
#include "tensor/ops.h"

namespace flashgen::models {
namespace {

using tensor::Shape;

data::DatasetConfig tiny_dataset_config() {
  data::DatasetConfig config;
  config.array_size = 8;
  config.num_arrays = 32;  // per condition
  config.channel.rows = 32;
  config.channel.cols = 32;
  return config;
}

NetworkConfig tiny_network_config() {
  NetworkConfig config;
  config.array_size = 8;
  config.base_channels = 4;
  config.z_dim = 4;
  return config;
}

TEST(MultiConditionDataset, GeneratesPerConditionArrays) {
  flashgen::Rng rng(1);
  const auto ds = data::PairedDataset::generate_multi(tiny_dataset_config(),
                                                      {1000.0, 4000.0, 8000.0}, rng);
  EXPECT_EQ(ds.size(), 96u);
  EXPECT_EQ(ds.pe_of_array()[0], 1000.0);
  EXPECT_EQ(ds.pe_of_array()[32], 4000.0);
  EXPECT_EQ(ds.pe_of_array()[95], 8000.0);
}

TEST(MultiConditionDataset, SingleConditionDatasetCarriesItsPe) {
  flashgen::Rng rng(1);
  data::DatasetConfig config = tiny_dataset_config();
  config.pe_cycles = 2500.0;
  const auto ds = data::PairedDataset::generate(config, rng);
  for (double pe : ds.pe_of_array()) EXPECT_EQ(pe, 2500.0);
}

TEST(MultiConditionDataset, BatchPeNormalizesAndClamps) {
  flashgen::Rng rng(1);
  const auto ds =
      data::PairedDataset::generate_multi(tiny_dataset_config(), {1000.0, 20000.0}, rng);
  std::vector<std::size_t> indices = {0, 40};
  const auto pe = ds.batch_pe(indices, /*pe_scale=*/10000.0);
  EXPECT_EQ(pe.shape(), (Shape{2, 1}));
  EXPECT_FLOAT_EQ(pe.data()[0], 0.1f);
  EXPECT_FLOAT_EQ(pe.data()[1], 1.0f);  // clamped
}

TEST(MultiConditionDataset, WearShiftsLevelMeansAcrossConditions) {
  flashgen::Rng rng(2);
  const auto ds =
      data::PairedDataset::generate_multi(tiny_dataset_config(), {0.0, 16000.0}, rng);
  auto level_mean = [&ds](int level, std::size_t begin, std::size_t end) {
    double sum = 0.0;
    long n = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const auto& pl = ds.program_levels()[i];
      const auto& vl = ds.voltages()[i];
      for (int r = 0; r < pl.rows(); ++r)
        for (int c = 0; c < pl.cols(); ++c)
          if (pl(r, c) == level) {
            sum += vl(r, c);
            ++n;
          }
    }
    return sum / n;
  };
  // Programmed levels drift down with wear; the erased state drifts up.
  EXPECT_LT(level_mean(7, 32, 64), level_mean(7, 0, 32) - 8.0);
  EXPECT_GT(level_mean(0, 32, 64), level_mean(0, 0, 32) + 20.0);
}

TEST(TemporalModel, RequiresPositivePeScale) {
  EXPECT_THROW(TemporalCvaeGanModel(tiny_network_config(), 0.0, 1000.0, 1), Error);
}

TEST(TemporalModel, TrainsAndGeneratesAcrossConditions) {
  flashgen::Rng rng(3);
  const auto ds = data::PairedDataset::generate_multi(tiny_dataset_config(),
                                                      {1000.0, 8000.0}, rng);
  TemporalCvaeGanModel model(tiny_network_config(), 10000.0, 1000.0, 7);
  TrainConfig config;
  config.epochs = 1;
  config.batch_size = 8;
  config.log_every = 0;
  const TrainStats stats = model.fit(ds, config, rng);
  EXPECT_EQ(stats.steps, 8);  // 64 arrays / batch 8, 1 epoch

  std::vector<std::size_t> indices = {0, 1};
  auto [pl, vl] = ds.batch(indices);
  for (double pe : {1000.0, 4000.0, 8000.0}) {
    model.set_generation_condition({pe, 0.0});
    Tensor out = model.generate(pl, rng);
    EXPECT_EQ(out.shape(), pl.shape());
    for (float v : out.data()) {
      EXPECT_GE(v, -1.0f);
      EXPECT_LE(v, 1.0f);
    }
  }
}

TEST(TemporalModel, ConditionChangesOutput) {
  flashgen::Rng rng(4);
  const auto ds = data::PairedDataset::generate_multi(tiny_dataset_config(),
                                                      {1000.0, 8000.0}, rng);
  TemporalCvaeGanModel model(tiny_network_config(), 10000.0, 1000.0, 7);
  TrainConfig config;
  config.epochs = 1;
  config.batch_size = 8;
  config.log_every = 0;
  model.fit(ds, config, rng);
  std::vector<std::size_t> indices = {0};
  auto [pl, vl] = ds.batch(indices);
  flashgen::Rng g1(9), g2(9);  // identical latent draws
  model.set_generation_condition({0.0, 0.0});
  Tensor low = model.generate(pl, g1);
  model.set_generation_condition({10000.0, 0.0});
  Tensor high = model.generate(pl, g2);
  double diff = 0.0;
  for (tensor::Index i = 0; i < low.numel(); ++i)
    diff += std::fabs(low.data()[i] - high.data()[i]);
  EXPECT_GT(diff, 1e-4);  // the condition input is wired through
}

TEST(TemporalModel, GenerateUsesConfiguredDefaultPe) {
  flashgen::Rng rng(5);
  const auto ds = data::PairedDataset::generate_multi(tiny_dataset_config(), {4000.0}, rng);
  TemporalCvaeGanModel model(tiny_network_config(), 8000.0, 1000.0, 7);
  TrainConfig config;
  config.epochs = 1;
  config.batch_size = 8;
  config.log_every = 0;
  model.fit(ds, config, rng);
  const data::Condition condition{4000.0, 0.0};
  model.set_generation_condition(condition);
  std::vector<std::size_t> indices = {0};
  auto [pl, vl] = ds.batch(indices);
  flashgen::Rng g1(9);
  std::vector<flashgen::Rng> g2 = {flashgen::Rng(9)};
  Tensor via_interface = model.generate(pl, g1);
  std::vector<float> via_explicit(static_cast<std::size_t>(pl.numel()));
  serve::InferenceEngine(model).generate_into(pl, g2, via_explicit,
                                              std::span<const data::Condition>(&condition, 1));
  for (tensor::Index i = 0; i < via_interface.numel(); ++i)
    EXPECT_EQ(via_interface.data()[i], via_explicit[static_cast<std::size_t>(i)]);
}

TEST(TemporalModel, CheckpointRoundTrip) {
  flashgen::Rng rng(6);
  const auto ds = data::PairedDataset::generate_multi(tiny_dataset_config(), {4000.0}, rng);
  TemporalCvaeGanModel a(tiny_network_config(), 8000.0, 1000.0, 7);
  TrainConfig config;
  config.epochs = 1;
  config.batch_size = 8;
  config.log_every = 0;
  a.fit(ds, config, rng);
  const std::string path = ::testing::TempDir() + "/temporal.ckpt";
  a.save(path);
  TemporalCvaeGanModel b(tiny_network_config(), 8000.0, 1000.0, 99);
  b.load(path);
  std::vector<std::size_t> indices = {0};
  auto [pl, vl] = ds.batch(indices);
  flashgen::Rng g1(9), g2(9);
  a.set_generation_condition({2000.0, 0.0});
  Tensor out_a = a.generate(pl, g1);
  b.set_generation_condition({2000.0, 0.0});
  Tensor out_b = b.generate(pl, g2);
  for (tensor::Index i = 0; i < out_a.numel(); ++i)
    EXPECT_FLOAT_EQ(out_a.data()[i], out_b.data()[i]);
  std::remove(path.c_str());
}

TEST(TemporalModel, RejectsLegacyPeOnlyCheckpoint) {
  // A v1 checkpoint (no metadata section — what the PE-only model generation
  // wrote) must be refused with the typed CheckpointVersionError, not loaded
  // into a model that would silently mis-normalize its conditions.
  TemporalCvaeGanModel writer(tiny_network_config(), 8000.0, 1000.0, 7);
  const std::string path = ::testing::TempDir() + "/temporal_v1.ckpt";
  nn::save_checkpoint(writer.root_module(), path);  // v1: weights only, no meta
  TemporalCvaeGanModel reader(tiny_network_config(), 8000.0, 1000.0, 7);
  EXPECT_THROW(reader.load(path), nn::CheckpointVersionError);
  std::remove(path.c_str());
}

TEST(TemporalModel, RejectsCheckpointWithMismatchedScales) {
  // Same conditioning version, different normalization scales: the stored
  // weights would interpret every (PE, retention) input differently, so the
  // load must fail with the same typed error.
  TemporalCvaeGanModel writer(tiny_network_config(), 8000.0, 500.0, 7);
  const std::string path = ::testing::TempDir() + "/temporal_scales.ckpt";
  writer.save(path);
  TemporalCvaeGanModel wrong_pe(tiny_network_config(), 16000.0, 500.0, 7);
  EXPECT_THROW(wrong_pe.load(path), nn::CheckpointVersionError);
  TemporalCvaeGanModel wrong_retention(tiny_network_config(), 8000.0, 1000.0, 7);
  EXPECT_THROW(wrong_retention.load(path), nn::CheckpointVersionError);
  TemporalCvaeGanModel matching(tiny_network_config(), 8000.0, 500.0, 99);
  EXPECT_NO_THROW(matching.load(path));
  std::remove(path.c_str());
}

TEST(GeneratorCondition, ValidationErrors) {
  NetworkConfig config = tiny_network_config();
  config.condition_dims = 1;
  flashgen::Rng rng(7);
  UNetGenerator gen(config, rng);
  Tensor pl = Tensor::zeros(Shape{1, 1, 8, 8});
  Tensor z = Tensor::randn(Shape{1, 4}, rng);
  EXPECT_THROW(gen.forward(pl, z, rng), flashgen::Error);  // missing condition
  Tensor bad_cond = Tensor::zeros(Shape{1, 2});
  EXPECT_THROW(gen.forward(pl, z, rng, bad_cond), flashgen::Error);
  Tensor cond = Tensor::zeros(Shape{1, 1});
  EXPECT_NO_THROW(gen.forward(pl, z, rng, cond));

  NetworkConfig plain = tiny_network_config();
  UNetGenerator plain_gen(plain, rng);
  EXPECT_THROW(plain_gen.forward(pl, z, rng, cond), flashgen::Error);  // unexpected cond
}

}  // namespace
}  // namespace flashgen::models
