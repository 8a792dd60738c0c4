#include <gtest/gtest.h>

#include <cmath>

#include <cstdio>
#include <memory>

#include "common/error.h"
#include "models/bicycle_gan.h"
#include "models/cgan.h"
#include "models/cvae.h"
#include "models/cvae_gan.h"
#include "models/gaussian_model.h"
#include "nn/serialize.h"
#include "tensor/ops.h"

namespace flashgen::models {
namespace {

using tensor::Shape;

// Tiny 8x8 setup so each model trains in well under a second per epoch.
data::DatasetConfig tiny_dataset_config() {
  data::DatasetConfig config;
  config.array_size = 8;
  config.num_arrays = 64;
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

TrainConfig tiny_train_config() {
  TrainConfig config;
  config.epochs = 1;
  config.batch_size = 8;
  config.log_every = 0;
  return config;
}

class GenerativeModelsTest : public ::testing::Test {
 protected:
  GenerativeModelsTest() : rng_(1), dataset_(data::PairedDataset::generate(tiny_dataset_config(), rng_)) {}

  std::vector<std::unique_ptr<GenerativeModel>> all_models() {
    std::vector<std::unique_ptr<GenerativeModel>> models;
    models.push_back(std::make_unique<CvaeGanModel>(tiny_network_config(), 7));
    models.push_back(std::make_unique<BicycleGanModel>(tiny_network_config(), 7));
    models.push_back(std::make_unique<CganModel>(tiny_network_config(), 7));
    models.push_back(std::make_unique<CvaeModel>(tiny_network_config(), 7));
    models.push_back(std::make_unique<GaussianModel>());
    return models;
  }

  flashgen::Rng rng_;
  data::PairedDataset dataset_;
};

TEST_F(GenerativeModelsTest, NamesMatchPaperTables) {
  const auto models = all_models();
  EXPECT_EQ(models[0]->name(), "cVAE-GAN");
  EXPECT_EQ(models[1]->name(), "Bicycle-GAN");
  EXPECT_EQ(models[2]->name(), "cGAN");
  EXPECT_EQ(models[3]->name(), "cVAE");
  EXPECT_EQ(models[4]->name(), "Gaussian");
}

TEST_F(GenerativeModelsTest, FitRunsAndReportsSteps) {
  for (auto& model : all_models()) {
    flashgen::Rng rng(2);
    const TrainStats stats = model->fit(dataset_, tiny_train_config(), rng);
    EXPECT_GE(stats.steps, 1) << model->name();
  }
}

TEST_F(GenerativeModelsTest, GenerateShapeAndRange) {
  for (auto& model : all_models()) {
    flashgen::Rng rng(3);
    model->fit(dataset_, tiny_train_config(), rng);
    std::vector<std::size_t> indices = {0, 1, 2};
    auto [pl, vl] = dataset_.batch(indices);
    Tensor out = model->generate(pl, rng);
    EXPECT_EQ(out.shape(), pl.shape()) << model->name();
    for (float v : out.data()) {
      EXPECT_GE(v, -1.0f) << model->name();
      EXPECT_LE(v, 1.0f) << model->name();
    }
  }
}

TEST_F(GenerativeModelsTest, GenerationIsStochastic) {
  for (auto& model : all_models()) {
    flashgen::Rng rng(4);
    model->fit(dataset_, tiny_train_config(), rng);
    std::vector<std::size_t> indices = {0};
    auto [pl, vl] = dataset_.batch(indices);
    Tensor a = model->generate(pl, rng);
    Tensor b = model->generate(pl, rng);
    double diff = 0.0;
    for (tensor::Index i = 0; i < a.numel(); ++i)
      diff += std::fabs(a.data()[i] - b.data()[i]);
    EXPECT_GT(diff, 1e-5) << model->name() << " produced identical samples";
  }
}

TEST_F(GenerativeModelsTest, CvaeLossDecreases) {
  CvaeModel model(tiny_network_config(), 7);
  flashgen::Rng rng(5);
  TrainConfig config = tiny_train_config();
  config.epochs = 30;
  config.lr = 1e-3f;
  config.log_every = 8;  // one history entry per epoch
  const TrainStats stats = model.fit(dataset_, config, rng);
  ASSERT_GE(stats.g_loss_history.size(), 4u);
  EXPECT_LT(stats.g_loss_history.back(), 0.7f * stats.g_loss_history.front());
}

TEST_F(GenerativeModelsTest, GanTrainingKeepsFiniteLosses) {
  CvaeGanModel model(tiny_network_config(), 7);
  flashgen::Rng rng(6);
  TrainConfig config = tiny_train_config();
  config.epochs = 5;
  config.log_every = 8;
  const TrainStats stats = model.fit(dataset_, config, rng);
  for (float g : stats.g_loss_history) EXPECT_TRUE(std::isfinite(g));
  for (float d : stats.d_loss_history) EXPECT_TRUE(std::isfinite(d));
  EXPECT_FALSE(stats.d_loss_history.empty());
}

TEST_F(GenerativeModelsTest, SaveLoadRoundTripPreservesGeneration) {
  const std::string path = ::testing::TempDir() + "/model_roundtrip.ckpt";
  CvaeGanModel a(tiny_network_config(), 7);
  flashgen::Rng rng(8);
  a.fit(dataset_, tiny_train_config(), rng);
  a.save(path);

  CvaeGanModel b(tiny_network_config(), 99);  // different init
  b.load(path);

  std::vector<std::size_t> indices = {0, 1};
  auto [pl, vl] = dataset_.batch(indices);
  flashgen::Rng g1(42), g2(42);
  Tensor out_a = a.generate(pl, g1);
  Tensor out_b = b.generate(pl, g2);
  for (tensor::Index i = 0; i < out_a.numel(); ++i)
    EXPECT_FLOAT_EQ(out_a.data()[i], out_b.data()[i]);
  std::remove(path.c_str());
}

// An unconditioned cVAE-GAN keeps the metadata-free FGCKPT01 layout, so every
// cached Table I checkpoint still loads; a (PE, retention)-conditioned one
// stamps its conditioning contract, and an unconditioned model refuses it.
TEST_F(GenerativeModelsTest, CvaeGanCheckpointLayoutFollowsConditioning) {
  const std::string plain_path = ::testing::TempDir() + "/cvae_gan_plain.ckpt";
  const std::string conditioned_path = ::testing::TempDir() + "/cvae_gan_conditioned.ckpt";
  CvaeGanModel plain(tiny_network_config(), 7);
  plain.save(plain_path);
  EXPECT_TRUE(nn::read_checkpoint_meta(plain_path).empty());

  NetworkConfig config = tiny_network_config();
  config.condition_dims = 2;
  config.pe_scale = 8000.0;
  config.retention_scale = 500.0;
  CvaeGanModel conditioned(config, 7);
  EXPECT_EQ(conditioned.name(), "cVAE-GAN(PE,ret)");
  conditioned.save(conditioned_path);
  const nn::CheckpointMeta meta = nn::read_checkpoint_meta(conditioned_path);
  ASSERT_EQ(meta.size(), 3u);
  EXPECT_EQ(meta.at("cond_version"), 2.0);
  EXPECT_EQ(meta.at("pe_scale"), 8000.0);
  EXPECT_EQ(meta.at("retention_scale"), 500.0);

  CvaeGanModel reader(tiny_network_config(), 99);
  EXPECT_THROW(reader.load(conditioned_path), flashgen::Error);
  std::remove(plain_path.c_str());
  std::remove(conditioned_path.c_str());
}

TEST_F(GenerativeModelsTest, CvaeGanRejectsPeOnlyConditioning) {
  NetworkConfig config = tiny_network_config();
  config.condition_dims = 1;
  EXPECT_THROW(CvaeGanModel(config, 7), flashgen::Error);
}

TEST_F(GenerativeModelsTest, GaussianMomentsMatchTrainingData) {
  GaussianModel model;
  flashgen::Rng rng(9);
  model.fit(dataset_, tiny_train_config(), rng);
  // Compare against directly computed level-4 moments.
  double sum = 0.0, sumsq = 0.0;
  long count = 0;
  for (std::size_t i = 0; i < dataset_.size(); ++i) {
    const auto& pl = dataset_.program_levels()[i];
    const auto& vl = dataset_.voltages()[i];
    for (int r = 0; r < pl.rows(); ++r)
      for (int c = 0; c < pl.cols(); ++c)
        if (pl(r, c) == 4) {
          sum += vl(r, c);
          sumsq += static_cast<double>(vl(r, c)) * vl(r, c);
          ++count;
        }
  }
  const double mean = sum / count;
  EXPECT_NEAR(model.level_mean(4), mean, 1e-3);
  EXPECT_NEAR(model.level_stddev(4), std::sqrt(sumsq / count - mean * mean), 1e-2);
}

TEST_F(GenerativeModelsTest, GaussianGenerateBeforeFitThrows) {
  GaussianModel model;
  Tensor pl = Tensor::zeros(Shape{1, 1, 8, 8});
  flashgen::Rng rng(10);
  EXPECT_THROW(model.generate(pl, rng), Error);
}

TEST_F(GenerativeModelsTest, GaussianIgnoresSpatialContext) {
  // Two PL arrays that differ only in the neighbors of a level-0 cell must
  // produce statistically identical voltages for that cell.
  GaussianModel model;
  flashgen::Rng rng(11);
  model.fit(dataset_, tiny_train_config(), rng);
  Tensor quiet = Tensor::full(Shape{1, 1, 8, 8}, -1.0f);             // all level 0
  Tensor loud = Tensor::full(Shape{1, 1, 8, 8}, 1.0f);               // all level 7
  loud.data()[3 * 8 + 3] = -1.0f;                                    // one victim
  double sum_quiet = 0.0, sum_loud = 0.0;
  const int trials = 3000;
  for (int i = 0; i < trials; ++i) {
    sum_quiet += model.generate(quiet, rng).data()[3 * 8 + 3];
    sum_loud += model.generate(loud, rng).data()[3 * 8 + 3];
  }
  EXPECT_NEAR(sum_quiet / trials, sum_loud / trials, 0.02);
}

TEST_F(GenerativeModelsTest, GanLossHelper) {
  Tensor logits = Tensor::zeros(Shape{2, 1, 3, 3});
  // BCE at logit 0 is log(2) regardless of target.
  EXPECT_NEAR(gan_loss(logits, true, false).item(), std::log(2.0f), 1e-5f);
  // LSGAN at logit 0: (0-1)^2 = 1 for real target, 0 for fake target.
  EXPECT_NEAR(gan_loss(logits, true, true).item(), 1.0f, 1e-6f);
  EXPECT_NEAR(gan_loss(logits, false, true).item(), 0.0f, 1e-6f);
}

TEST_F(GenerativeModelsTest, ScheduledLrDecaysInSecondHalf) {
  EXPECT_FLOAT_EQ(detail::scheduled_lr(1.0f, 0, 100), 1.0f);
  EXPECT_FLOAT_EQ(detail::scheduled_lr(1.0f, 50, 100), 1.0f);
  EXPECT_LT(detail::scheduled_lr(1.0f, 75, 100), 0.6f);
  EXPECT_FLOAT_EQ(detail::scheduled_lr(1.0f, 100, 100), 0.1f);
}

TEST_F(GenerativeModelsTest, TrainingLoopValidatesConfig) {
  CvaeModel model(tiny_network_config(), 7);
  flashgen::Rng rng(12);
  TrainConfig config = tiny_train_config();
  config.batch_size = 1000;  // larger than dataset
  EXPECT_THROW(model.fit(dataset_, config, rng), Error);
  config = tiny_train_config();
  config.epochs = 0;
  EXPECT_THROW(model.fit(dataset_, config, rng), Error);
}

}  // namespace
}  // namespace flashgen::models
