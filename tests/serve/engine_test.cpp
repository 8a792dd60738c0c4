// InferenceEngine and ModelRegistry tests.
//
// The load-bearing property is the determinism contract: the forward-only
// serving path must be bit-identical to the training-path generate() for the
// same checkpoint and RNG streams, per row, at any batch size.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "common/error.h"
#include "data/dataset.h"
#include "models/cgan.h"
#include "models/cvae_gan.h"
#include "models/gaussian_model.h"
#include "serve/engine.h"
#include "serve/registry.h"
#include "tensor/workspace.h"

namespace flashgen::serve {
namespace {

using tensor::Shape;

data::DatasetConfig tiny_dataset_config() {
  data::DatasetConfig config;
  config.array_size = 8;
  config.num_arrays = 64;
  config.channel.rows = 32;
  config.channel.cols = 32;
  return config;
}

models::NetworkConfig tiny_network_config() {
  models::NetworkConfig config;
  config.array_size = 8;
  config.base_channels = 4;
  config.z_dim = 4;
  return config;
}

models::TrainConfig tiny_train_config() {
  models::TrainConfig config;
  config.epochs = 1;
  config.batch_size = 8;
  config.log_every = 0;
  return config;
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : rng_(1), dataset_(data::PairedDataset::generate(tiny_dataset_config(), rng_)) {}

  std::unique_ptr<models::GenerativeModel> trained(core::ModelKind kind) {
    auto model = core::make_model(kind, tiny_network_config(), /*seed=*/7);
    flashgen::Rng rng(2);
    model->fit(dataset_, tiny_train_config(), rng);
    return model;
  }

  Tensor eval_batch(std::size_t n) {
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < n; ++i) indices.push_back(i);
    auto [pl, vl] = dataset_.batch(indices);
    (void)vl;
    return pl;
  }

  flashgen::Rng rng_;
  data::PairedDataset dataset_;
};

// Engine rows must match the training-path generate() bit-for-bit: same
// checkpoint, same per-row stream, any batch size.
TEST_F(EngineTest, BitIdenticalToTrainingPathGenerate) {
  for (core::ModelKind kind :
       {core::ModelKind::CvaeGan, core::ModelKind::Cgan, core::ModelKind::Gaussian}) {
    auto model = trained(kind);
    const Tensor pl = eval_batch(4);
    const auto row_elems = static_cast<std::size_t>(pl.numel() / pl.shape()[0]);

    // Baseline: the training-path generate(), one row at a time.
    std::vector<float> baseline;
    for (std::size_t s = 0; s < 4; ++s) {
      const auto src = pl.data().subspan(s * row_elems, row_elems);
      Tensor row = Tensor::from_data(Shape({1, 1, 8, 8}),
                                     std::vector<float>(src.begin(), src.end()));
      flashgen::Rng row_rng = flashgen::Rng::from_stream(42, s);
      Tensor y = model->generate(row, row_rng);
      baseline.insert(baseline.end(), y.data().begin(), y.data().end());
    }

    InferenceEngine engine(*model);
    engine.warmup(pl);
    std::vector<flashgen::Rng> rngs;
    for (std::size_t s = 0; s < 4; ++s) rngs.push_back(flashgen::Rng::from_stream(42, s));
    std::vector<float> served(baseline.size());
    engine.generate_into(pl, rngs, served);

    ASSERT_EQ(served.size(), baseline.size());
    for (std::size_t i = 0; i < served.size(); ++i)
      ASSERT_EQ(served[i], baseline[i]) << core::to_string(kind) << " element " << i;
    EXPECT_GE(engine.stats().batches, 1u);
  }
}

// After warm-up, repeated fixed-shape batches must be served entirely from
// the workspace pool: the fresh-allocation counter stops moving.
TEST_F(EngineTest, SteadyStateDoesNotHeapAllocate) {
  auto model = trained(core::ModelKind::CvaeGan);
  InferenceEngine engine(*model);
  const Tensor pl = eval_batch(4);
  engine.warmup(pl, /*rounds=*/3);

  auto& pool = tensor::WorkspacePool::this_thread();
  pool.reset_stats();
  std::vector<flashgen::Rng> rngs;
  for (std::size_t s = 0; s < 4; ++s) rngs.push_back(flashgen::Rng::from_stream(9, s));
  for (int round = 0; round < 3; ++round) {
    auto fresh_rngs = rngs;
    (void)engine.sample_rows(pl, fresh_rngs);
  }
  EXPECT_EQ(pool.stats().fresh, 0u)
      << "steady-state sampling heap-allocated " << pool.stats().fresh << " buffers";
  EXPECT_GT(pool.stats().reused, 0u);
}

TEST_F(EngineTest, RejectsMismatchedStreamCount) {
  auto model = trained(core::ModelKind::Gaussian);
  InferenceEngine engine(*model);
  const Tensor pl = eval_batch(4);
  std::vector<flashgen::Rng> rngs(3, flashgen::Rng(0));
  EXPECT_THROW((void)engine.sample_rows(pl, rngs), Error);
}

// Registry checkpoint round-trip: a model restored from disk must serve the
// same bits as the instance that trained it. Covers GaussianModel::on_loaded
// (normalizer rebuilt from the checkpoint buffer) and the network models.
TEST_F(EngineTest, RegistryLoadsCheckpointBitIdentical) {
  // Per process: the reference/ backend-matrix copy of this case runs in
  // parallel and would otherwise remove the other's checkpoints.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("flashgen_engine_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  for (core::ModelKind kind : {core::ModelKind::CvaeGan, core::ModelKind::Gaussian}) {
    auto model = trained(kind);
    const std::string path = (dir / (core::to_string(kind) + ".ckpt")).string();
    model->save(path);

    ModelRegistry registry;
    registry.load("m", kind, tiny_network_config(), path, /*warmup_batch=*/2);
    ASSERT_TRUE(registry.contains("m"));
    EXPECT_EQ(registry.names(), std::vector<std::string>{"m"});

    const Tensor pl = eval_batch(2);
    std::vector<flashgen::Rng> rngs = {flashgen::Rng::from_stream(5, 0),
                                       flashgen::Rng::from_stream(5, 1)};
    auto rngs_copy = rngs;

    InferenceEngine original(*model);
    Tensor expected = original.sample_rows(pl, rngs);
    Tensor restored = registry.at("m").engine().sample_rows(pl, rngs_copy);

    ASSERT_EQ(expected.shape(), restored.shape()) << core::to_string(kind);
    for (std::size_t i = 0; i < expected.data().size(); ++i)
      ASSERT_EQ(expected.data()[i], restored.data()[i]) << core::to_string(kind);

    registry.load("other", kind, tiny_network_config(), path, /*warmup_batch=*/0);
    EXPECT_EQ(registry.size(), 2u);
    EXPECT_THROW(registry.at("missing"), Error);
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace flashgen::serve
