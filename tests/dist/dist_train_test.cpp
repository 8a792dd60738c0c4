// Bit-identity of distributed training across world sizes and thread counts,
// plus launcher end-to-end runs over the spawn-local mesh.
//
// Ranks run as in-process std::threads over a socketpair mesh; every rank
// builds its own identically-seeded model and trains it through DistTrainer.
// The checkpoint comparison is bitwise (byte blobs of the full module state).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "data/dataset.h"
#include "dist/comm.h"
#include "dist/trainer.h"
#include "models/generative_model.h"
#include "models/networks.h"

namespace flashgen::dist {
namespace {

data::DatasetConfig tiny_dataset_config() {
  data::DatasetConfig config;
  config.array_size = 8;
  config.num_arrays = 32;
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
  config.log_every = 1;
  return config;
}

// Full module state (parameters + buffers) as raw bytes, for bitwise
// comparison.
std::vector<std::uint8_t> state_blob(models::GenerativeModel& model) {
  std::vector<std::uint8_t> blob;
  for (const auto& entry : model.root_module().named_state()) {
    auto values = entry.tensor.data();
    const std::size_t bytes = values.size() * sizeof(float);
    const std::size_t at = blob.size();
    blob.resize(at + bytes);
    std::memcpy(blob.data() + at, values.data(), bytes);
  }
  return blob;
}

struct TrainResult {
  std::vector<std::uint8_t> blob;      // rank 0's module state
  models::TrainStats stats;            // rank 0's stats
};

// Trains `kind` on `world` thread-ranks with `num_shards` microbatches per
// step and returns rank 0's final state. Also asserts that every rank ended
// with identical bits (the reduced gradients and BN updates are replicated).
TrainResult train_on_threads(core::ModelKind kind, int world, int num_shards,
                             const models::TrainConfig& train) {
  flashgen::Rng data_rng(1);
  const auto dataset = data::PairedDataset::generate(tiny_dataset_config(), data_rng);
  auto comms = make_local_mesh(world, CommConfig{.timeout_ms = 30000});
  std::vector<std::vector<std::uint8_t>> blobs(static_cast<std::size_t>(world));
  std::vector<models::TrainStats> stats(static_cast<std::size_t>(world));
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      auto model = core::make_model(kind, tiny_network_config(), /*seed=*/7);
      DistTrainer trainer(comms[static_cast<std::size_t>(r)],
                          DistConfig{.num_shards = num_shards, .seed = 5});
      flashgen::Rng loop_rng(9);
      stats[static_cast<std::size_t>(r)] = trainer.fit(*model, dataset, train, loop_rng);
      blobs[static_cast<std::size_t>(r)] = state_blob(*model);
    });
  }
  for (auto& t : threads) t.join();
  for (int r = 1; r < world; ++r) {
    EXPECT_EQ(blobs[static_cast<std::size_t>(r)], blobs[0])
        << "rank " << r << " diverged from rank 0 (world " << world << ")";
  }
  return TrainResult{blobs[0], stats[0]};
}

void expect_bit_identical_across_worlds(core::ModelKind kind) {
  const auto train = tiny_train_config();
  const auto w1 = train_on_threads(kind, 1, 4, train);
  const auto w2 = train_on_threads(kind, 2, 4, train);
  const auto w4 = train_on_threads(kind, 4, 4, train);
  ASSERT_FALSE(w1.blob.empty());
  EXPECT_EQ(w2.blob, w1.blob) << core::to_string(kind) << ": world 2 != world 1";
  EXPECT_EQ(w4.blob, w1.blob) << core::to_string(kind) << ": world 4 != world 1";
  // The reduced per-step losses are part of the canonical computation too.
  EXPECT_EQ(w2.stats.g_loss_history, w1.stats.g_loss_history);
  EXPECT_EQ(w4.stats.g_loss_history, w1.stats.g_loss_history);
  EXPECT_EQ(w2.stats.d_loss_history, w1.stats.d_loss_history);
  EXPECT_EQ(w1.stats.steps, w2.stats.steps);
}

TEST(DistTrainTest, CvaeGanBitIdenticalAcrossWorldSizes) {
  expect_bit_identical_across_worlds(core::ModelKind::CvaeGan);
}

TEST(DistTrainTest, CganBitIdenticalAcrossWorldSizes) {
  expect_bit_identical_across_worlds(core::ModelKind::Cgan);
}

TEST(DistTrainTest, TemporalBitIdenticalAcrossWorldSizes) {
  expect_bit_identical_across_worlds(core::ModelKind::Temporal);
}

TEST(DistTrainTest, CvaeBitIdenticalAcrossWorldSizes) {
  const auto train = tiny_train_config();
  EXPECT_EQ(train_on_threads(core::ModelKind::Cvae, 2, 4, train).blob,
            train_on_threads(core::ModelKind::Cvae, 1, 4, train).blob);
}

TEST(DistTrainTest, BicycleGanBitIdenticalAcrossWorldSizes) {
  const auto train = tiny_train_config();
  EXPECT_EQ(train_on_threads(core::ModelKind::BicycleGan, 2, 4, train).blob,
            train_on_threads(core::ModelKind::BicycleGan, 1, 4, train).blob);
}

TEST(DistTrainTest, ThreadCountInvariance) {
  // The same distributed run under a 4-thread worker pool must match the
  // single-threaded run bit for bit, for both GAN flavors.
  const auto train = tiny_train_config();
  for (auto kind : {core::ModelKind::CvaeGan, core::ModelKind::Cgan}) {
    common::set_num_threads(1);
    const auto serial = train_on_threads(kind, 2, 4, train);
    common::set_num_threads(4);
    const auto pooled = train_on_threads(kind, 2, 4, train);
    common::set_num_threads(1);
    EXPECT_EQ(pooled.blob, serial.blob) << core::to_string(kind);
  }
}

TEST(DistTrainTest, ShardCountChangesTheComputation) {
  // Sanity check that the comparisons above can fail: a different microbatch
  // decomposition is a genuinely different computation (BN batch statistics),
  // so S=2 and S=4 must not produce identical state.
  const auto train = tiny_train_config();
  EXPECT_NE(train_on_threads(core::ModelKind::CvaeGan, 1, 2, train).blob,
            train_on_threads(core::ModelKind::CvaeGan, 1, 4, train).blob);
}

TEST(DistTrainTest, RollbackSentinelRejectedForMultiWorker) {
  flashgen::Rng data_rng(1);
  const auto dataset = data::PairedDataset::generate(tiny_dataset_config(), data_rng);
  auto train = tiny_train_config();
  train.sentinel.policy = models::SentinelPolicy::kRollback;
  auto comms = make_local_mesh(2);
  std::vector<int> threw(2, 0);
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      auto model = core::make_model(core::ModelKind::Cvae, tiny_network_config(), 7);
      DistTrainer trainer(comms[static_cast<std::size_t>(r)],
                          DistConfig{.num_shards = 2, .seed = 5});
      flashgen::Rng loop_rng(9);
      try {
        trainer.fit(*model, dataset, train, loop_rng);
      } catch (const flashgen::Error&) {
        threw[static_cast<std::size_t>(r)] = 1;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(threw, std::vector<int>({1, 1}));
}

TEST(DistTrainTest, InvalidShardConfigsRejected) {
  flashgen::Rng data_rng(1);
  const auto dataset = data::PairedDataset::generate(tiny_dataset_config(), data_rng);
  auto model = core::make_model(core::ModelKind::Cvae, tiny_network_config(), 7);
  auto comms = make_local_mesh(1);
  auto train = tiny_train_config();
  flashgen::Rng loop_rng(9);
  {
    DistTrainer trainer(comms[0], DistConfig{.num_shards = 3, .seed = 5});  // not pow-2
    EXPECT_THROW(trainer.fit(*model, dataset, train, loop_rng), flashgen::Error);
  }
  {
    DistTrainer trainer(comms[0], DistConfig{.num_shards = 16, .seed = 5});
    // 16 shards do not divide batch_size 8.
    EXPECT_THROW(trainer.fit(*model, dataset, train, loop_rng), flashgen::Error);
  }
}

// ---- Launcher end-to-end (spawn-local over the real binary) ----

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

const char* launcher_bin() {
  if (const char* env = std::getenv("FLASHGEN_TRAIN_DIST_BIN")) return env;
#ifdef FLASHGEN_TRAIN_DIST_BIN_DEFAULT
  return FLASHGEN_TRAIN_DIST_BIN_DEFAULT;
#else
  return nullptr;
#endif
}

int run_launcher(const std::string& args) {
  std::ostringstream cmd;
  cmd << "\"" << launcher_bin() << "\" " << args << " > /dev/null 2>&1";
  return std::system(cmd.str().c_str());
}

TEST(DistTrainTest, LauncherWorldSizesProduceIdenticalCheckpoints) {
  if (launcher_bin() == nullptr) {
    GTEST_SKIP() << "FLASHGEN_TRAIN_DIST_BIN not set";
  }
  const std::string dir = ::testing::TempDir();
  const std::string common =
      "--model cvae_gan --num-shards 4 --global-batch 8 --epochs 1 --arrays 32 "
      "--array-size 8 --base-channels 4 --seed 11 ";
  ASSERT_EQ(run_launcher(common + "--world 1 --out " + dir + "dtw1.ckpt"), 0);
  ASSERT_EQ(run_launcher(common + "--world 2 --spawn-local --out " + dir + "dtw2.ckpt"), 0);
  const auto w1 = read_file(dir + "dtw1.ckpt");
  ASSERT_FALSE(w1.empty());
  EXPECT_EQ(read_file(dir + "dtw2.ckpt"), w1);
}

TEST(DistTrainTest, LauncherTcpRendezvousMatchesSpawnLocal) {
  if (launcher_bin() == nullptr) {
    GTEST_SKIP() << "FLASHGEN_TRAIN_DIST_BIN not set";
  }
  const std::string dir = ::testing::TempDir();
  const std::string common =
      "--model cgan --num-shards 2 --global-batch 8 --epochs 1 --arrays 16 "
      "--array-size 8 --base-channels 4 --seed 13 --timeout-ms 20000 ";
  ASSERT_EQ(run_launcher(common + "--world 1 --out " + dir + "dttcp_ref.ckpt"), 0);
  // Two TCP ranks on loopback: launch rank 1 in the background, rank 0 in the
  // foreground, then wait for the background one.
  std::ostringstream cmd;
  cmd << "\"" << launcher_bin() << "\" " << common
      << "--world 2 --rank 1 --port 39123 > /dev/null 2>&1 & bg=$!; "
      << "\"" << launcher_bin() << "\" " << common << "--world 2 --rank 0 --port 39123 "
      << "--out " << dir << "dttcp.ckpt > /dev/null 2>&1; rc=$?; wait $bg; "
      << "[ $rc -eq 0 ] && [ $? -eq 0 ]";
  ASSERT_EQ(std::system(cmd.str().c_str()), 0);
  const auto ref = read_file(dir + "dttcp_ref.ckpt");
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(read_file(dir + "dttcp.ckpt"), ref);
}

}  // namespace
}  // namespace flashgen::dist
