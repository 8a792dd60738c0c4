// End-to-end server test: unix-socket round trips through the full stack
// (client -> frames -> batcher -> engine -> model) with a Gaussian model,
// which is fast to fit and still exercises the determinism contract.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/experiment.h"
#include "data/dataset.h"
#include "serve/server.h"

namespace flashgen::serve {
namespace {

using tensor::Shape;

std::unique_ptr<models::GenerativeModel> trained_gaussian(data::PairedDataset& dataset) {
  auto model = core::make_model(core::ModelKind::Gaussian, models::NetworkConfig{}, /*seed=*/0);
  models::TrainConfig train;
  flashgen::Rng rng(2);
  model->fit(dataset, train, rng);
  return model;
}

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() {
    data::DatasetConfig config;
    config.array_size = 8;
    config.num_arrays = 64;
    config.channel.rows = 32;
    config.channel.cols = 32;
    flashgen::Rng rng(1);
    dataset_ = std::make_unique<data::PairedDataset>(data::PairedDataset::generate(config, rng));
    // Unique per test process: ctest runs the cases, and the reference/
    // backend-matrix copy of each case, as parallel processes, and two
    // servers on one path would unlink each other's sockets.
    const std::string test_name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    socket_path_ = (std::filesystem::temp_directory_path() /
                    ("flashgen_server_" + test_name + "_" + std::to_string(::getpid()) + ".sock"))
                       .string();
  }

  std::unique_ptr<data::PairedDataset> dataset_;
  std::string socket_path_;
};

TEST_F(ServerTest, GenerateAndStatsRoundTrip) {
  auto model = trained_gaussian(*dataset_);

  // Ground truth computed before the server wraps the model: the same
  // (seed, stream) pair must come back over the wire bit-identically.
  GenerateRequest request;
  request.model = "Gaussian";
  request.seed = 11;
  request.stream = 3;
  request.side = 8;
  const std::vector<std::size_t> indices = {0};
  auto [pl, vl] = dataset_->batch(indices);
  request.program_levels.assign(pl.data().begin(), pl.data().end());

  std::vector<float> expected(request.program_levels.size());
  {
    InferenceEngine engine(*model);
    std::vector<flashgen::Rng> rngs = {flashgen::Rng::from_stream(request.seed, request.stream)};
    engine.generate_into(pl, rngs, expected);
  }

  ModelRegistry registry;
  registry.add("Gaussian", std::move(model), Shape({1, 8, 8}), /*warmup_batch=*/2);
  ServerOptions options;
  options.endpoint = socket_path_;
  options.policy.max_batch_size = 4;
  options.policy.max_wait_micros = 500;
  Server server(registry, options);
  server.start();

  {
    Client client(socket_path_);
    const GenerateResponse response = client.generate(request);
    ASSERT_EQ(response.side, 8u);
    ASSERT_EQ(response.voltages.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
      ASSERT_EQ(response.voltages[i], expected[i]) << "element " << i;

    // Unknown model answers kError on the same connection, which keeps
    // serving afterwards.
    GenerateRequest bad = request;
    bad.model = "nope";
    EXPECT_THROW((void)client.generate(bad), Error);
    const GenerateResponse again = client.generate(request);
    EXPECT_EQ(again.voltages, response.voltages);

    const std::string stats = client.stats();
    EXPECT_NE(stats.find("\"requests\": 2"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"errors\": 1"), std::string::npos) << stats;
  }

  // Parallel clients hammering the same model all get their own streams.
  std::vector<std::thread> threads;
  std::vector<std::vector<float>> got(4);
  for (std::size_t c = 0; c < 4; ++c) {
    threads.emplace_back([&, c] {
      Client client(socket_path_);
      GenerateRequest r = request;
      r.stream = 100 + c;
      got[c] = client.generate(r).voltages;
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t c = 0; c < 4; ++c) {
    ASSERT_EQ(got[c].size(), expected.size());
    for (std::size_t other = c + 1; other < 4; ++other)
      EXPECT_NE(got[c], got[other]) << "streams " << c << " and " << other << " collided";
  }

  server.stop();
  EXPECT_FALSE(std::filesystem::exists(socket_path_));
}

TEST_F(ServerTest, StopReturnsWhileClientsStayConnected) {
  ModelRegistry registry;
  registry.add("Gaussian", trained_gaussian(*dataset_), Shape({1, 8, 8}), /*warmup_batch=*/2);
  ServerOptions options;
  options.endpoint = socket_path_;
  Server server(registry, options);
  server.start();

  // An idle connection parks its server-side thread in read_frame; stop()
  // must wake it (shutdown on the connection socket) rather than wait for
  // the client to hang up.
  Client idle(socket_path_);
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(socket_path_));
}

}  // namespace
}  // namespace flashgen::serve
