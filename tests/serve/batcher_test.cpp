// RequestBatcher tests: batching must be invisible in the results (a request
// coalesced into a batch of 8 returns the same bits as the request run
// alone), the default executor must run whatever is queued as soon as its
// replica is free, and the opt-in hold must flush partial batches.
#include <gtest/gtest.h>

#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/experiment.h"
#include "data/dataset.h"
#include "serve/batcher.h"
#include "serve/engine.h"

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

// Wraps a model and parks the first sample_rows() call until open() — a
// replica that is busy for as long as the test wants. Later calls pass
// straight through, so the bits are the wrapped model's.
class GatedModel : public models::GenerativeModel {
 public:
  explicit GatedModel(models::GenerativeModel& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  models::TrainStats fit(const data::PairedDataset&, const models::TrainConfig&,
                         flashgen::Rng&) override {
    return {};
  }
  void prepare_generation() override { inner_.prepare_generation(); }
  Tensor sample(const Tensor& pl, flashgen::Rng& rng) override { return inner_.sample(pl, rng); }
  Tensor sample_rows(const Tensor& pl, std::span<flashgen::Rng> rngs,
                     std::span<const data::Condition> conditions) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!entered_) {
        entered_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return open_; });
      }
    }
    return inner_.sample_rows(pl, rngs, conditions);
  }
  nn::Module& root_module() override { return inner_.root_module(); }

  /// Blocks until the executor is parked inside the first batch.
  void wait_entered() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  models::GenerativeModel& inner_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool open_ = false;
};

class BatcherTest : public ::testing::Test {
 protected:
  BatcherTest() {
    flashgen::Rng rng(1);
    auto dataset = data::PairedDataset::generate(tiny_dataset_config(), rng);
    model_ = core::make_model(core::ModelKind::CvaeGan, tiny_network_config(), /*seed=*/7);
    models::TrainConfig train;
    train.epochs = 1;
    train.batch_size = 8;
    train.log_every = 0;
    flashgen::Rng train_rng(2);
    model_->fit(dataset, train, train_rng);
    engine_ = std::make_unique<InferenceEngine>(*model_);

    for (std::size_t s = 0; s < 8; ++s) {
      std::vector<float> row(kRowElems);
      flashgen::Rng row_rng(100 + s);
      for (float& v : row)
        v = -1.0f + 0.25f * static_cast<float>(row_rng.uniform_int(8));
      rows_.push_back(std::move(row));
    }
  }

  /// Ground truth for request (row, stream): the engine run on that row alone.
  std::vector<float> alone(std::size_t request) {
    Tensor pl = Tensor::from_data(Shape({1, 1, 8, 8}), rows_[request]);
    std::vector<flashgen::Rng> rngs = {flashgen::Rng::from_stream(kSeed, request)};
    std::vector<float> out(kRowElems);
    engine_->generate_into(pl, rngs, out);
    return out;
  }

  static constexpr std::size_t kRowElems = 64;
  static constexpr std::uint64_t kSeed = 42;

  std::unique_ptr<models::GenerativeModel> model_;
  std::unique_ptr<InferenceEngine> engine_;
  std::vector<std::vector<float>> rows_;
};

// A request coalesced into a full batch of 8 must return exactly the bits it
// would get running alone: per-request RNG streams plus per-sample batch-norm
// statistics decouple the rows.
TEST_F(BatcherTest, CoalescedBatchOfEightMatchesRequestAlone) {
  std::vector<std::vector<float>> expected;
  for (std::size_t i = 0; i < 8; ++i) expected.push_back(alone(i));

  BatchPolicy policy;
  policy.max_batch_size = 8;
  policy.max_wait_micros = 200000;  // ample: all 8 must land in one batch
  ServeMetrics metrics;
  RequestBatcher batcher(*engine_, Shape({1, 8, 8}), policy, &metrics);

  const auto batches_before = engine_->stats().batches;
  std::vector<ResponseFuture> futures;
  for (std::size_t i = 0; i < 8; ++i)
    futures.push_back(batcher.submit(rows_[i], kSeed, /*stream=*/i));
  for (std::size_t i = 0; i < 8; ++i) {
    const std::vector<float> got = futures[i].get();
    ASSERT_EQ(got.size(), expected[i].size());
    for (std::size_t j = 0; j < got.size(); ++j)
      ASSERT_EQ(got[j], expected[i][j]) << "request " << i << " element " << j;
  }
  batcher.drain();
  // All 8 requests were queued before the executor could close a batch, so
  // they ran as one engine call.
  EXPECT_EQ(engine_->stats().batches, batches_before + 1);
}

// The default policy holds nothing: a lone request runs at once, and the
// requests that queue while the replica is busy form the next batch. The
// gate makes the split deterministic — no timing is asserted.
TEST_F(BatcherTest, FreeReplicaTakesEverythingQueuedWithoutAHold) {
  std::vector<std::vector<float>> expected;
  for (std::size_t i = 0; i < 8; ++i) expected.push_back(alone(i));

  GatedModel gated(*model_);
  InferenceEngine engine(gated);
  RequestBatcher batcher(engine, Shape({1, 8, 8}), BatchPolicy{});
  ASSERT_EQ(batcher.policy().max_wait_micros, 0u);

  std::vector<ResponseFuture> futures;
  futures.push_back(batcher.submit(rows_[0], kSeed, /*stream=*/0));
  gated.wait_entered();  // row 0 runs alone; the executor is now busy
  for (std::size_t i = 1; i < 8; ++i)
    futures.push_back(batcher.submit(rows_[i], kSeed, /*stream=*/i));
  gated.open();
  for (std::size_t i = 0; i < 8; ++i) {
    const std::vector<float> got = futures[i].get();
    ASSERT_EQ(got.size(), expected[i].size());
    for (std::size_t j = 0; j < got.size(); ++j)
      ASSERT_EQ(got[j], expected[i][j]) << "request " << i << " element " << j;
  }
  batcher.drain();
  EXPECT_EQ(engine.stats().batches, 2u);
  EXPECT_EQ(engine.stats().rows, 8u);
}

// An isolated request must not wait for a full batch: the opt-in hold's
// deadline flushes a batch of one.
TEST_F(BatcherTest, MaxWaitFlushesPartialBatch) {
  const std::vector<float> expected = alone(0);

  BatchPolicy policy;
  policy.max_batch_size = 8;
  policy.max_wait_micros = 1000;
  RequestBatcher batcher(*engine_, Shape({1, 8, 8}), policy);

  auto future = batcher.submit(rows_[0], kSeed, /*stream=*/0);
  const std::vector<float> got = future.get();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t j = 0; j < got.size(); ++j) ASSERT_EQ(got[j], expected[j]);
}

// Submissions racing from several threads all complete with the right bits,
// regardless of how the executor slices them into batches.
TEST_F(BatcherTest, ConcurrentSubmissionsAreIndependent) {
  std::vector<std::vector<float>> expected;
  for (std::size_t i = 0; i < 8; ++i) expected.push_back(alone(i));

  BatchPolicy policy;
  policy.max_batch_size = 3;  // forces splits across batches
  policy.max_wait_micros = 500;
  RequestBatcher batcher(*engine_, Shape({1, 8, 8}), policy);

  std::vector<std::thread> threads;
  std::vector<std::vector<float>> got(8);
  for (std::size_t i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] { got[i] = batcher.submit(rows_[i], kSeed, i).get(); });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_EQ(got[i].size(), expected[i].size());
    for (std::size_t j = 0; j < got[i].size(); ++j)
      ASSERT_EQ(got[i][j], expected[i][j]) << "request " << i;
  }
}

// A batch mixing rows at explicit conditions with unconditioned rows runs in
// one engine call: each conditioned row matches the same row run alone at its
// condition, and each unconditioned row matches the same row run alone at the
// model's default condition.
TEST_F(BatcherTest, MixedConditionBatchMatchesRowsAlone) {
  auto conditioned = core::make_model(core::ModelKind::Temporal, tiny_network_config(), 7);
  InferenceEngine engine(*conditioned);
  const std::vector<data::Condition> at = {{2000.0, 10.0},
                                           {9000.0, 500.0},
                                           conditioned->default_condition(),
                                           conditioned->default_condition()};
  std::vector<std::vector<float>> expected;
  for (std::size_t i = 0; i < at.size(); ++i) {
    Tensor pl = Tensor::from_data(Shape({1, 1, 8, 8}), rows_[i]);
    std::vector<flashgen::Rng> rngs = {flashgen::Rng::from_stream(kSeed, i)};
    std::vector<float> out(kRowElems);
    engine.generate_into(pl, rngs, out, std::span<const data::Condition>(&at[i], 1));
    expected.push_back(std::move(out));
  }
  ASSERT_NE(expected[0], expected[1]) << "the condition must reach the generator";

  BatchPolicy policy;
  policy.max_batch_size = 4;
  policy.max_wait_micros = 200000;  // ample: all 4 must land in one batch
  RequestBatcher batcher(engine, Shape({1, 8, 8}), policy);
  const auto batches_before = engine.stats().batches;
  std::vector<ResponseFuture> futures;
  futures.push_back(batcher.submit(rows_[0], kSeed, /*stream=*/0, /*deadline_micros=*/0, at[0]));
  futures.push_back(batcher.submit(rows_[1], kSeed, /*stream=*/1, /*deadline_micros=*/0, at[1]));
  futures.push_back(batcher.submit(rows_[2], kSeed, /*stream=*/2));
  futures.push_back(batcher.submit(rows_[3], kSeed, /*stream=*/3));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), expected[i]) << "request " << i;
  }
  batcher.drain();
  EXPECT_EQ(engine.stats().batches, batches_before + 1);
}

TEST_F(BatcherTest, ConditionedSubmitToUnconditionedModelThrows) {
  RequestBatcher batcher(*engine_, Shape({1, 8, 8}), BatchPolicy{});
  EXPECT_THROW((void)batcher.submit(rows_[0], kSeed, 0, 0, data::Condition{1000.0, 0.0}),
               Error);
}

TEST_F(BatcherTest, RejectsWrongRowSize) {
  RequestBatcher batcher(*engine_, Shape({1, 8, 8}), BatchPolicy{});
  EXPECT_THROW((void)batcher.submit(std::vector<float>(7), kSeed, 0), Error);
}

TEST_F(BatcherTest, RecordsQueueAndBatchMetrics) {
  BatchPolicy policy;
  policy.max_batch_size = 4;
  policy.max_wait_micros = 1000;
  ServeMetrics metrics;
  {
    RequestBatcher batcher(*engine_, Shape({1, 8, 8}), policy, &metrics);
    std::vector<ResponseFuture> futures;
    for (std::size_t i = 0; i < 4; ++i)
      futures.push_back(batcher.submit(rows_[i], kSeed, i));
    for (auto& f : futures) (void)f.get();
    batcher.drain();
  }
  const std::string json = metrics.to_json();
  EXPECT_NE(json.find("\"batches\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth_peak\""), std::string::npos);
}

}  // namespace
}  // namespace flashgen::serve
