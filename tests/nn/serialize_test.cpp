#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "common/error.h"
#include "nn/layers.h"
#include "tensor/ops.h"

namespace flashgen::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

struct SmallNet : Module {
  flashgen::Rng rng;
  Linear fc;
  BatchNorm2d bn;
  explicit SmallNet(std::uint64_t seed) : rng(seed), fc(4, 3, rng), bn(2, rng) {
    register_module("fc", fc);
    register_module("bn", bn);
  }
};

class SerializeTest : public ::testing::Test {
 protected:
  // Unique per test case: ctest runs cases as parallel processes.
  std::string path_ = ::testing::TempDir() + "/ckpt_test_" +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                      ".bin";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(SerializeTest, RoundTripRestoresAllState) {
  SmallNet a(1), b(2);
  // Mutate a's batch-norm running stats so buffers are exercised too.
  Tensor x = Tensor::full(Shape{2, 2, 2, 2}, 3.0f);
  for (std::size_t i = 0; i < x.data().size(); ++i) x.data()[i] += (i % 3) * 0.25f;
  (void)a.bn.forward(x);

  save_checkpoint(a, path_);
  load_checkpoint(b, path_);

  const auto sa = a.named_state();
  const auto sb = b.named_state();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].name, sb[i].name);
    ASSERT_EQ(sa[i].tensor.numel(), sb[i].tensor.numel());
    for (tensor::Index j = 0; j < sa[i].tensor.numel(); ++j)
      EXPECT_FLOAT_EQ(sa[i].tensor.data()[j], sb[i].tensor.data()[j]) << sa[i].name;
  }
}

TEST_F(SerializeTest, LoadedModelProducesIdenticalOutputs) {
  SmallNet a(1), b(2);
  save_checkpoint(a, path_);
  load_checkpoint(b, path_);
  Tensor x = Tensor::from_data(Shape{1, 4}, {0.5f, -1.0f, 2.0f, 0.0f});
  Tensor ya = a.fc.forward(x);
  Tensor yb = b.fc.forward(x);
  for (tensor::Index i = 0; i < ya.numel(); ++i)
    EXPECT_FLOAT_EQ(ya.data()[i], yb.data()[i]);
}

TEST_F(SerializeTest, RejectsShapeMismatch) {
  SmallNet a(1);
  save_checkpoint(a, path_);
  struct OtherNet : Module {
    flashgen::Rng rng{3};
    Linear fc{4, 5, rng};  // different out dim
    BatchNorm2d bn{2, rng};
    OtherNet() {
      register_module("fc", fc);
      register_module("bn", bn);
    }
  } other;
  EXPECT_THROW(load_checkpoint(other, path_), Error);
}

TEST_F(SerializeTest, RejectsWrongEntryCount) {
  SmallNet a(1);
  save_checkpoint(a, path_);
  struct Tiny : Module {
    flashgen::Rng rng{4};
    Linear fc{4, 3, rng};
    Tiny() { register_module("fc", fc); }
  } tiny;
  EXPECT_THROW(load_checkpoint(tiny, path_), Error);
}

TEST_F(SerializeTest, RejectsGarbageFile) {
  std::ofstream out(path_, std::ios::binary);
  out << "this is not a checkpoint";
  out.close();
  SmallNet a(1);
  EXPECT_THROW(load_checkpoint(a, path_), Error);
}

TEST_F(SerializeTest, MissingFileThrows) {
  SmallNet a(1);
  EXPECT_THROW(load_checkpoint(a, "/nonexistent/ckpt.bin"), Error);
}

// Saving goes through a temp file + rename, so a save that cannot complete
// must leave a pre-existing checkpoint untouched.
TEST_F(SerializeTest, FailedSaveLeavesExistingCheckpointIntact) {
  SmallNet a(1), b(2), restored(3);
  save_checkpoint(a, path_);

  // Block the temp file with a directory: the second save cannot open it.
  const std::string tmp = path_ + ".tmp";
  ASSERT_EQ(::mkdir(tmp.c_str(), 0755), 0);
  EXPECT_THROW(save_checkpoint(b, path_), Error);
  ASSERT_EQ(::rmdir(tmp.c_str()), 0);

  // The original checkpoint still loads and still holds a's weights.
  load_checkpoint(restored, path_);
  const auto sa = a.named_state();
  const auto sr = restored.named_state();
  ASSERT_EQ(sa.size(), sr.size());
  for (std::size_t i = 0; i < sa.size(); ++i)
    for (tensor::Index j = 0; j < sa[i].tensor.numel(); ++j)
      ASSERT_EQ(sa[i].tensor.data()[j], sr[i].tensor.data()[j]) << sa[i].name;
}

TEST_F(SerializeTest, SaveCleansUpTempFile) {
  SmallNet a(1);
  save_checkpoint(a, path_);
  std::ifstream tmp(path_ + ".tmp");
  EXPECT_FALSE(tmp.good());
}

}  // namespace
}  // namespace flashgen::nn
