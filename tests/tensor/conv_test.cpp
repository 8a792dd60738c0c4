#include "tensor/conv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"
#include "testutil/gradcheck.h"

namespace flashgen::tensor {
namespace {

using flashgen::testutil::gradcheck;

Tensor rand_input(const Shape& shape, std::uint64_t seed, float scale = 1.0f) {
  flashgen::Rng rng(seed);
  return Tensor::randn(shape, rng, scale, /*requires_grad=*/true);
}

// Naive direct convolution reference.
std::vector<float> conv_reference(const Tensor& x, const Tensor& w, Index stride, Index pad) {
  const Index n = x.shape()[0], c = x.shape()[1], h = x.shape()[2], wd = x.shape()[3];
  const Index oc = w.shape()[0], kh = w.shape()[2], kw = w.shape()[3];
  const Index oh = (h + 2 * pad - kh) / stride + 1;
  const Index ow = (wd + 2 * pad - kw) / stride + 1;
  std::vector<float> y(static_cast<std::size_t>(n * oc * oh * ow), 0.0f);
  for (Index s = 0; s < n; ++s)
    for (Index o = 0; o < oc; ++o)
      for (Index oy = 0; oy < oh; ++oy)
        for (Index ox = 0; ox < ow; ++ox) {
          double acc = 0.0;
          for (Index ch = 0; ch < c; ++ch)
            for (Index ky = 0; ky < kh; ++ky)
              for (Index kx = 0; kx < kw; ++kx) {
                const Index iy = oy * stride + ky - pad;
                const Index ix = ox * stride + kx - pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= wd) continue;
                acc += static_cast<double>(x.data()[((s * c + ch) * h + iy) * wd + ix]) *
                       w.data()[((o * c + ch) * kh + ky) * kw + kx];
              }
          y[((s * oc + o) * oh + oy) * ow + ox] = static_cast<float>(acc);
        }
  return y;
}

struct ConvCase {
  Index n, c, h, w, oc, k, stride, pad;
};

class Conv2dParamTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(Conv2dParamTest, MatchesNaiveReference) {
  const auto p = GetParam();
  Tensor x = rand_input(Shape{p.n, p.c, p.h, p.w}, 1);
  Tensor w = rand_input(Shape{p.oc, p.c, p.k, p.k}, 2);
  Tensor y = conv2d(x, w, Tensor(), p.stride, p.pad);
  const auto expected = conv_reference(x, w, p.stride, p.pad);
  ASSERT_EQ(static_cast<std::size_t>(y.numel()), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_NEAR(y.data()[i], expected[i], 1e-3f) << "at " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Conv2dParamTest,
    ::testing::Values(ConvCase{1, 1, 5, 5, 1, 3, 1, 1},   // same-size 3x3
                      ConvCase{2, 3, 8, 8, 4, 4, 2, 1},   // paper's 4x4/s2/p1 down conv
                      ConvCase{1, 2, 7, 9, 3, 3, 2, 0},   // rectangular, no pad
                      ConvCase{2, 1, 4, 4, 2, 1, 1, 0},   // 1x1 kernel
                      ConvCase{1, 4, 2, 2, 8, 2, 2, 0},   // bottleneck to 1x1
                      ConvCase{1, 1, 6, 6, 1, 5, 1, 2})); // large kernel

TEST(Conv2d, BiasIsAddedPerChannel) {
  Tensor x = Tensor::zeros(Shape{1, 1, 3, 3});
  Tensor w = Tensor::zeros(Shape{2, 1, 3, 3});
  Tensor b = Tensor::from_data(Shape{2}, {1.5f, -2.0f});
  Tensor y = conv2d(x, w, b, 1, 1);
  EXPECT_FLOAT_EQ(y.data()[0], 1.5f);
  EXPECT_FLOAT_EQ(y.data()[9], -2.0f);
}

TEST(Conv2d, RejectsBadShapes) {
  Tensor x = Tensor::zeros(Shape{1, 2, 4, 4});
  Tensor w = Tensor::zeros(Shape{3, 1, 3, 3});  // in-channels mismatch
  EXPECT_THROW(conv2d(x, w, Tensor(), 1, 1), Error);
  Tensor w2 = Tensor::zeros(Shape{3, 2, 9, 9});  // kernel larger than padded input
  EXPECT_THROW(conv2d(x, w2, Tensor(), 1, 1), Error);
}

TEST(Conv2dGrad, InputWeightBias) {
  Tensor x = rand_input(Shape{2, 2, 4, 4}, 3, 0.5f);
  Tensor w = rand_input(Shape{3, 2, 3, 3}, 4, 0.5f);
  Tensor b = rand_input(Shape{3}, 5, 0.5f);
  EXPECT_TRUE(gradcheck(
      [](const auto& in) { return mean(square(conv2d(in[0], in[1], in[2], 1, 1))); },
      {x, w, b}));
}

TEST(Conv2dGrad, StridedPaperGeometry) {
  Tensor x = rand_input(Shape{1, 1, 8, 8}, 6, 0.5f);
  Tensor w = rand_input(Shape{2, 1, 4, 4}, 7, 0.5f);
  EXPECT_TRUE(gradcheck(
      [](const auto& in) { return mean(square(conv2d(in[0], in[1], Tensor(), 2, 1))); },
      {x, w}));
}

TEST(ConvTranspose2d, OutputShapeFormula) {
  Tensor x = Tensor::zeros(Shape{1, 3, 4, 4});
  Tensor w = Tensor::zeros(Shape{3, 5, 4, 4});
  Tensor y = conv_transpose2d(x, w, Tensor(), 2, 1);
  EXPECT_EQ(y.shape(), (Shape{1, 5, 8, 8}));
}

TEST(ConvTranspose2d, IsAdjointOfConv2d) {
  // <conv(x), y> == <x, convT(y)> for matching geometries and shared weight.
  flashgen::Rng rng(8);
  Tensor x = Tensor::randn(Shape{1, 2, 8, 8}, rng);
  Tensor w = Tensor::randn(Shape{3, 2, 4, 4}, rng);  // conv weight (OC, C, K, K)
  Tensor y = Tensor::randn(Shape{1, 3, 4, 4}, rng);
  Tensor cx = conv2d(x, w, Tensor(), 2, 1);           // (1, 3, 4, 4)
  // convT weight layout is (C_in=3, C_out=2, K, K): permute conv weight dims 0/1.
  std::vector<float> wt(static_cast<std::size_t>(3 * 2 * 4 * 4));
  for (Index o = 0; o < 3; ++o)
    for (Index c = 0; c < 2; ++c)
      for (Index i = 0; i < 16; ++i)
        wt[(o * 2 + c) * 16 + i] = w.data()[(o * 2 + c) * 16 + i];
  Tensor wT = Tensor::from_data(Shape{3, 2, 4, 4}, std::move(wt));
  Tensor ty = conv_transpose2d(y, wT, Tensor(), 2, 1);  // (1, 2, 8, 8)
  double lhs = 0.0, rhs = 0.0;
  for (Index i = 0; i < cx.numel(); ++i) lhs += static_cast<double>(cx.data()[i]) * y.data()[i];
  for (Index i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x.data()[i]) * ty.data()[i];
  EXPECT_NEAR(lhs, rhs, 1e-2 * (1.0 + std::fabs(lhs)));
}

TEST(ConvTranspose2dGrad, InputWeightBias) {
  Tensor x = rand_input(Shape{2, 3, 3, 3}, 9, 0.5f);
  Tensor w = rand_input(Shape{3, 2, 4, 4}, 10, 0.5f);
  Tensor b = rand_input(Shape{2}, 11, 0.5f);
  EXPECT_TRUE(gradcheck(
      [](const auto& in) {
        return mean(square(conv_transpose2d(in[0], in[1], in[2], 2, 1)));
      },
      {x, w, b}));
}

TEST(ConvTranspose2d, RejectsBadShapes) {
  Tensor x = Tensor::zeros(Shape{1, 2, 4, 4});
  Tensor w = Tensor::zeros(Shape{3, 2, 4, 4});  // in-channels mismatch (expects w[0]==2)
  EXPECT_THROW(conv_transpose2d(x, w, Tensor(), 2, 1), Error);
}

// The deep U-Net layers: 1x1 and 2x2 maps, where each sample is a GEMM
// with n = 1 or 4 output columns and a batch shares one weight. Training and
// serving run the same batched forward, and every row of a batch must carry
// the bits of that row run alone.
struct SkinnyConvCase {
  bool transposed;
  Index c, hw, oc, k, stride, pad;
};

constexpr SkinnyConvCase kSkinnyConvCases[] = {
    {false, 16, 2, 128, 4, 2, 1},  // 2x2 -> 1x1 down conv
    {false, 32, 1, 64, 3, 1, 1},   // 1x1 -> 1x1
    {true, 64, 1, 32, 4, 2, 1},    // 1x1 -> 2x2 up conv
    {true, 32, 2, 16, 4, 2, 1},    // 2x2 -> 4x4 up conv
};

Tensor skinny_forward(const SkinnyConvCase& p, const Tensor& x, const Tensor& w) {
  return p.transposed ? conv_transpose2d(x, w, Tensor(), p.stride, p.pad)
                      : conv2d(x, w, Tensor(), p.stride, p.pad);
}

TEST(ConvSkinnyMaps, BatchRowsMatchRowsRunAlone) {
  for (const SkinnyConvCase& p : kSkinnyConvCases) {
    const Index batch = 8, plane = p.c * p.hw * p.hw;
    flashgen::Rng rng(21);
    Tensor x = Tensor::randn(Shape{batch, p.c, p.hw, p.hw}, rng);
    Tensor w = p.transposed ? Tensor::randn(Shape{p.c, p.oc, p.k, p.k}, rng, 0.1f)
                            : Tensor::randn(Shape{p.oc, p.c, p.k, p.k}, rng, 0.1f);
    InferenceModeGuard guard;
    Tensor y = skinny_forward(p, x, w);
    const Index out_plane = y.numel() / batch;
    for (Index s = 0; s < batch; ++s) {
      std::vector<float> row(x.data().begin() + s * plane, x.data().begin() + (s + 1) * plane);
      Tensor alone = skinny_forward(p, Tensor::from_data(Shape{1, p.c, p.hw, p.hw}, std::move(row)), w);
      ASSERT_EQ(alone.numel(), out_plane);
      const std::vector<float> batched_row(y.data().begin() + s * out_plane,
                                           y.data().begin() + (s + 1) * out_plane);
      EXPECT_EQ(batched_row, std::vector<float>(alone.data().begin(), alone.data().end()))
          << "transposed=" << p.transposed << " hw=" << p.hw << " row " << s;
    }
  }
}

TEST(ConvSkinnyMaps, TrainingForwardMatchesInferenceForward) {
  for (const SkinnyConvCase& p : kSkinnyConvCases) {
    flashgen::Rng rng(22);
    Tensor x = Tensor::randn(Shape{8, p.c, p.hw, p.hw}, rng, 1.0f, /*requires_grad=*/true);
    Tensor w = p.transposed
                   ? Tensor::randn(Shape{p.c, p.oc, p.k, p.k}, rng, 0.1f, /*requires_grad=*/true)
                   : Tensor::randn(Shape{p.oc, p.c, p.k, p.k}, rng, 0.1f, /*requires_grad=*/true);
    Tensor trained = skinny_forward(p, x, w);
    std::vector<float> served;
    {
      InferenceModeGuard guard;
      Tensor y = skinny_forward(p, x, w);
      served.assign(y.data().begin(), y.data().end());
    }
    EXPECT_EQ(std::vector<float>(trained.data().begin(), trained.data().end()), served)
        << "transposed=" << p.transposed << " hw=" << p.hw;
  }
}

TEST(Im2col, RoundTripAdjointIdentity) {
  // <im2col(x), c> == <x, col2im(c)>
  flashgen::Rng rng(12);
  const Index c = 2, h = 5, w = 5, k = 3, stride = 2, pad = 1;
  const Index oh = (h + 2 * pad - k) / stride + 1, ow = (w + 2 * pad - k) / stride + 1;
  std::vector<float> x(static_cast<std::size_t>(c * h * w));
  std::vector<float> cols(static_cast<std::size_t>(c * k * k * oh * ow));
  std::vector<float> weights(cols.size());
  std::vector<float> back(x.size(), 0.0f);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto& v : weights) v = static_cast<float>(rng.normal());
  detail::im2col(x.data(), c, h, w, k, k, stride, pad, oh, ow, cols.data());
  detail::col2im(weights.data(), c, h, w, k, k, stride, pad, oh, ow, back.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cols.size(); ++i) lhs += static_cast<double>(cols[i]) * weights[i];
  for (std::size_t i = 0; i < x.size(); ++i) rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3 * (1.0 + std::fabs(lhs)));
}

TEST(BatchNorm2d, NormalizesInTraining) {
  flashgen::Rng rng(13);
  Tensor x = Tensor::randn(Shape{4, 2, 8, 8}, rng, 3.0f);
  for (float& v : x.data()) v += 5.0f;
  Tensor gamma = Tensor::full(Shape{2}, 1.0f, true);
  Tensor beta = Tensor::zeros(Shape{2}, true);
  Tensor rm = Tensor::zeros(Shape{2});
  Tensor rv = Tensor::full(Shape{2}, 1.0f);
  Tensor y = batch_norm2d(x, gamma, beta, rm, rv, /*training=*/true);
  // Output should be ~zero-mean unit-var per channel.
  for (int ch = 0; ch < 2; ++ch) {
    double sum = 0.0, sumsq = 0.0;
    int count = 0;
    for (int s = 0; s < 4; ++s)
      for (int j = 0; j < 64; ++j) {
        const float v = y.data()[(s * 2 + ch) * 64 + j];
        sum += v;
        sumsq += static_cast<double>(v) * v;
        ++count;
      }
    EXPECT_NEAR(sum / count, 0.0, 1e-4);
    EXPECT_NEAR(sumsq / count, 1.0, 1e-3);
  }
  // Running stats moved toward batch stats (momentum 0.1).
  EXPECT_NEAR(rm.data()[0], 0.5, 0.15);     // 0.9*0 + 0.1*~5
  EXPECT_GT(rv.data()[0], 1.0f);            // toward ~9
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  Tensor x = Tensor::full(Shape{1, 1, 2, 2}, 10.0f);
  Tensor gamma = Tensor::full(Shape{1}, 2.0f, true);
  Tensor beta = Tensor::full(Shape{1}, 1.0f, true);
  Tensor rm = Tensor::full(Shape{1}, 4.0f);
  Tensor rv = Tensor::full(Shape{1}, 9.0f);
  Tensor y = batch_norm2d(x, gamma, beta, rm, rv, /*training=*/false, 0.1f, 0.0f);
  // y = 2 * (10 - 4) / 3 + 1 = 5
  EXPECT_NEAR(y.data()[0], 5.0f, 1e-4f);
  // Eval mode must not touch running stats.
  EXPECT_FLOAT_EQ(rm.data()[0], 4.0f);
  EXPECT_FLOAT_EQ(rv.data()[0], 9.0f);
}

TEST(BatchNorm2dGrad, TrainingModeFullBackward) {
  Tensor x = rand_input(Shape{3, 2, 2, 2}, 14);
  Tensor gamma = rand_input(Shape{2}, 15, 0.3f);
  for (float& v : gamma.data()) v += 1.0f;
  Tensor beta = rand_input(Shape{2}, 16, 0.3f);
  Tensor rm = Tensor::zeros(Shape{2});
  Tensor rv = Tensor::full(Shape{2}, 1.0f);
  EXPECT_TRUE(gradcheck(
      [&rm, &rv](const auto& in) {
        Tensor rm_copy = Tensor::from_data(Shape{2}, {rm.data()[0], rm.data()[1]});
        Tensor rv_copy = Tensor::from_data(Shape{2}, {rv.data()[0], rv.data()[1]});
        return mean(square(batch_norm2d(in[0], in[1], in[2], rm_copy, rv_copy, true)));
      },
      {x, gamma, beta}));
}

TEST(BatchNorm2dGrad, EvalModeAffineBackward) {
  Tensor x = rand_input(Shape{2, 2, 3, 3}, 17);
  Tensor gamma = rand_input(Shape{2}, 18, 0.3f);
  Tensor beta = rand_input(Shape{2}, 19, 0.3f);
  Tensor rm = Tensor::from_data(Shape{2}, {0.2f, -0.1f});
  Tensor rv = Tensor::from_data(Shape{2}, {1.5f, 0.7f});
  EXPECT_TRUE(gradcheck(
      [&rm, &rv](const auto& in) {
        return mean(square(batch_norm2d(in[0], in[1], in[2], rm, rv, false)));
      },
      {x, gamma, beta}));
}

TEST(BatchNorm2d, RejectsSingleValuePopulationInTraining) {
  Tensor x = Tensor::zeros(Shape{1, 2, 1, 1});
  Tensor gamma = Tensor::full(Shape{2}, 1.0f, true);
  Tensor beta = Tensor::zeros(Shape{2}, true);
  Tensor rm = Tensor::zeros(Shape{2});
  Tensor rv = Tensor::full(Shape{2}, 1.0f);
  EXPECT_THROW(batch_norm2d(x, gamma, beta, rm, rv, true), Error);
}

}  // namespace
}  // namespace flashgen::tensor
