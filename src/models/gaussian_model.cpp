#include "models/gaussian_model.h"

#include <cmath>

#include "common/error.h"

namespace flashgen::models {

GaussianModel::GaussianModel() = default;

TrainStats GaussianModel::fit(const data::PairedDataset& dataset, const TrainConfig& config,
                              flashgen::Rng& rng) {
  (void)config;
  (void)rng;
  std::array<double, flash::kTlcLevels> sum{};
  std::array<double, flash::kTlcLevels> sumsq{};
  std::array<long, flash::kTlcLevels> count{};
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto& levels = dataset.program_levels()[i];
    const auto& volts = dataset.voltages()[i];
    for (int r = 0; r < levels.rows(); ++r)
      for (int c = 0; c < levels.cols(); ++c) {
        const int level = levels(r, c);
        const double v = volts(r, c);
        sum[level] += v;
        sumsq[level] += v * v;
        ++count[level];
      }
  }
  for (int level = 0; level < flash::kTlcLevels; ++level) {
    FG_CHECK(count[level] > 1, "Gaussian fit: no samples for level " << level);
    const double mu = sum[level] / count[level];
    const double var = std::max(1e-12, sumsq[level] / count[level] - mu * mu);
    root_.mean.data()[level] = static_cast<float>(mu);
    root_.stddev.data()[level] = static_cast<float>(std::sqrt(var));
  }
  normalizer_ = data::VoltageNormalizer(dataset.config().norm);
  fitted_ = true;
  root_.norm.data()[0] = 1.0f;
  root_.norm.data()[1] = static_cast<float>(normalizer_.config().voltage_lo);
  root_.norm.data()[2] = static_cast<float>(normalizer_.config().voltage_hi);
  TrainStats stats;
  stats.steps = 1;
  return stats;
}

void GaussianModel::on_loaded() {
  fitted_ = root_.norm.data()[0] != 0.0f;
  if (!fitted_) return;
  data::NormalizerConfig config;
  config.voltage_lo = root_.norm.data()[1];
  config.voltage_hi = root_.norm.data()[2];
  normalizer_ = data::VoltageNormalizer(config);
}

double GaussianModel::level_mean(int level) const {
  FG_CHECK(fitted_, "GaussianModel::level_mean before fit()");
  FG_CHECK(level >= 0 && level < flash::kTlcLevels, "level out of range: " << level);
  return root_.mean.data()[level];
}

double GaussianModel::level_stddev(int level) const {
  FG_CHECK(fitted_, "GaussianModel::level_stddev before fit()");
  FG_CHECK(level >= 0 && level < flash::kTlcLevels, "level out of range: " << level);
  return root_.stddev.data()[level];
}

void GaussianModel::prepare_generation() {
  FG_CHECK(fitted_, "GaussianModel::generate before fit()");
}

Tensor GaussianModel::sample(const Tensor& pl, flashgen::Rng& rng) {
  Tensor out = Tensor::zeros(pl.shape());
  auto src = pl.data();
  auto dst = out.data();
  for (std::size_t i = 0; i < src.size(); ++i) {
    const int level = normalizer_.denormalize_level(src[i]);
    const double v = rng.normal(root_.mean.data()[level], root_.stddev.data()[level]);
    dst[i] = normalizer_.normalize_voltage(v);
  }
  return out;
}

Tensor GaussianModel::sample_rows(const Tensor& pl, std::span<flashgen::Rng> rngs,
                                  std::span<const data::Condition> /*conditions*/) {
  const auto n = pl.shape()[0];
  FG_CHECK(static_cast<tensor::Index>(rngs.size()) == n,
           "sample_rows: " << rngs.size() << " streams for batch " << pl.shape());
  const auto row = static_cast<std::size_t>(pl.numel() / n);
  Tensor out = Tensor::zeros(pl.shape());
  auto src = pl.data();
  auto dst = out.data();
  for (std::size_t s = 0; s < static_cast<std::size_t>(n); ++s) {
    flashgen::Rng& rng = rngs[s];
    for (std::size_t i = s * row; i < (s + 1) * row; ++i) {
      const int level = normalizer_.denormalize_level(src[i]);
      const double v = rng.normal(root_.mean.data()[level], root_.stddev.data()[level]);
      dst[i] = normalizer_.normalize_voltage(v);
    }
  }
  return out;
}

}  // namespace flashgen::models
