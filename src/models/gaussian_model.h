// Classical Gaussian baseline: for each program level, fit the mean and
// standard deviation of the measured voltages and sample i.i.d. per cell.
// Captures per-level PDFs but, by construction, no spatial (ICI) structure —
// exactly the limitation the paper contrasts against (Section IV-B).
#pragma once

#include <array>

#include "models/generative_model.h"

namespace flashgen::models {

class GaussianModel : public GenerativeModel {
 public:
  GaussianModel();

  std::string name() const override { return "Gaussian"; }
  /// Fits per-level moments from the dataset's raw (unnormalized) voltages.
  /// TrainConfig is ignored (closed-form fit).
  TrainStats fit(const data::PairedDataset& dataset, const TrainConfig& config,
                 flashgen::Rng& rng) override;
  void prepare_generation() override;
  Tensor sample(const Tensor& pl, flashgen::Rng& rng) override;
  Tensor sample_rows(const Tensor& pl, std::span<flashgen::Rng> rngs,
                     std::span<const data::Condition> conditions) override;
  nn::Module& root_module() override { return root_; }

  /// Fitted moments in physical voltage units.
  double level_mean(int level) const;
  double level_stddev(int level) const;

 protected:
  /// Rebuilds the normalizer and fitted flag from the `norm` buffer so a
  /// checkpoint round-trip restores a usable model.
  void on_loaded() override;

 private:
  struct Root : nn::Module {
    Tensor mean;    // (8) buffer
    Tensor stddev;  // (8) buffer
    Tensor norm;    // (3) buffer: {fitted flag, voltage_lo, voltage_hi}
    Root() {
      mean = register_buffer("mean", Tensor::zeros(tensor::Shape{flash::kTlcLevels}));
      stddev = register_buffer("stddev", Tensor::full(tensor::Shape{flash::kTlcLevels}, 1.0f));
      norm = register_buffer("norm", Tensor::zeros(tensor::Shape{3}));
    }
  };

  Root root_;
  data::VoltageNormalizer normalizer_;
  bool fitted_ = false;
};

}  // namespace flashgen::models
