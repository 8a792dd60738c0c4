// cVAE baseline (Sohn et al. 2015): encoder + generator trained with
// reconstruction and KL terms only — no discriminator (paper Section III-A).
#pragma once

#include "models/generative_model.h"
#include "models/networks.h"

namespace flashgen::models {

class CvaeModel : public GenerativeModel {
 public:
  CvaeModel(const NetworkConfig& config, std::uint64_t seed);

  std::string name() const override { return "cVAE"; }
  TrainStats fit_stream(pipeline::SampleSource& source, const TrainConfig& config,
                        flashgen::Rng& rng) override;
  TrainStats fit(const data::PairedDataset& dataset, const TrainConfig& config,
                 flashgen::Rng& rng) override;
  void prepare_generation() override;
  Tensor sample(const Tensor& pl, flashgen::Rng& rng) override;
  Tensor sample_rows(const Tensor& pl, std::span<flashgen::Rng> rngs,
                     std::span<const data::Condition> conditions) override;
  nn::Module& root_module() override { return root_; }
  std::unique_ptr<ShardedStepper> make_sharded_stepper(const TrainConfig& config) override;

 private:
  struct Root : nn::Module {
    flashgen::Rng init_rng;
    ResNetEncoder encoder;
    UNetGenerator generator;
    Root(const NetworkConfig& config, std::uint64_t seed)
        : init_rng(seed), encoder(config, init_rng), generator(config, init_rng) {
      register_module("encoder", encoder);
      register_module("generator", generator);
    }
  };

  NetworkConfig config_;
  Root root_;
};

}  // namespace flashgen::models
