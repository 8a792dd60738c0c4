// Bicycle-GAN (Zhu et al. 2017): hybrid of the cVAE-GAN branch (posterior
// latent from real voltages) and the cLR-GAN branch (random prior latent with
// latent recovery through the encoder). This implementation shares a single
// discriminator between the two branches, a standard simplification noted in
// DESIGN.md.
#pragma once

#include "models/generative_model.h"
#include "models/networks.h"

namespace flashgen::models {

class BicycleGanModel : public GenerativeModel {
 public:
  BicycleGanModel(const NetworkConfig& config, std::uint64_t seed);

  std::string name() const override { return "Bicycle-GAN"; }
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
    PatchDiscriminator discriminator;
    Root(const NetworkConfig& config, std::uint64_t seed)
        : init_rng(seed),
          encoder(config, init_rng),
          generator(config, init_rng),
          discriminator(config, init_rng) {
      register_module("encoder", encoder);
      register_module("generator", generator);
      register_module("discriminator", discriminator);
    }
  };

  NetworkConfig config_;
  Root root_;
};

}  // namespace flashgen::models
