// cGAN baseline (pix2pix, Isola et al. 2017): the latent vector is removed
// from the generator (paper Remark 2.2) and stochasticity comes only from
// dropout in the Up blocks. Trained with batch size 64 in the paper.
#pragma once

#include "models/generative_model.h"
#include "models/networks.h"

namespace flashgen::models {

class CganModel : public GenerativeModel {
 public:
  CganModel(const NetworkConfig& config, std::uint64_t seed);

  std::string name() const override { return "cGAN"; }
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
  static NetworkConfig strip_latent(NetworkConfig config) {
    config.z_dim = 0;
    if (config.dropout == 0.0f) config.dropout = 0.5f;  // pix2pix noise source
    return config;
  }

  struct Root : nn::Module {
    flashgen::Rng init_rng;
    UNetGenerator generator;
    PatchDiscriminator discriminator;
    Root(const NetworkConfig& config, std::uint64_t seed)
        : init_rng(seed), generator(config, init_rng), discriminator(config, init_rng) {
      register_module("generator", generator);
      register_module("discriminator", discriminator);
    }
  };

  NetworkConfig config_;
  Root root_;
};

}  // namespace flashgen::models
