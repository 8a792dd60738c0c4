// cVAE-GAN (Larsen et al. 2016, conditional form of BicycleGAN's cVAE-GAN
// branch): the paper's primary model.
//
// Training objective (paper Eq. 1):
//   min_{Gen,En} max_{Dis}  L_GAN + alpha * L_recon + beta * L_KL
// with the encoder posterior replacing the GAN prior during training and the
// standard-normal prior used at generation time.
//
// Spatio-temporal conditioning (the paper's stated "ultimate goal", Section
// III-A, of learning P(VL | PL, PE)): with NetworkConfig::condition_dims = 2
// the generator and discriminator also receive the normalized
// (P/E cycles, retention hours) pair, injected like the latent code
// (replicated spatially, concatenated into every Down layer). Trained on a
// multi-condition dataset (PairedDataset::generate_multi) or a
// condition-scheduled PrefetchSource stream, one network covers the channel
// across its wear range and interpolates between characterized conditions.
#pragma once

#include "models/generative_model.h"
#include "models/networks.h"

namespace flashgen::models {

class CvaeGanModel : public GenerativeModel {
 public:
  /// `seed` initializes network weights (training randomness comes from the
  /// Rng passed to fit/generate). `config.condition_dims` is 0 (unconditioned)
  /// or 2 ((PE, retention)-conditioned); a conditioned model needs positive
  /// `pe_scale` / `retention_scale`, the condition values at which the
  /// normalized inputs saturate at 1.0 (pick >= the largest condition you
  /// train on).
  CvaeGanModel(const NetworkConfig& config, std::uint64_t seed);

  std::string name() const override {
    return condition_aware() ? "cVAE-GAN(PE,ret)" : "cVAE-GAN";
  }
  TrainStats fit(const data::PairedDataset& dataset, const TrainConfig& config,
                 flashgen::Rng& rng) override;
  /// A conditioned model needs a source serving raw condition rows
  /// (next_batch_cond() with a defined cond tensor — EagerSource over a
  /// generated dataset, or a PrefetchSource with a condition schedule).
  TrainStats fit_stream(pipeline::SampleSource& source, const TrainConfig& config,
                        flashgen::Rng& rng) override;
  void prepare_generation() override;
  /// A conditioned model samples at the generation condition.
  Tensor sample(const Tensor& pl, flashgen::Rng& rng) override;
  Tensor sample_rows(const Tensor& pl, std::span<flashgen::Rng> rngs,
                     std::span<const data::Condition> conditions) override;
  nn::Module& root_module() override { return root_; }
  std::unique_ptr<ShardedStepper> make_sharded_stepper(const TrainConfig& config) override;

  bool condition_aware() const override { return config_.condition_dims > 0; }
  /// The generation condition: pe_scale / 2 cycles at zero retention until
  /// set_generation_condition changes it.
  data::Condition default_condition() const override { return generation_condition_; }
  /// Sets the condition sample()/generate() and condition-less sample_rows()
  /// calls run at. Conditioned models only.
  void set_generation_condition(const data::Condition& condition);

  const NetworkConfig& network_config() const { return config_; }

 protected:
  /// Unconditioned models write no metadata (the FGCKPT01 layout);
  /// conditioned ones stamp cond_version 2 and both condition scales.
  nn::CheckpointMeta checkpoint_meta() const override;
  void validate_checkpoint_meta(const nn::CheckpointMeta& meta,
                                const std::string& path) override;

 private:
  /// Normalized (n, 2) conditioning tensor with row i at conditions[i], or at
  /// the generation condition when `conditions` is empty; undefined for an
  /// unconditioned model.
  Tensor condition_tensor(tensor::Index n, std::span<const data::Condition> conditions) const;

  /// 0.5 * (GAN(D(pl, vl), real) + GAN(D(pl, fake.detach()), fake)).
  Tensor discriminator_loss(const Tensor& pl, const Tensor& vl, const Tensor& fake,
                            const Tensor& cond, const TrainConfig& config);
  /// GAN(D(pl, fake), real) + alpha * L1(fake, vl) + beta * KL(posterior).
  struct GeneratorLoss {
    Tensor total, l1, kl;
  };
  GeneratorLoss generator_loss(const Tensor& pl, const Tensor& vl, const Tensor& fake,
                               const ResNetEncoder::Output& dist, const Tensor& cond,
                               const TrainConfig& config);

  struct Root : nn::Module {
    flashgen::Rng init_rng;  // declared first: initializes the networks below
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
  data::Condition generation_condition_;
  Root root_;
};

}  // namespace flashgen::models
