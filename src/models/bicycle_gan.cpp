#include "models/bicycle_gan.h"

#include "common/logging.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace flashgen::models {

BicycleGanModel::BicycleGanModel(const NetworkConfig& config, std::uint64_t seed)
    : config_(config), root_(config, seed) {}

TrainStats BicycleGanModel::fit(const data::PairedDataset& dataset,
                                const TrainConfig& config, flashgen::Rng& rng) {
  pipeline::EagerSource source(dataset, config.batch_size);
  return fit_stream(source, config, rng);
}

TrainStats BicycleGanModel::fit_stream(pipeline::SampleSource& source,
                                       const TrainConfig& config, flashgen::Rng& rng) {
  root_.set_training(true);
  std::vector<Tensor> ge_params = root_.generator.parameters();
  for (const Tensor& p : root_.encoder.parameters()) ge_params.push_back(p);
  const std::vector<Tensor> d_params = root_.discriminator.parameters();
  nn::Adam opt_ge(ge_params, {.lr = config.lr});
  nn::Adam opt_d(d_params, {.lr = config.lr});
  detail::LoopContext ctx;
  ctx.root = &root_;
  ctx.optimizers = {&opt_ge, &opt_d};

  TrainStats stats;
  double g_acc = 0.0, d_acc = 0.0;
  int acc_n = 0;
  const int total_steps_planned = detail::total_steps(source, config);
  stats.steps = detail::run_training_loop(
      source, config, rng,
      [&](const Tensor& pl, const Tensor& vl, const Tensor& raw_cond, int step) {
        const float lr = detail::scheduled_lr(config.lr, step, total_steps_planned) *
                         static_cast<float>(ctx.lr_scale);
        opt_ge.set_lr(lr);
        opt_d.set_lr(lr);
        const tensor::Index n = pl.shape()[0];
        const Tensor cond = normalize_conditions(raw_cond, config_);

        // cVAE-GAN branch: posterior latent reconstructs the observed VL.
        const ResNetEncoder::Output dist = root_.encoder.forward(vl);
        const Tensor z_enc = ResNetEncoder::sample_latent(dist, rng);
        const Tensor fake_vae = root_.generator.forward(pl, z_enc, rng, cond);

        // cLR-GAN branch: prior latent, recovered from the generated VL.
        const Tensor z_rand = Tensor::randn(tensor::Shape{n, config_.z_dim}, rng);
        const Tensor fake_lr = root_.generator.forward(pl, z_rand, rng, cond);

        // --- discriminator: real vs both fakes -----------------------------
        const Tensor d_real = root_.discriminator.forward(pl, vl, cond);
        const Tensor d_fake_vae = root_.discriminator.forward(pl, fake_vae.detach(), cond);
        const Tensor d_fake_lr = root_.discriminator.forward(pl, fake_lr.detach(), cond);
        Tensor loss_d = tensor::add(
            gan_loss(d_real, true, config.lsgan),
            tensor::mul_scalar(tensor::add(gan_loss(d_fake_vae, false, config.lsgan),
                                           gan_loss(d_fake_lr, false, config.lsgan)),
                               0.5f));
        loss_d = tensor::mul_scalar(loss_d, 0.5f);
        detail::guard_loss("bicycle_gan.loss.d", loss_d.item(), config.sentinel);
        opt_d.zero_grad();
        loss_d.backward();
        if (detail::want_grad_norm(config.sentinel)) {
          detail::guard_grad_norm("bicycle_gan.d", detail::grad_norm(d_params), config.sentinel);
        }
        opt_d.step();

        // --- generator + encoder -------------------------------------------
        Tensor loss_g =
            gan_loss(root_.discriminator.forward(pl, fake_vae, cond), true, config.lsgan);
        loss_g = tensor::add(
            loss_g, gan_loss(root_.discriminator.forward(pl, fake_lr, cond), true, config.lsgan));
        loss_g = tensor::add(loss_g,
                             tensor::mul_scalar(tensor::l1_loss(fake_vae, vl), config.alpha));
        loss_g = tensor::add(loss_g, tensor::mul_scalar(
                                         tensor::kl_standard_normal(dist.mu, dist.logvar),
                                         config.beta));
        // Latent recovery: E(G(PL, z)) should reproduce z.
        const ResNetEncoder::Output recovered = root_.encoder.forward(fake_lr);
        loss_g = tensor::add(
            loss_g,
            tensor::mul_scalar(tensor::l1_loss(recovered.mu, z_rand), config.latent_weight));
        detail::guard_loss("bicycle_gan.loss.g", loss_g.item(), config.sentinel);
        opt_ge.zero_grad();
        loss_g.backward();
        if (detail::want_grad_norm(config.sentinel)) {
          detail::guard_grad_norm("bicycle_gan.ge", detail::grad_norm(ge_params),
                                  config.sentinel);
        }
        opt_ge.step();

        g_acc += loss_g.item();
        d_acc += loss_d.item();
        ++acc_n;
        if (config.log_every > 0 && (step + 1) % config.log_every == 0) {
          stats.g_loss_history.push_back(static_cast<float>(g_acc / acc_n));
          stats.d_loss_history.push_back(static_cast<float>(d_acc / acc_n));
          FG_LOG(Info) << name() << " step " << step + 1 << " G " << g_acc / acc_n << " D "
                       << d_acc / acc_n;
          g_acc = d_acc = 0.0;
          acc_n = 0;
        }
      },
      &ctx);
  if (acc_n > 0) {
    stats.g_loss_history.push_back(static_cast<float>(g_acc / acc_n));
    stats.d_loss_history.push_back(static_cast<float>(d_acc / acc_n));
  }
  return stats;
}

std::unique_ptr<ShardedStepper> BicycleGanModel::make_sharded_stepper(const TrainConfig& config) {
  class Stepper : public ShardedStepper {
   public:
    Stepper(BicycleGanModel& m, const TrainConfig& config)
        : m_(m),
          lsgan_(config.lsgan),
          alpha_(config.alpha),
          beta_(config.beta),
          latent_weight_(config.latent_weight),
          z_dim_(m.config_.z_dim) {
      m_.root_.set_training(true);
      ge_params_ = m_.root_.generator.parameters();
      for (const Tensor& p : m_.root_.encoder.parameters()) ge_params_.push_back(p);
      d_params_ = m_.root_.discriminator.parameters();
      opt_ge_ = std::make_unique<nn::Adam>(ge_params_, nn::AdamConfig{.lr = config.lr});
      opt_d_ = std::make_unique<nn::Adam>(d_params_, nn::AdamConfig{.lr = config.lr});
    }

    int num_phases() const override { return 2; }
    const std::vector<Tensor>& phase_params(int phase) const override {
      return phase == 0 ? d_params_ : ge_params_;
    }
    nn::Adam& phase_optimizer(int phase) override { return phase == 0 ? *opt_d_ : *opt_ge_; }
    const char* phase_label(int phase) const override { return phase == 0 ? "d" : "g"; }
    void set_lr(float lr) override {
      opt_ge_->set_lr(lr);
      opt_d_->set_lr(lr);
    }

    void begin_step(int slots) override { cache_.assign(static_cast<std::size_t>(slots), {}); }
    void end_step() override { cache_.clear(); }

    double run_phase(int phase, int slot, const Tensor& pl, const Tensor& vl,
                     const Tensor& raw_cond, flashgen::Rng& rng) override {
      Cache& c = cache_[static_cast<std::size_t>(slot)];
      if (phase == 0) {
        c.pl = pl;
        c.vl = vl;
        c.cond = normalize_conditions(raw_cond, m_.config_);
        c.dist = m_.root_.encoder.forward(vl);
        const Tensor z_enc = ResNetEncoder::sample_latent(c.dist, rng);
        c.fake_vae = m_.root_.generator.forward(pl, z_enc, rng, c.cond);
        c.z_rand = Tensor::randn(tensor::Shape{pl.shape()[0], z_dim_}, rng);
        c.fake_lr = m_.root_.generator.forward(pl, c.z_rand, rng, c.cond);
        const Tensor d_real = m_.root_.discriminator.forward(pl, vl, c.cond);
        const Tensor d_fake_vae =
            m_.root_.discriminator.forward(pl, c.fake_vae.detach(), c.cond);
        const Tensor d_fake_lr = m_.root_.discriminator.forward(pl, c.fake_lr.detach(), c.cond);
        Tensor loss_d = tensor::add(
            gan_loss(d_real, true, lsgan_),
            tensor::mul_scalar(tensor::add(gan_loss(d_fake_vae, false, lsgan_),
                                           gan_loss(d_fake_lr, false, lsgan_)),
                               0.5f));
        loss_d = tensor::mul_scalar(loss_d, 0.5f);
        loss_d.backward();
        return loss_d.item();
      }
      Tensor loss_g =
          gan_loss(m_.root_.discriminator.forward(c.pl, c.fake_vae, c.cond), true, lsgan_);
      loss_g = tensor::add(
          loss_g,
          gan_loss(m_.root_.discriminator.forward(c.pl, c.fake_lr, c.cond), true, lsgan_));
      loss_g = tensor::add(loss_g,
                           tensor::mul_scalar(tensor::l1_loss(c.fake_vae, c.vl), alpha_));
      loss_g = tensor::add(loss_g, tensor::mul_scalar(
                                       tensor::kl_standard_normal(c.dist.mu, c.dist.logvar),
                                       beta_));
      const ResNetEncoder::Output recovered = m_.root_.encoder.forward(c.fake_lr);
      loss_g = tensor::add(
          loss_g, tensor::mul_scalar(tensor::l1_loss(recovered.mu, c.z_rand), latent_weight_));
      loss_g.backward();
      return loss_g.item();
    }

   private:
    struct Cache {
      Tensor pl, vl, cond, fake_vae, fake_lr, z_rand;
      ResNetEncoder::Output dist;
    };
    BicycleGanModel& m_;
    bool lsgan_;
    float alpha_, beta_, latent_weight_;
    tensor::Index z_dim_;
    std::vector<Tensor> ge_params_, d_params_;
    std::unique_ptr<nn::Adam> opt_ge_, opt_d_;
    std::vector<Cache> cache_;
  };
  return std::make_unique<Stepper>(*this, config);
}

void BicycleGanModel::prepare_generation() { root_.set_training(false); }

Tensor BicycleGanModel::sample(const Tensor& pl, flashgen::Rng& rng) {
  const Tensor z = Tensor::randn(tensor::Shape{pl.shape()[0], config_.z_dim}, rng);
  return root_.generator.forward(pl, z, rng);
}

Tensor BicycleGanModel::sample_rows(const Tensor& pl, std::span<flashgen::Rng> rngs,
                                    std::span<const data::Condition> /*conditions*/) {
  const Tensor z = detail::latent_rows(pl.shape()[0], config_.z_dim, rngs);
  return root_.generator.forward_rows(pl, z, rngs);
}

}  // namespace flashgen::models
