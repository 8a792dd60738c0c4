#include "models/cgan.h"

#include "common/logging.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace flashgen::models {

CganModel::CganModel(const NetworkConfig& config, std::uint64_t seed)
    : config_(strip_latent(config)), root_(config_, seed) {}

TrainStats CganModel::fit(const data::PairedDataset& dataset, const TrainConfig& config,
                          flashgen::Rng& rng) {
  pipeline::EagerSource source(dataset, config.batch_size);
  return fit_stream(source, config, rng);
}

TrainStats CganModel::fit_stream(pipeline::SampleSource& source, const TrainConfig& config,
                                 flashgen::Rng& rng) {
  root_.set_training(true);
  const std::vector<Tensor> g_params = root_.generator.parameters();
  const std::vector<Tensor> d_params = root_.discriminator.parameters();
  nn::Adam opt_g(g_params, {.lr = config.lr});
  nn::Adam opt_d(d_params, {.lr = config.lr});
  detail::LoopContext ctx;
  ctx.root = &root_;
  ctx.optimizers = {&opt_g, &opt_d};

  TrainStats stats;
  double g_acc = 0.0, d_acc = 0.0;
  int acc_n = 0;
  const int total_steps_planned = detail::total_steps(source, config);
  stats.steps = detail::run_training_loop(
      source, config, rng,
      [&](const Tensor& pl, const Tensor& vl, const Tensor& raw_cond, int step) {
        const float lr = detail::scheduled_lr(config.lr, step, total_steps_planned) *
                         static_cast<float>(ctx.lr_scale);
        opt_g.set_lr(lr);
        opt_d.set_lr(lr);
        const Tensor cond = normalize_conditions(raw_cond, config_);
        const Tensor fake = root_.generator.forward(pl, Tensor(), rng, cond);

        const Tensor d_real = root_.discriminator.forward(pl, vl, cond);
        const Tensor d_fake = root_.discriminator.forward(pl, fake.detach(), cond);
        Tensor loss_d = tensor::mul_scalar(
            tensor::add(gan_loss(d_real, true, config.lsgan),
                        gan_loss(d_fake, false, config.lsgan)),
            0.5f);
        detail::guard_loss("cgan.loss.d", loss_d.item(), config.sentinel);
        opt_d.zero_grad();
        loss_d.backward();
        if (detail::want_grad_norm(config.sentinel)) {
          detail::guard_grad_norm("cgan.d", detail::grad_norm(d_params), config.sentinel);
        }
        opt_d.step();

        const Tensor d_fake2 = root_.discriminator.forward(pl, fake, cond);
        Tensor loss_g = tensor::add(
            gan_loss(d_fake2, true, config.lsgan),
            tensor::mul_scalar(tensor::l1_loss(fake, vl), config.alpha));
        detail::guard_loss("cgan.loss.g", loss_g.item(), config.sentinel);
        opt_g.zero_grad();
        loss_g.backward();
        if (detail::want_grad_norm(config.sentinel)) {
          detail::guard_grad_norm("cgan.g", detail::grad_norm(g_params), config.sentinel);
        }
        opt_g.step();

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

std::unique_ptr<ShardedStepper> CganModel::make_sharded_stepper(const TrainConfig& config) {
  class Stepper : public ShardedStepper {
   public:
    Stepper(CganModel& m, const TrainConfig& config)
        : m_(m), lsgan_(config.lsgan), alpha_(config.alpha) {
      m_.root_.set_training(true);
      g_params_ = m_.root_.generator.parameters();
      d_params_ = m_.root_.discriminator.parameters();
      opt_g_ = std::make_unique<nn::Adam>(g_params_, nn::AdamConfig{.lr = config.lr});
      opt_d_ = std::make_unique<nn::Adam>(d_params_, nn::AdamConfig{.lr = config.lr});
    }

    int num_phases() const override { return 2; }
    const std::vector<Tensor>& phase_params(int phase) const override {
      return phase == 0 ? d_params_ : g_params_;
    }
    nn::Adam& phase_optimizer(int phase) override { return phase == 0 ? *opt_d_ : *opt_g_; }
    const char* phase_label(int phase) const override { return phase == 0 ? "d" : "g"; }
    void set_lr(float lr) override {
      opt_g_->set_lr(lr);
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
        c.fake = m_.root_.generator.forward(pl, Tensor(), rng, c.cond);
        const Tensor d_real = m_.root_.discriminator.forward(pl, vl, c.cond);
        const Tensor d_fake = m_.root_.discriminator.forward(pl, c.fake.detach(), c.cond);
        Tensor loss_d = tensor::mul_scalar(tensor::add(gan_loss(d_real, true, lsgan_),
                                                       gan_loss(d_fake, false, lsgan_)),
                                           0.5f);
        loss_d.backward();
        return loss_d.item();
      }
      const Tensor d_fake2 = m_.root_.discriminator.forward(c.pl, c.fake, c.cond);
      Tensor loss_g =
          tensor::add(gan_loss(d_fake2, true, lsgan_),
                      tensor::mul_scalar(tensor::l1_loss(c.fake, c.vl), alpha_));
      loss_g.backward();
      return loss_g.item();
    }

   private:
    struct Cache {
      Tensor pl, vl, cond, fake;
    };
    CganModel& m_;
    bool lsgan_;
    float alpha_;
    std::vector<Tensor> g_params_, d_params_;
    std::unique_ptr<nn::Adam> opt_g_, opt_d_;
    std::vector<Cache> cache_;
  };
  return std::make_unique<Stepper>(*this, config);
}

void CganModel::prepare_generation() {
  // pix2pix keeps dropout active at test time as the only noise source.
  root_.set_training(true);
}

Tensor CganModel::sample(const Tensor& pl, flashgen::Rng& rng) {
  return root_.generator.forward(pl, Tensor(), rng);
}

Tensor CganModel::sample_rows(const Tensor& pl, std::span<flashgen::Rng> rngs,
                              std::span<const data::Condition> /*conditions*/) {
  return root_.generator.forward_rows(pl, Tensor(), rngs);
}

}  // namespace flashgen::models
