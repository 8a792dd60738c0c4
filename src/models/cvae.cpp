#include "models/cvae.h"

#include "common/logging.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace flashgen::models {

CvaeModel::CvaeModel(const NetworkConfig& config, std::uint64_t seed)
    : config_(config), root_(config, seed) {}

TrainStats CvaeModel::fit(const data::PairedDataset& dataset, const TrainConfig& config,
                          flashgen::Rng& rng) {
  pipeline::EagerSource source(dataset, config.batch_size);
  return fit_stream(source, config, rng);
}

TrainStats CvaeModel::fit_stream(pipeline::SampleSource& source, const TrainConfig& config,
                                 flashgen::Rng& rng) {
  root_.set_training(true);
  std::vector<Tensor> params = root_.generator.parameters();
  for (const Tensor& p : root_.encoder.parameters()) params.push_back(p);
  nn::Adam opt(params, {.lr = config.lr});
  detail::LoopContext ctx;
  ctx.root = &root_;
  ctx.optimizers = {&opt};

  TrainStats stats;
  double acc = 0.0;
  int acc_n = 0;
  const int total_steps_planned = detail::total_steps(source, config);
  stats.steps = detail::run_training_loop(
      source, config, rng,
      [&](const Tensor& pl, const Tensor& vl, const Tensor& raw_cond, int step) {
        const float lr = detail::scheduled_lr(config.lr, step, total_steps_planned) *
                         static_cast<float>(ctx.lr_scale);
        opt.set_lr(lr);
        const Tensor cond = normalize_conditions(raw_cond, config_);
        const ResNetEncoder::Output dist = root_.encoder.forward(vl);
        const Tensor z = ResNetEncoder::sample_latent(dist, rng);
        const Tensor fake = root_.generator.forward(pl, z, rng, cond);
        Tensor loss = tensor::add(
            tensor::mul_scalar(tensor::l1_loss(fake, vl), config.alpha),
            tensor::mul_scalar(tensor::kl_standard_normal(dist.mu, dist.logvar), config.beta));
        detail::guard_loss("cvae.loss", loss.item(), config.sentinel);
        opt.zero_grad();
        loss.backward();
        if (detail::want_grad_norm(config.sentinel)) {
          detail::guard_grad_norm("cvae", detail::grad_norm(params), config.sentinel);
        }
        opt.step();

        acc += loss.item();
        ++acc_n;
        if (config.log_every > 0 && (step + 1) % config.log_every == 0) {
          stats.g_loss_history.push_back(static_cast<float>(acc / acc_n));
          FG_LOG(Info) << name() << " step " << step + 1 << " loss " << acc / acc_n;
          acc = 0.0;
          acc_n = 0;
        }
      },
      &ctx);
  if (acc_n > 0) stats.g_loss_history.push_back(static_cast<float>(acc / acc_n));
  return stats;
}

std::unique_ptr<ShardedStepper> CvaeModel::make_sharded_stepper(const TrainConfig& config) {
  class Stepper : public ShardedStepper {
   public:
    Stepper(CvaeModel& m, const TrainConfig& config)
        : m_(m), alpha_(config.alpha), beta_(config.beta) {
      m_.root_.set_training(true);
      params_ = m_.root_.generator.parameters();
      for (const Tensor& p : m_.root_.encoder.parameters()) params_.push_back(p);
      opt_ = std::make_unique<nn::Adam>(params_, nn::AdamConfig{.lr = config.lr});
    }

    int num_phases() const override { return 1; }
    const std::vector<Tensor>& phase_params(int) const override { return params_; }
    nn::Adam& phase_optimizer(int) override { return *opt_; }
    const char* phase_label(int) const override { return "loss"; }
    void set_lr(float lr) override { opt_->set_lr(lr); }

    void begin_step(int) override {}
    void end_step() override {}

    double run_phase(int, int, const Tensor& pl, const Tensor& vl, const Tensor& raw_cond,
                     flashgen::Rng& rng) override {
      const Tensor cond = normalize_conditions(raw_cond, m_.config_);
      const ResNetEncoder::Output dist = m_.root_.encoder.forward(vl);
      const Tensor z = ResNetEncoder::sample_latent(dist, rng);
      const Tensor fake = m_.root_.generator.forward(pl, z, rng, cond);
      Tensor loss = tensor::add(
          tensor::mul_scalar(tensor::l1_loss(fake, vl), alpha_),
          tensor::mul_scalar(tensor::kl_standard_normal(dist.mu, dist.logvar), beta_));
      loss.backward();
      return loss.item();
    }

   private:
    CvaeModel& m_;
    float alpha_, beta_;
    std::vector<Tensor> params_;
    std::unique_ptr<nn::Adam> opt_;
  };
  return std::make_unique<Stepper>(*this, config);
}

void CvaeModel::prepare_generation() { root_.set_training(false); }

Tensor CvaeModel::sample(const Tensor& pl, flashgen::Rng& rng) {
  const Tensor z = Tensor::randn(tensor::Shape{pl.shape()[0], config_.z_dim}, rng);
  return root_.generator.forward(pl, z, rng);
}

Tensor CvaeModel::sample_rows(const Tensor& pl, std::span<flashgen::Rng> rngs,
                              std::span<const data::Condition> /*conditions*/) {
  const Tensor z = detail::latent_rows(pl.shape()[0], config_.z_dim, rngs);
  return root_.generator.forward_rows(pl, z, rngs);
}

}  // namespace flashgen::models
