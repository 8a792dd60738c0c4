#include "models/cvae_gan.h"

#include "common/logging.h"
#include "common/trace.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace flashgen::models {
namespace {
// Checkpoint metadata keys stamping the conditioning contract. Version 2 is
// the (PE, retention) pair scheme; version 1 (PE only) was never written with
// metadata, so legacy files surface as an empty map.
constexpr const char* kMetaCondVersion = "cond_version";
constexpr const char* kMetaPeScale = "pe_scale";
constexpr const char* kMetaRetentionScale = "retention_scale";
constexpr double kCondVersion = 2.0;

const NetworkConfig& checked(const NetworkConfig& config) {
  FG_CHECK(config.condition_dims == 0 || config.condition_dims == 2,
           "cVAE-GAN takes condition_dims 0 or 2 (PE, retention), got "
               << config.condition_dims);
  if (config.condition_dims == 2) {
    FG_CHECK(config.pe_scale > 0.0, "pe_scale must be positive");
    FG_CHECK(config.retention_scale > 0.0, "retention_scale must be positive");
  }
  return config;
}
}  // namespace

CvaeGanModel::CvaeGanModel(const NetworkConfig& config, std::uint64_t seed)
    : config_(checked(config)),
      generation_condition_{.pe_cycles = config.pe_scale / 2.0, .retention_hours = 0.0},
      root_(config_, seed) {}

TrainStats CvaeGanModel::fit(const data::PairedDataset& dataset, const TrainConfig& config,
                             flashgen::Rng& rng) {
  pipeline::EagerSource source(dataset, config.batch_size);
  return fit_stream(source, config, rng);
}

Tensor CvaeGanModel::discriminator_loss(const Tensor& pl, const Tensor& vl, const Tensor& fake,
                                        const Tensor& cond, const TrainConfig& config) {
  const Tensor d_real = root_.discriminator.forward(pl, vl, cond);
  const Tensor d_fake = root_.discriminator.forward(pl, fake.detach(), cond);
  return tensor::mul_scalar(tensor::add(gan_loss(d_real, true, config.lsgan),
                                        gan_loss(d_fake, false, config.lsgan)),
                            0.5f);
}

CvaeGanModel::GeneratorLoss CvaeGanModel::generator_loss(const Tensor& pl, const Tensor& vl,
                                                         const Tensor& fake,
                                                         const ResNetEncoder::Output& dist,
                                                         const Tensor& cond,
                                                         const TrainConfig& config) {
  const Tensor d_fake = root_.discriminator.forward(pl, fake, cond);
  GeneratorLoss loss;
  loss.l1 = tensor::l1_loss(fake, vl);
  loss.kl = tensor::kl_standard_normal(dist.mu, dist.logvar);
  loss.total = gan_loss(d_fake, true, config.lsgan);
  loss.total = tensor::add(loss.total, tensor::mul_scalar(loss.l1, config.alpha));
  loss.total = tensor::add(loss.total, tensor::mul_scalar(loss.kl, config.beta));
  return loss;
}

TrainStats CvaeGanModel::fit_stream(pipeline::SampleSource& source, const TrainConfig& config,
                                    flashgen::Rng& rng) {
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
        const Tensor cond = normalize_conditions(raw_cond, config_);
        // Posterior latent from the real voltages (VAE branch).
        const ResNetEncoder::Output dist = [&] {
          FG_TRACE_SPAN("cvae_gan.encoder", "model");
          return root_.encoder.forward(vl);
        }();
        const Tensor z = ResNetEncoder::sample_latent(dist, rng);
        const Tensor fake = [&] {
          FG_TRACE_SPAN("cvae_gan.generator", "model");
          return root_.generator.forward(pl, z, rng, cond);
        }();

        // --- discriminator step -------------------------------------------
        Tensor loss_d;
        {
          FG_TRACE_SPAN("cvae_gan.d_step", "model");
          loss_d = discriminator_loss(pl, vl, fake, cond, config);
          detail::guard_loss("cvae_gan.loss.d", loss_d.item(), config.sentinel);
          opt_d.zero_grad();
          loss_d.backward();
          if (detail::want_grad_norm(config.sentinel)) {
            const double norm = detail::grad_norm(d_params);
            if (trace::enabled()) trace::counter("cvae_gan.grad_norm.d", norm);
            detail::guard_grad_norm("cvae_gan.d", norm, config.sentinel);
          }
          opt_d.step();
        }

        // --- generator + encoder step --------------------------------------
        Tensor loss_g;
        {
          FG_TRACE_SPAN("cvae_gan.g_step", "model");
          const GeneratorLoss g = generator_loss(pl, vl, fake, dist, cond, config);
          loss_g = g.total;
          detail::guard_loss("cvae_gan.loss.g", loss_g.item(), config.sentinel);
          opt_ge.zero_grad();
          loss_g.backward();
          if (trace::enabled()) {
            trace::counter("cvae_gan.loss.l1", g.l1.item());
            trace::counter("cvae_gan.loss.kl", g.kl.item());
          }
          if (detail::want_grad_norm(config.sentinel)) {
            const double norm = detail::grad_norm(ge_params);
            if (trace::enabled()) trace::counter("cvae_gan.grad_norm.ge", norm);
            detail::guard_grad_norm("cvae_gan.ge", norm, config.sentinel);
          }
          opt_ge.step();
        }

        const double gl = loss_g.item();
        const double dl = loss_d.item();
        trace::counter("cvae_gan.loss.g", gl);
        trace::counter("cvae_gan.loss.d", dl);
        g_acc += gl;
        d_acc += dl;
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

std::unique_ptr<ShardedStepper> CvaeGanModel::make_sharded_stepper(const TrainConfig& config) {
  // Local class: keeps access to CvaeGanModel's private Root while staying
  // out of the public header.
  class Stepper : public ShardedStepper {
   public:
    Stepper(CvaeGanModel& m, const TrainConfig& config) : m_(m), config_(config) {
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
        FG_TRACE_SPAN("cvae_gan.d_step", "model");
        c.pl = pl;
        c.vl = vl;
        c.cond = normalize_conditions(raw_cond, m_.config_);
        c.dist = m_.root_.encoder.forward(vl);
        const Tensor z = ResNetEncoder::sample_latent(c.dist, rng);
        c.fake = m_.root_.generator.forward(pl, z, rng, c.cond);
        Tensor loss_d = m_.discriminator_loss(pl, vl, c.fake, c.cond, config_);
        loss_d.backward();
        return loss_d.item();
      }
      FG_TRACE_SPAN("cvae_gan.g_step", "model");
      Tensor loss_g = m_.generator_loss(c.pl, c.vl, c.fake, c.dist, c.cond, config_).total;
      loss_g.backward();
      return loss_g.item();
    }

   private:
    struct Cache {
      Tensor pl, vl, cond, fake;
      ResNetEncoder::Output dist;
    };
    CvaeGanModel& m_;
    TrainConfig config_;
    std::vector<Tensor> ge_params_, d_params_;
    std::unique_ptr<nn::Adam> opt_ge_, opt_d_;
    std::vector<Cache> cache_;
  };
  return std::make_unique<Stepper>(*this, config);
}

void CvaeGanModel::prepare_generation() {
  // Batch-statistics normalization at generation time (as in pix2pix /
  // BicycleGAN test mode): with the paper's batch size of 2, running stats
  // are too noisy to reproduce the training-time activation distributions.
  root_.set_training(true);
}

void CvaeGanModel::set_generation_condition(const data::Condition& condition) {
  FG_CHECK(condition_aware(), name() << " is unconditioned; it has no generation condition");
  generation_condition_ = condition;
}

Tensor CvaeGanModel::condition_tensor(tensor::Index n,
                                      std::span<const data::Condition> conditions) const {
  if (!condition_aware()) return Tensor();
  FG_CHECK(conditions.empty() || static_cast<tensor::Index>(conditions.size()) == n,
           name() << ": " << conditions.size() << " conditions for " << n << " rows");
  Tensor raw = Tensor::zeros(tensor::Shape{n, 2});
  auto data = raw.data();
  for (tensor::Index b = 0; b < n; ++b) {
    const data::Condition& c =
        conditions.empty() ? generation_condition_ : conditions[static_cast<std::size_t>(b)];
    data[2 * b] = static_cast<float>(c.pe_cycles);
    data[2 * b + 1] = static_cast<float>(c.retention_hours);
  }
  return normalize_conditions(raw, config_);
}

Tensor CvaeGanModel::sample(const Tensor& pl, flashgen::Rng& rng) {
  const tensor::Index n = pl.shape()[0];
  const Tensor z = Tensor::randn(tensor::Shape{n, config_.z_dim}, rng);
  return root_.generator.forward(pl, z, rng, condition_tensor(n, {}));
}

Tensor CvaeGanModel::sample_rows(const Tensor& pl, std::span<flashgen::Rng> rngs,
                                 std::span<const data::Condition> conditions) {
  const tensor::Index n = pl.shape()[0];
  const Tensor z = detail::latent_rows(n, config_.z_dim, rngs);
  return root_.generator.forward_rows(pl, z, rngs, condition_tensor(n, conditions));
}

nn::CheckpointMeta CvaeGanModel::checkpoint_meta() const {
  if (!condition_aware()) return {};
  return {{kMetaCondVersion, kCondVersion},
          {kMetaPeScale, config_.pe_scale},
          {kMetaRetentionScale, config_.retention_scale}};
}

void CvaeGanModel::validate_checkpoint_meta(const nn::CheckpointMeta& meta,
                                            const std::string& path) {
  const auto version = meta.find(kMetaCondVersion);
  if (!condition_aware()) {
    if (version != meta.end()) {
      throw nn::CheckpointVersionError(
          "checkpoint " + path +
          " holds a (PE, retention)-conditioned cVAE-GAN; load it into a model with "
          "condition_dims = 2");
    }
    return;
  }
  if (version == meta.end()) {
    throw nn::CheckpointVersionError(
        "checkpoint " + path +
        " predates (PE, retention) conditioning (cond_version 2); retrain or keep "
        "loading it with the PE-only model generation that wrote it");
  }
  if (version->second != kCondVersion) {
    throw nn::CheckpointVersionError("checkpoint " + path + " has cond_version " +
                                     std::to_string(version->second) + " but this model needs " +
                                     std::to_string(kCondVersion));
  }
  for (const char* key : {kMetaPeScale, kMetaRetentionScale}) {
    const auto it = meta.find(key);
    const double want = key == kMetaPeScale ? config_.pe_scale : config_.retention_scale;
    if (it == meta.end() || it->second != want) {
      throw nn::CheckpointVersionError(
          "checkpoint " + path + " was trained with " + key + " " +
          (it == meta.end() ? std::string("<missing>") : std::to_string(it->second)) +
          " but this model uses " + std::to_string(want) +
          "; conditions would be normalized differently");
    }
  }
}

}  // namespace flashgen::models
