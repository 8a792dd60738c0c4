// Spatio-temporal extension: the paper's cVAE-GAN conditioned on the block's
// wear state, the (P/E cycle count, retention time) pair. One CvaeGanModel
// with condition_dims = 2 (see cvae_gan.h); this name keeps the
// scale-explicit constructor.
#pragma once

#include "models/cvae_gan.h"

namespace flashgen::models {

class TemporalCvaeGanModel : public CvaeGanModel {
 public:
  /// `pe_scale` / `retention_scale` are the condition values at which the
  /// normalized conditioning inputs saturate at 1.0.
  TemporalCvaeGanModel(const NetworkConfig& config, double pe_scale, double retention_scale,
                       std::uint64_t seed)
      : CvaeGanModel(
            [&] {
              NetworkConfig conditioned = config;
              conditioned.condition_dims = 2;
              conditioned.pe_scale = pe_scale;
              conditioned.retention_scale = retention_scale;
              return conditioned;
            }(),
            seed) {}
};

}  // namespace flashgen::models
