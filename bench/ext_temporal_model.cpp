// Extension bench (paper Section V / the paper's title): spatio-temporal
// modeling P(VL | PL, PE). Trains one PE-conditioned cVAE-GAN across three
// wear conditions and compares it, per evaluation condition, against the
// fixed-PE cVAE-GAN trained only at 4000 cycles:
//   * at 4000 the two should tie,
//   * away from 4000 the conditioned model should hold its accuracy while
//     the fixed model degrades (the gap the paper's future work targets).
#include <filesystem>

#include "bench_common.h"

int main() {
  using namespace flashgen;
  bench::print_header("Extension — PE-conditioned spatio-temporal cVAE-GAN");

  core::ExperimentConfig config = bench::bench_config();
  const std::vector<double> train_conditions = {1000.0, 4000.0, 8000.0};
  const double pe_scale = 10000.0;

  // Fixed-PE baseline from the shared cache (trains if missing).
  core::Experiment experiment(config);
  auto fixed = experiment.train_or_load(core::ModelKind::CvaeGan);

  // PE-conditioned model over the multi-condition dataset (same total number
  // of training arrays as the baseline: num_arrays is split per condition).
  data::DatasetConfig multi_config = config.dataset;
  multi_config.num_arrays = config.dataset.num_arrays / static_cast<int>(train_conditions.size());
  Rng data_rng(config.seed ^ 0x7E47u);
  const data::PairedDataset multi =
      data::PairedDataset::generate_multi(multi_config, train_conditions, data_rng);

  models::TemporalCvaeGanModel temporal(config.network, pe_scale, /*retention_scale=*/1000.0,
                                        config.seed ^ 0xF1A5Bu);
  const std::string ckpt = "flashgen_cache/temporal-cvae-gan.ckpt";
  Rng train_rng(config.seed + 41);
  if (std::filesystem::exists(ckpt)) {
    FG_LOG(Info) << "loading cached temporal checkpoint " << ckpt;
    temporal.load(ckpt);
  } else {
    models::TrainConfig train = experiment.train_config(core::ModelKind::CvaeGan);
    temporal.fit(multi, train, train_rng);
    std::filesystem::create_directories("flashgen_cache");
    temporal.save(ckpt);
  }

  std::printf("%-10s %22s %24s\n", "eval PE", "fixed cVAE-GAN@4000 TV", "PE-conditioned TV");
  bench::JsonArray rows;
  for (const double pe : {1000.0, 2000.0, 4000.0, 8000.0, 12000.0}) {
    data::DatasetConfig eval_config = config.dataset;
    eval_config.num_arrays = config.eval_arrays;
    eval_config.pe_cycles = pe;
    Rng rng(1234 + static_cast<std::uint64_t>(pe));
    const data::PairedDataset measured = data::PairedDataset::generate(eval_config, rng);

    eval::ConditionalHistograms measured_hists(config.histogram);
    eval::ConditionalHistograms fixed_hists(config.histogram);
    eval::ConditionalHistograms temporal_hists(config.histogram);
    Rng gen_rng(99);
    temporal.set_generation_condition({pe, 0.0});
    for (std::size_t i = 0; i < measured.size(); ++i) {
      const auto& pl_grid = measured.program_levels()[i];
      measured_hists.add_grids(pl_grid, measured.voltages()[i]);
      const tensor::Tensor pl = measured.levels_to_tensor(pl_grid);
      fixed_hists.add_grids(pl_grid,
                            measured.tensor_to_voltages(fixed->generate(pl, gen_rng)));
      temporal_hists.add_grids(pl_grid,
                               measured.tensor_to_voltages(temporal.generate(pl, gen_rng)));
    }
    const double tv_fixed = eval::tv_distance(measured_hists.overall(), fixed_hists.overall());
    const double tv_temporal =
        eval::tv_distance(measured_hists.overall(), temporal_hists.overall());
    std::printf("%-10.0f %22.4f %24.4f\n", pe, tv_fixed, tv_temporal);
    bench::JsonFields row;
    row.add("pe_cycles", pe).add("tv_fixed_model", tv_fixed).add("tv_pe_conditioned", tv_temporal);
    rows.push(row);
  }
  std::printf("\nExpectation: roughly equal at PE 4000; the conditioned model stays\n");
  std::printf("flat across conditions while the fixed model's TV grows off-condition.\n");

  bench::JsonFields config_fields = bench::experiment_config_fields(config);
  bench::JsonArray conditions;
  for (const double pe : train_conditions) conditions.push_raw(format("%.0f", pe));
  config_fields.add_raw("train_pe_conditions", conditions.render());
  bench::JsonFields metrics;
  metrics.add_raw("sweep", rows.render());
  bench::write_bench_report("ext_temporal_model", config_fields, metrics);
  return 0;
}
