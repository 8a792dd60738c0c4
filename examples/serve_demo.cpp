// In-process tour of the serving runtime: train a Gaussian channel model,
// register it, stand up the unix-socket server, and round-trip requests
// through the batcher exactly as flashgen_serve + flashgen_loadgen would,
// all in one binary.
//
// Run:  ./serve_demo
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/flashgen.h"
#include "serve/server.h"

using namespace flashgen;

int main() {
  // A small measured channel and the closed-form Gaussian baseline model:
  // fits in milliseconds, which keeps the demo about the serving machinery.
  data::DatasetConfig data_config;
  data_config.array_size = 16;
  data_config.num_arrays = 128;
  flashgen::Rng rng(1);
  auto dataset = data::PairedDataset::generate(data_config, rng);

  auto model = core::make_model(core::ModelKind::Gaussian, models::NetworkConfig{}, 0);
  models::TrainConfig train;
  model->fit(dataset, train, rng);
  std::printf("fitted %s on %zu arrays\n", model->name().c_str(), dataset.size());

  serve::ModelRegistry registry;
  registry.add("Gaussian", std::move(model), tensor::Shape({1, 16, 16}));

  const std::string socket_path =
      (std::filesystem::temp_directory_path() / "flashgen_serve_demo.sock").string();
  serve::ServerOptions options;
  options.endpoint = socket_path;
  options.policy.max_batch_size = 8;
  serve::Server server(registry, options);
  server.start();
  std::printf("serving on %s (batch<=%zu, hold=%lluus)\n", socket_path.c_str(),
              options.policy.max_batch_size,
              static_cast<unsigned long long>(options.policy.max_wait_micros));

  // Four concurrent clients, each asking for voltages of the same PL array
  // under its own RNG stream — like four simulator shards sampling the
  // channel in parallel.
  const std::vector<std::size_t> indices = {0};
  auto [pl, vl] = dataset.batch(indices);
  serve::GenerateRequest request;
  request.model = "Gaussian";
  request.seed = 2023;
  request.side = 16;
  request.program_levels.assign(pl.data().begin(), pl.data().end());

  std::vector<std::thread> clients;
  for (std::uint64_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      // One reconnect-and-retry per request so the demo survives injected
      // connection faults (FLASHGEN_FAULTS=socket_reset:...).
      for (std::uint64_t i = 0; i < 8; ++i) {
        serve::GenerateRequest r = request;
        r.stream = c * 8 + i;
        for (int attempt = 0;; ++attempt) {
          try {
            serve::Client client(socket_path);
            const serve::GenerateResponse response = client.generate(r);
            if (c == 0 && i == 0) {
              std::printf("first reply: %ux%u voltages, corner value %.4f\n", response.side,
                          response.side, response.voltages[0]);
            }
            break;
          } catch (const flashgen::Error& e) {
            if (attempt >= 16) {
              std::fprintf(stderr, "client %llu giving up: %s\n",
                           static_cast<unsigned long long>(c), e.what());
              break;
            }
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  for (int attempt = 0;; ++attempt) {
    try {
      serve::Client stats(socket_path);
      std::printf("server metrics: %s\n", stats.stats().c_str());
      break;
    } catch (const flashgen::Error&) {
      if (attempt >= 16) break;
    }
  }
  server.stop();
  std::printf("done\n");
  return 0;
}
