// flashgen_loadgen: load generator for flashgen_serve.
//
// Two modes:
//   closed loop (default) — `connections` threads, each with one blocking
//     client sending `requests` generate calls back-to-back. Simple, but a
//     slow server throttles its own load and queueing hides in the walltime.
//   open loop (--open)    — requests are injected on a fixed schedule
//     (--rps), spread round-robin over `connections` pipelined non-blocking
//     connections driven by one epoll thread; `requests` is then the total.
//     Latency is measured from each request's scheduled injection time, so
//     queue buildup shows up in p99/p999 instead of being coordinated away.
//
// Run:  ./flashgen_loadgen [flags] [endpoint] [model] [requests] [connections] [side] [seed] [deadline_us]
//   endpoint     default /tmp/flashgen_serve.sock; accepts "unix:/path",
//                a bare path, or "tcp:host:port"
//   model        default Gaussian (must match a name the server registered)
//   requests     default 256 per connection (closed) / 4096 total (open)
//   connections  default 4 (closed) / 64 (open)
//   side         default 16 (must match the served model's array size)
//   seed         default 1
//   deadline_us  default 0 (no per-request deadline)
// Flags:
//   --open             open-loop mode (see above)
//   --rps=N            open-loop injection rate across all connections,
//                      default 1000
//   --tenant=N         tenant id stamped on every request, default 0
//   --retries=N        closed loop only: total attempts per request with
//                      capped exponential backoff + jitter on kOverloaded /
//                      kRateLimited (default 1 = no retry). Deliberately
//                      unavailable in open-loop mode: retrying would
//                      re-couple injection to server state and reintroduce
//                      coordinated omission.
//   --retry-base-us=N  first backoff ceiling, default 1000
//   --retry-max-us=N   backoff cap, default 250000
//   --threshold-every=N  open loop only: mixed workload — every Nth scheduled
//                      request becomes a kThresholdQuery (wear-aware read
//                      thresholds) instead of a generate; counted separately
//                      as threshold_ok and kept out of the generate latency
//                      quantiles (default 0 = pure generate). Needs a
//                      condition-aware model (Temporal)
//   --threshold-pe=X   queried PE cycles, default 4000
//   --threshold-retention=X  queried retention hours, default 0
//
// Requests the server rejects with kOverloaded / kRateLimited are counted as
// "shed" / "rate_limited" rather than aborting the run, so the tool can probe
// overload and admission behavior directly.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/normalization.h"
#include "serve/loadgen.h"
#include "serve/metrics.h"
#include "serve/server.h"

using namespace flashgen;

int main(int argc, char** argv) {
  bool open_loop = false;
  double rps = 1000.0;
  std::uint32_t tenant = 0;
  int retries = 1;
  std::uint64_t retry_base_us = 1000;
  std::uint64_t retry_max_us = 250000;
  int threshold_every = 0;
  double threshold_pe = 4000.0;
  double threshold_retention = 0.0;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--open") {
      open_loop = true;
    } else if (arg.rfind("--rps=", 0) == 0) {
      rps = std::atof(arg.c_str() + std::strlen("--rps="));
    } else if (arg.rfind("--tenant=", 0) == 0) {
      tenant = static_cast<std::uint32_t>(std::atoll(arg.c_str() + std::strlen("--tenant=")));
    } else if (arg.rfind("--retries=", 0) == 0) {
      retries = std::atoi(arg.c_str() + std::strlen("--retries="));
    } else if (arg.rfind("--retry-base-us=", 0) == 0) {
      retry_base_us =
          static_cast<std::uint64_t>(std::atoll(arg.c_str() + std::strlen("--retry-base-us=")));
    } else if (arg.rfind("--retry-max-us=", 0) == 0) {
      retry_max_us =
          static_cast<std::uint64_t>(std::atoll(arg.c_str() + std::strlen("--retry-max-us=")));
    } else if (arg.rfind("--threshold-every=", 0) == 0) {
      threshold_every = std::atoi(arg.c_str() + std::strlen("--threshold-every="));
    } else if (arg.rfind("--threshold-pe=", 0) == 0) {
      threshold_pe = std::atof(arg.c_str() + std::strlen("--threshold-pe="));
    } else if (arg.rfind("--threshold-retention=", 0) == 0) {
      threshold_retention = std::atof(arg.c_str() + std::strlen("--threshold-retention="));
    } else {
      positional.push_back(arg);
    }
  }
  const std::string endpoint = positional.size() > 0 ? positional[0] : "/tmp/flashgen_serve.sock";
  const std::string model = positional.size() > 1 ? positional[1] : "Gaussian";
  const int requests =
      positional.size() > 2 ? std::atoi(positional[2].c_str()) : (open_loop ? 4096 : 256);
  const int connections =
      positional.size() > 3 ? std::atoi(positional[3].c_str()) : (open_loop ? 64 : 4);
  const auto side =
      static_cast<std::uint32_t>(positional.size() > 4 ? std::atoi(positional[4].c_str()) : 16);
  const auto seed =
      static_cast<std::uint64_t>(positional.size() > 5 ? std::atoll(positional[5].c_str()) : 1);
  const auto deadline_us =
      static_cast<std::uint64_t>(positional.size() > 6 ? std::atoll(positional[6].c_str()) : 0);

  if (open_loop) {
    serve::OpenLoopOptions options;
    options.endpoint = endpoint;
    options.model = model;
    options.side = side;
    options.seed = seed;
    options.deadline_micros = deadline_us;
    options.tenant_id = tenant;
    options.connections = connections;
    options.target_rps = rps;
    options.total_requests = requests;
    options.threshold_every = threshold_every;
    options.threshold_pe = threshold_pe;
    options.threshold_retention = threshold_retention;
    const serve::OpenLoopResult result = serve::run_open_loop(options);

    serve::Client stats_client(endpoint);
    const std::string server_stats = stats_client.stats();
    std::printf("{\"mode\": \"open\", \"model\": \"%s\", \"requests\": %llu, \"connections\": %d,\n",
                model.c_str(), static_cast<unsigned long long>(result.sent), connections);
    std::printf(" \"target_rps\": %.1f, \"achieved_rps\": %.1f, \"elapsed_sec\": %.3f,\n", rps,
                result.achieved_rps, result.elapsed_sec);
    std::printf(
        " \"ok\": %llu, \"threshold_ok\": %llu, \"shed\": %llu, \"rate_limited\": %llu, "
        "\"errors\": %llu, \"checksum\": %llu,\n",
        static_cast<unsigned long long>(result.ok),
        static_cast<unsigned long long>(result.threshold_ok),
        static_cast<unsigned long long>(result.shed),
        static_cast<unsigned long long>(result.rate_limited),
        static_cast<unsigned long long>(result.errors),
        static_cast<unsigned long long>(result.checksum));
    std::printf(
        " \"client_p50_us\": %llu, \"client_p90_us\": %llu, \"client_p99_us\": %llu, "
        "\"client_p999_us\": %llu, \"client_max_us\": %llu,\n",
        static_cast<unsigned long long>(result.p50_us),
        static_cast<unsigned long long>(result.p90_us),
        static_cast<unsigned long long>(result.p99_us),
        static_cast<unsigned long long>(result.p999_us),
        static_cast<unsigned long long>(result.max_us));
    std::printf(" \"server\": %s}\n", server_stats.c_str());
    return 0;
  }

  data::VoltageNormalizer normalizer;
  serve::LatencyHistogram latency;
  std::mutex latency_mutex;
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> rate_limited{0};

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client(endpoint);
      Rng rng(seed + static_cast<std::uint64_t>(c) + 1);
      serve::RetryPolicy retry;
      retry.max_attempts = retries;
      retry.base_backoff_micros = retry_base_us;
      retry.max_backoff_micros = retry_max_us;
      retry.seed = seed + static_cast<std::uint64_t>(c) + 1;  // desynchronize threads
      serve::GenerateRequest request;
      request.model = model;
      request.tenant_id = tenant;
      request.seed = seed;
      request.side = side;
      request.deadline_micros = deadline_us;
      request.program_levels.resize(static_cast<std::size_t>(side) * side);
      for (int i = 0; i < requests; ++i) {
        for (float& v : request.program_levels)
          v = normalizer.normalize_level(static_cast<int>(rng.uniform_int(8)));
        request.stream = static_cast<std::uint64_t>(c) * static_cast<std::uint64_t>(requests) +
                         static_cast<std::uint64_t>(i);
        const auto r0 = std::chrono::steady_clock::now();
        try {
          (void)client.generate_with_retry(request, retry);
        } catch (const serve::RateLimited&) {
          rate_limited.fetch_add(1);
          continue;
        } catch (const serve::Overloaded&) {
          shed.fetch_add(1);
          continue;
        }
        const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - r0);
        std::lock_guard<std::mutex> lock(latency_mutex);
        latency.record(static_cast<std::uint64_t>(micros.count()));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  serve::Client stats_client(endpoint);
  const std::string server_stats = stats_client.stats();

  const auto total = static_cast<double>(requests) * connections;
  std::printf("{\"mode\": \"closed\", \"model\": \"%s\", \"requests\": %d, \"connections\": %d, \"side\": %u,\n",
              model.c_str(), requests * connections, connections, side);
  std::printf(" \"shed\": %llu, \"rate_limited\": %llu,\n",
              static_cast<unsigned long long>(shed.load()),
              static_cast<unsigned long long>(rate_limited.load()));
  std::printf(" \"elapsed_sec\": %.3f, \"requests_per_sec\": %.1f,\n", elapsed, total / elapsed);
  std::printf(" \"client_p50_us\": %llu, \"client_p90_us\": %llu, \"client_p99_us\": %llu, \"client_p999_us\": %llu,\n",
              static_cast<unsigned long long>(latency.quantile_micros(0.50)),
              static_cast<unsigned long long>(latency.quantile_micros(0.90)),
              static_cast<unsigned long long>(latency.quantile_micros(0.99)),
              static_cast<unsigned long long>(latency.quantile_micros(0.999)));
  std::printf(" \"server\": %s}\n", server_stats.c_str());
  return 0;
}
