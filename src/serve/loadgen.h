// Open-loop load generation for flashgen_serve.
//
// The closed-loop mode (flashgen_loadgen's default) sends the next request
// only after the previous response arrives, so a slow server throttles its
// own load and the measured latency hides queueing — the classic coordinated
// omission trap. The open-loop engine here instead injects requests on a
// fixed wall-clock schedule (target_rps), spread round-robin over N
// connections with pipelining, regardless of how fast responses return.
// Latency is measured from each request's *scheduled* injection time to its
// response, so server-side queue buildup shows up in the tail instead of
// silently stretching the run.
//
// One epoll thread multiplexes every connection (the same non-blocking
// framing machinery the server uses), which keeps 1k+ concurrent
// connections cheap on the client side. Request content is a pure function
// of (seed, request index), and the response checksum XORs order-independent
// per-response hashes, so two runs at the same seeds — over any transport,
// replica count, or completion order — must report the same checksum.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace flashgen::serve {

struct OpenLoopOptions {
  std::string endpoint;             // endpoint spec, see endpoint.h
  std::string model = "Gaussian";
  std::uint32_t side = 16;          // PL array is side x side
  std::uint64_t seed = 1;           // request i uses stream i
  std::uint64_t deadline_micros = 0;
  /// Tenant id stamped on every request. Open-loop mode NEVER
  /// retries typed sheds: a retry would re-couple injection to server state,
  /// reintroducing the coordinated omission the open loop exists to avoid.
  /// Sheds are counted (shed / rate_limited) and the schedule marches on.
  std::uint32_t tenant_id = 0;
  int connections = 64;
  double target_rps = 1000.0;       // injection rate across all connections
  int total_requests = 4096;        // run length
  /// Mixed workload: every Nth scheduled request (indices 0, N, 2N, ...) is
  /// a kThresholdQuery at (threshold_pe, threshold_retention) instead of a
  /// generate — the controller-like pattern of bulk reads with occasional
  /// wear-state recalibration. 0 (default) = pure generate. The server
  /// answers the first query cold (sampling waves through the fleet) and
  /// subsequent ones from its threshold cache; both land in threshold_ok.
  int threshold_every = 0;
  double threshold_pe = 4000.0;
  double threshold_retention = 0.0;
};

struct OpenLoopResult {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;            // kGenerateOk responses
  std::uint64_t threshold_ok = 0;  // kThresholdOk responses (mixed workload)
  std::uint64_t shed = 0;          // kOverloaded responses
  std::uint64_t rate_limited = 0;  // kRateLimited responses (typed, counted, never retried)
  std::uint64_t errors = 0;        // kError responses
  double elapsed_sec = 0.0;
  double achieved_rps = 0.0;  // completions / elapsed
  // Exact client-side quantiles (sorted sample, not histogram buckets),
  // measured from scheduled injection to response, successes only.
  std::uint64_t p50_us = 0;
  std::uint64_t p90_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t p999_us = 0;
  std::uint64_t max_us = 0;
  // XOR of per-response FNV-1a hashes: order-independent, so equal seeds must
  // give equal checksums across transports, replica counts, and schedules.
  // kThresholdOk payloads are hashed with the from_cache byte zeroed — the
  // report bits are cache-invariant by construction, the flag is not.
  std::uint64_t checksum = 0;
};

/// Runs one open-loop measurement against a serving endpoint. Blocks until
/// every injected request has been answered. Throws flashgen::Error if a
/// connection fails mid-run (the measurement would be meaningless).
OpenLoopResult run_open_loop(const OpenLoopOptions& options);

/// Nearest-rank quantile over an unsorted latency sample (sorts in place).
std::uint64_t exact_quantile_us(std::vector<std::uint64_t>& sample, double q);

}  // namespace flashgen::serve
