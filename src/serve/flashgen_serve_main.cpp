// flashgen_serve: batched inference server for trained channel models.
//
// Trains (or loads from the checkpoint cache) the requested models under the
// small experiment configuration, registers them in a ModelRegistry, and
// serves the length-prefixed binary protocol — on a unix socket or TCP —
// until stdin closes, a line is entered, or SIGTERM/SIGINT arrives. Shutdown
// is always a graceful drain: the admission queues close (new requests are
// answered kOverloaded, health probes kDraining), in-flight requests complete
// and their responses flush, then the final metrics JSON is printed.
//
// Run:  ./flashgen_serve [flags] [endpoint] [models_csv] [max_batch] [max_wait_us]
//   endpoint     default /tmp/flashgen_serve.sock; accepts "unix:/path", a
//                bare path, or "tcp:host:port" ("tcp:127.0.0.1:0" picks a
//                free port and prints it)
//   models_csv   default "Gaussian"; any of cVAE-GAN,Bicycle-GAN,cGAN,cVAE,
//                Gaussian,Temporal (case-insensitive, matched without '-').
//                Temporal is the (PE, retention)-conditioned model: it trains
//                on a small multi-condition grid and additionally answers
//                kThresholdQuery (wear-aware read-threshold optimization)
//   max_batch    default 8
//   max_wait_us  opt-in batch hold; default 0 (a free replica runs whatever
//                is queued at once)
// Flags:
//   --tcp               shorthand for the endpoint "tcp:127.0.0.1:7070"
//                       (overridden by an explicit endpoint positional)
//   --replicas=N        replica engines per model behind the least-loaded
//                       dispatcher, each with its own batcher + executor
//                       thread (default 1); responses are bit-identical for
//                       any replica count
//   --backlog=N         listen() backlog (default SOMAXCONN)
//   --resume            resume interrupted training from its snapshot, and
//                       write snapshots while training (see --snapshot-every)
//   --snapshot-every=N  training snapshot period in optimizer steps
//                       (default 64 when --resume is given, else disabled)
//   --max-queue=N       admission queue bound per replica; beyond it requests
//                       are rejected with kOverloaded (default 128, 0 = off)
//   --tenant-rate=R     per-tenant token-bucket admission rate, requests/sec;
//                       over-rate tenants are shed with kRateLimited carrying
//                       retry_after_micros (default 0 = unlimited)
//   --tenant-burst=B    token-bucket capacity per tenant (default: max(R, 1))
//   --idle-timeout-ms=N evict connections with no protocol progress for N ms
//                       (slow-loris defense; default 0 = off)
//   --wedge-timeout-ms=N supervisor quarantines + restarts a replica whose
//                       oldest request is older than N ms (default 2000,
//                       0 = off)
//   --max-pipelined=N   in-flight pipelined requests allowed per connection
//                       (default 4096)
//   --max-conn-bytes=N  buffered bytes allowed per connection, either
//                       direction (default 2x max frame size)
//
// Pair with ./flashgen_loadgen to drive traffic and read back metrics.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/flashgen.h"
#include "serve/server.h"

using namespace flashgen;

namespace {

std::string canon(std::string s) {
  std::string out;
  for (char c : s)
    if (c != '-') out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  return out;
}

core::ModelKind parse_kind(const std::string& name) {
  for (core::ModelKind kind :
       {core::ModelKind::CvaeGan, core::ModelKind::BicycleGan, core::ModelKind::Cgan,
        core::ModelKind::Cvae, core::ModelKind::Gaussian, core::ModelKind::Temporal}) {
    if (canon(core::to_string(kind)) == canon(name)) return kind;
  }
  std::fprintf(stderr, "unknown model: %s\n", name.c_str());
  std::exit(1);
}

// Self-pipe: the signal handler only writes one byte, the main thread polls
// the read end alongside stdin, so shutdown logic runs in normal context.
int g_signal_pipe[2] = {-1, -1};
volatile std::sig_atomic_t g_signal_seen = 0;

void on_signal(int signum) {
  g_signal_seen = signum;
  const char byte = 1;
  // The return value is irrelevant: if the pipe is full a byte is already
  // pending and the poll below will wake regardless.
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  bool resume = false;
  bool tcp = false;
  int snapshot_every = -1;  // -1 = unset
  int replicas = 1;
  int backlog = -1;  // -1 = SOMAXCONN
  std::size_t max_queue = 128;
  double tenant_rate = 0.0;
  double tenant_burst = 0.0;
  std::uint64_t idle_timeout_ms = 0;
  std::uint64_t wedge_timeout_ms = 2000;
  std::size_t max_pipelined = 4096;
  std::size_t max_conn_bytes = 0;  // 0 = keep ServerOptions default
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--resume") {
      resume = true;
    } else if (arg == "--tcp") {
      tcp = true;
    } else if (arg.rfind("--replicas=", 0) == 0) {
      replicas = std::max(1, std::atoi(arg.c_str() + std::strlen("--replicas=")));
    } else if (arg.rfind("--backlog=", 0) == 0) {
      backlog = std::atoi(arg.c_str() + std::strlen("--backlog="));
    } else if (arg.rfind("--snapshot-every=", 0) == 0) {
      snapshot_every = std::atoi(arg.c_str() + std::strlen("--snapshot-every="));
    } else if (arg.rfind("--max-queue=", 0) == 0) {
      max_queue = static_cast<std::size_t>(std::atoll(arg.c_str() + std::strlen("--max-queue=")));
    } else if (arg.rfind("--tenant-rate=", 0) == 0) {
      tenant_rate = std::atof(arg.c_str() + std::strlen("--tenant-rate="));
    } else if (arg.rfind("--tenant-burst=", 0) == 0) {
      tenant_burst = std::atof(arg.c_str() + std::strlen("--tenant-burst="));
    } else if (arg.rfind("--idle-timeout-ms=", 0) == 0) {
      idle_timeout_ms =
          static_cast<std::uint64_t>(std::atoll(arg.c_str() + std::strlen("--idle-timeout-ms=")));
    } else if (arg.rfind("--wedge-timeout-ms=", 0) == 0) {
      wedge_timeout_ms =
          static_cast<std::uint64_t>(std::atoll(arg.c_str() + std::strlen("--wedge-timeout-ms=")));
    } else if (arg.rfind("--max-pipelined=", 0) == 0) {
      max_pipelined =
          static_cast<std::size_t>(std::atoll(arg.c_str() + std::strlen("--max-pipelined=")));
    } else if (arg.rfind("--max-conn-bytes=", 0) == 0) {
      max_conn_bytes =
          static_cast<std::size_t>(std::atoll(arg.c_str() + std::strlen("--max-conn-bytes=")));
    } else {
      positional.push_back(arg);
    }
  }
  const std::string endpoint_spec = positional.size() > 0 ? positional[0]
                                    : tcp                 ? "tcp:127.0.0.1:7070"
                                                          : "/tmp/flashgen_serve.sock";
  const std::string models_csv = positional.size() > 1 ? positional[1] : "Gaussian";
  serve::BatchPolicy policy;
  if (positional.size() > 2) policy.max_batch_size = static_cast<std::size_t>(std::atoi(positional[2].c_str()));
  if (positional.size() > 3) policy.max_wait_micros = static_cast<std::uint64_t>(std::atoll(positional[3].c_str()));
  policy.max_queue_depth = max_queue;

  // The temporal model needs a multi-condition train split to learn its
  // (PE, retention) conditioning; the canonical grid keeps its checkpoint
  // shared with the threshold CLI and benches.
  bool wants_temporal = false;
  {
    std::istringstream scan(models_csv);
    for (std::string token; std::getline(scan, token, ',');) {
      wants_temporal |= parse_kind(token) == core::ModelKind::Temporal;
    }
  }
  core::ExperimentConfig config =
      wants_temporal ? core::small_temporal_experiment_config() : core::small_experiment_config();
  if (snapshot_every < 0) snapshot_every = resume ? 64 : 0;
  config.snapshot_every = snapshot_every;
  config.resume_training = resume;
  core::Experiment experiment(config);
  const auto s = static_cast<tensor::Index>(config.network.array_size);

  serve::ModelRegistry registry;
  std::istringstream split(models_csv);
  for (std::string token; std::getline(split, token, ',');) {
    const core::ModelKind kind = parse_kind(token);
    std::printf("loading %s ...\n", core::to_string(kind).c_str());
    registry.add(core::to_string(kind), experiment.train_or_load(kind),
                 tensor::Shape({1, s, s}), policy.max_batch_size);
    // train_or_load is deterministic, so every replica carries identical
    // weights; each gets its own engine + executor thread.
    for (int r = 1; r < replicas; ++r) {
      registry.add_replica(core::to_string(kind), experiment.train_or_load(kind),
                           policy.max_batch_size);
    }
  }

  serve::ServerOptions options;
  options.endpoint = endpoint_spec;
  options.backlog = backlog;
  options.policy = policy;
  options.tenant.rate_per_sec = tenant_rate;
  options.tenant.burst = tenant_burst;
  options.idle_timeout_micros = idle_timeout_ms * 1000;
  options.supervisor.wedge_timeout_micros = wedge_timeout_ms * 1000;
  options.max_pipelined_requests = max_pipelined;
  if (max_conn_bytes > 0) options.max_conn_buffered_bytes = max_conn_bytes;
  serve::Server server(registry, options);
  server.start();
  std::printf(
      "serving %zu model(s) x%d replica(s) on %s (batch<=%zu, hold=%lluus, queue<=%zu); enter or "
      "SIGTERM to drain\n",
      registry.size(), replicas, server.endpoint().c_str(), policy.max_batch_size,
      static_cast<unsigned long long>(policy.max_wait_micros), policy.max_queue_depth);
  std::fflush(stdout);

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "pipe() failed: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  // Wait for an operator line on stdin or a termination signal.
  struct pollfd fds[2];
  fds[0] = {.fd = STDIN_FILENO, .events = POLLIN, .revents = 0};
  fds[1] = {.fd = g_signal_pipe[0], .events = POLLIN, .revents = 0};
  while (true) {
    const int r = ::poll(fds, 2, -1);
    if (r < 0 && errno == EINTR) {
      if (g_signal_seen != 0) break;  // signal landed before the pipe byte
      continue;
    }
    if (r < 0) break;
    if (fds[0].revents != 0 || fds[1].revents != 0) break;
  }
  if (g_signal_seen != 0) {
    std::printf("received signal %d; draining\n", static_cast<int>(g_signal_seen));
    std::fflush(stdout);
  }

  server.drain_and_stop();
  std::printf("final metrics: %s\n", server.metrics().to_json().c_str());
  return 0;
}
