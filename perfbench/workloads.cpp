#include "workloads.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

#include "common/error.h"
#include "common/json.h"
#include "common/stats.h"
#include "common/trace.h"
#include "core/experiment.h"
#include "data/normalization.h"
#include "loadgen.h"
#include "models/spatio_temporal.h"
#include "pipeline/prefetch.h"
#include "probes.h"
#include "serve/server.h"
#include "spans.h"
#include "thresholds/optimizer.h"

namespace flashgen::perf {

namespace {

// ---- fixed benchmark geometry and load --------------------------------------

constexpr const char* kModel = "Temporal";
constexpr int kSide = 16;
constexpr std::size_t kReplicas = 2;
constexpr std::size_t kMaxBatch = 8;
// Each serve run starts this many independent fleets and splits its
// measurement evenly across them. A fleet's speed depends on where its
// weights and threads land (fleets in one process differ by up to ~15% in
// closed-window throughput), so pooling several fleets steadies every
// metric; set-up, timed per fleet, is reported as the median.
constexpr int kFleets = 6;

// generate: phase A sends at about a sixth of the closed-window peak
// (~900 rows/s on a 4-CPU AVX2 host), where batches stay near one row and
// queueing does not amplify run-to-run speed noise into the tail; phase B
// keeps two full batches per replica outstanding so every executor always
// has a full batch ready.
constexpr double kGenerateRate = 150.0;
constexpr int kWindow = static_cast<int>(2 * kMaxBatch * kReplicas);

// thresholds: open-loop generate plus open-loop threshold queries, one query
// in kColdEvery cold (a fresh wear bucket), the rest warm hits on the primed
// hot set.
constexpr double kMixGenerateRate = 100.0;
constexpr double kQueryRate = 25.0;
constexpr int kColdEvery = 20;
constexpr int kHotSet = 8;

// train: batch 8, two prefetch producers; the first steps warm allocators
// and the producer queue and are not timed.
constexpr int kTrainBatch = 8;
constexpr int kTrainWarmupSteps = 3;
constexpr int kHashSteps = 4;
// Model + pipeline construction takes ~25 ms, so single samples are noisy;
// setup_s reports the median of many.
constexpr int kTrainSetups = 15;

// Tail latency: p90 of the train step times and of the generate latencies in
// the closed window (thresholds: see MixPass::behind_cold). The open-loop
// generate p90 and p99 go to the result's details only: on a shared host a
// run during which other tenants use the CPU doubles them while moving p50
// by a tenth, so ten runs of the same code spread past any usable bound.
constexpr double kTailQuantile = 0.90;

// Stream offsets keep the traced pass's requests distinct from the untraced
// pass's, and the closed window's distinct from the open loop's.
constexpr std::uint64_t kTracedStreams = 1ull << 40;
constexpr std::uint64_t kClosedStreams = 1ull << 32;

models::NetworkConfig network() {
  models::NetworkConfig net;
  net.array_size = kSide;
  net.base_channels = 16;
  net.z_dim = 8;
  return net;  // pe_scale / retention_scale keep their defaults (10000, 1000)
}

// ---- small helpers ----------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank > 0) --rank;  // nearest rank, 1-based -> 0-based
  return v[std::min(rank, v.size() - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string num(double v) {
  std::ostringstream os;
  os.precision(10);
  os << (std::isfinite(v) ? v : 0.0);
  return os.str();
}

std::string str(const std::string& s) { return "\"" + s + "\""; }

std::uint64_t hash_bytes(std::uint64_t h, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// Threshold replies are bit-identical cold or warm except the trailing
// from_cache byte.
bool same_report(std::vector<std::uint8_t> a, std::vector<std::uint8_t> b) {
  if (a.empty() || a.size() != b.size()) return false;
  a.back() = 0;
  b.back() = 0;
  return a == b;
}

bool from_cache(const std::vector<std::uint8_t>& reply) { return !reply.empty() && reply.back() != 0; }

std::string write_checkpoint(const Options& options) {
  const models::NetworkConfig net = network();
  // Seed-derived, untrained weights: serving and training speed do not
  // depend on weight values.
  models::TemporalCvaeGanModel model(net, net.pe_scale, net.retention_scale, options.seed);
  const std::string path = options.out_dir + "/model.ckpt";
  model.save(path);
  return path;
}

/// Request `stream` of a run: a seed-derived random PL array. The reply is a
/// pure function of (checkpoint, PL array, seed, stream).
serve::GenerateRequest generate_request(std::uint64_t seed, std::uint64_t stream) {
  static const data::VoltageNormalizer normalizer;
  serve::GenerateRequest request;
  request.model = kModel;
  request.seed = seed;
  request.stream = stream;
  request.side = kSide;
  request.program_levels.resize(static_cast<std::size_t>(kSide * kSide));
  Rng rng = Rng::from_stream(seed ^ 0x504c'4172'7261'7973ull, stream);
  for (float& v : request.program_levels) {
    v = normalizer.normalize_level(static_cast<int>(rng.uniform_int(8)));
  }
  return request;
}

/// Checks served generate replies against the engine run in-process:
/// `samples` holds (stream, FNV-1a of the served reply payload).
std::size_t mismatched_replies(serve::InferenceEngine& engine, std::uint64_t seed,
                               const std::vector<std::pair<std::uint64_t, std::uint64_t>>& samples) {
  std::size_t bad = 0;
  for (const auto& [stream, served_hash] : samples) {
    serve::GenerateRequest request = generate_request(seed, stream);
    const tensor::Tensor pl = tensor::Tensor::from_data(tensor::Shape({1, 1, kSide, kSide}),
                                                        request.program_levels);
    Rng rng = Rng::from_stream(seed, stream);
    serve::GenerateResponse response;
    response.side = kSide;
    response.voltages.resize(static_cast<std::size_t>(kSide * kSide));
    engine.generate_into(pl, std::span<Rng>(&rng, 1), response.voltages);
    if (fnv1a(serve::encode_generate_response(response)) != served_hash) ++bad;
  }
  return bad;
}

// ---- the served fleet --------------------------------------------------------

/// Two replicas loaded from the checkpoint behind a TCP server. The registry
/// outlives the server (member order).
struct Fleet {
  serve::ModelRegistry registry;
  std::unique_ptr<serve::Server> server;
  std::string endpoint;
  std::vector<std::vector<std::uint8_t>> primed;  // hot-set replies, cold
};

serve::ThresholdQuery threshold_query(const data::Condition& c) {
  serve::ThresholdQuery q;
  q.model = kModel;
  q.pe_cycles = c.pe_cycles;
  q.retention_hours = c.retention_hours;
  return q;
}

/// Restricts the calling thread, and the threads it creates from now on, to
/// CPUs [first, last]. The fleet is started on every CPU but the last, and
/// the load client then moves to the last one, so the client never competes
/// with an executor for a core.
void pin_to_cpus(int first, int last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = first; c <= last; ++c) CPU_SET(c, &set);
  FG_CHECK(pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0,
           "pthread_setaffinity_np failed");
}

int cpu_count() { return static_cast<int>(std::thread::hardware_concurrency()); }

/// Peak resident set size of the process so far, in MB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Load every replica from the checkpoint (with engine warm-up), start the
/// server and wait for the first kReady.
std::unique_ptr<Fleet> start_fleet(const std::string& checkpoint) {
  auto fleet = std::make_unique<Fleet>();
  fleet->registry.load(kModel, core::ModelKind::Temporal, network(), checkpoint,
                       /*warmup_batch=*/kMaxBatch, kReplicas);
  serve::ServerOptions options;
  options.endpoint = "tcp:127.0.0.1:0";
  options.policy.max_batch_size = kMaxBatch;
  fleet->server = std::make_unique<serve::Server>(fleet->registry, options);
  fleet->server->start();
  fleet->endpoint = fleet->server->endpoint();
  serve::Client client(fleet->endpoint);
  while (client.health() != serve::HealthStatus::kReady) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return fleet;
}

/// Primes the hot threshold set: one cold query per condition.
void prime_fleet(Fleet& fleet, const std::vector<data::Condition>& hot) {
  serve::Client client(fleet.endpoint);
  for (const data::Condition& c : hot) {
    fleet.primed.push_back(
        serve::encode_threshold_response(client.threshold_query(threshold_query(c))));
  }
}

using Fleets = std::vector<std::unique_ptr<Fleet>>;

/// Starts kFleets fleets, then primes each one's hot set; a fleet's set-up
/// time is its start plus its priming, and setup_s is their median. Every
/// fleet primes the same hot set, so their cold replies must agree bit for
/// bit.
Fleets start_fleets(const std::string& checkpoint, const std::vector<data::Condition>& hot,
                    Report& report) {
  std::vector<double> times;
  Fleets fleets;
  const int cpus = cpu_count();
  if (cpus > 1) pin_to_cpus(0, cpus - 2);
  for (int i = 0; i < kFleets; ++i) {
    const auto t0 = Clock::now();
    fleets.push_back(start_fleet(checkpoint));
    times.push_back(seconds_since(t0));
  }
  // The serving footprint: every replica's weights and warmed workspaces.
  // Taken before any traffic, priming included: the workspace pools then
  // grow with whichever batch sizes the replicas happen to form, which
  // depends on thread timing and so differs run to run.
  report.end_to_end.push_back({"rss_mb", peak_rss_mb(), "MB"});
  for (int i = 0; i < kFleets; ++i) {
    const auto t0 = Clock::now();
    prime_fleet(*fleets[i], hot);
    times[i] += seconds_since(t0);
    report.check(fleets[i]->primed == fleets.front()->primed,
                 "cold threshold replies for the hot set differ between server starts");
  }
  report.end_to_end.push_back({"setup_s", median(times), "s"});
  if (cpus > 1) pin_to_cpus(cpus - 1, cpus - 1);
  return fleets;
}

/// kStats scrape of every fleet: the servers' own stage accounting, summed.
struct ServerStats {
  double batches = 0, rows = 0;
  std::map<std::string, std::pair<double, double>> stages;  // name -> (count, total us)

  static ServerStats scrape(const Fleets& fleets) {
    ServerStats s;
    for (const auto& fleet : fleets) {
      serve::Client client(fleet->endpoint);
      const common::JsonValue json = common::json_parse(client.stats());
      s.batches += json.at("batches").number();
      s.rows += json.at("batched_rows").number();
      for (const auto& [name, stage] : json.at("stages").object()) {
        // Means only: the power-of-two histogram quantiles are too coarse.
        const double count = stage.at("count").number();
        s.stages[name].first += count;
        s.stages[name].second += count * stage.at("mean_us").number();
      }
    }
    return s;
  }

  /// Mean of `stage` over the requests recorded since `before`.
  double stage_mean_us(const ServerStats& before, const std::string& stage) const {
    const auto at = [](const ServerStats& s, const std::string& n) {
      const auto it = s.stages.find(n);
      return it == s.stages.end() ? std::pair<double, double>{0, 0} : it->second;
    };
    const auto [c1, t1] = at(*this, stage);
    const auto [c0, t0] = at(before, stage);
    return c1 > c0 ? (t1 - t0) / (c1 - c0) : 0.0;
  }
};

/// A traced pass: the process-wide trace session plus the GEMM probe.
class TracedPass {
 public:
  explicit TracedPass(const std::string& path) : path_(path) { trace::start(path); }
  /// Ends the session, writes the trace, and aggregates it.
  SpanSummary finish(const std::string& root) {
    FG_CHECK(trace::stop() > 0, "trace session recorded no events");
    return aggregate_spans(path_, root);
  }
  std::vector<GemmShape> shapes() const { return gemm_.shapes(); }

 private:
  std::string path_;
  GemmProbe gemm_;
};

/// Every per-layer metric, so each traced run reports the full set; a layer
/// the workload leaves idle reads 0.
struct Layers {
  double lag_ms = 0, decode_us = 0, write_us = 0, queue_wait_us = 0, batch_rows = 0;
  double engine_us_per_row = 0, engine_busy = 0, unattributed = 0;
  double gemm_us_per_row = 0, gemm_gflops = 0, gemm_calls_per_row = 0, skinny = 0;
  double im2col_us = 0, col2im_us = 0, batch_norm_us = 0;
  double thr_sample_ms = 0, thr_fit_ms = 0, hit_frac = 0;
  double warm_p95_ms = 0;
  double step_ms = 0, backward_frac = 0, wait_frac = 0, produce_ms = 0, flash_us = 0;
  double overhead = 0;

  void emit(Report& report) const {
    auto& m = report.per_layer;
    m.push_back({"loadgen.lag_ms", lag_ms, "ms"});
    m.push_back({"server.decode_us", decode_us, "us"});
    m.push_back({"server.write_us", write_us, "us"});
    m.push_back({"batcher.queue_wait_us", queue_wait_us, "us"});
    m.push_back({"batcher.batch_rows", batch_rows, "rows"});
    m.push_back({"engine.us_per_row", engine_us_per_row, "us"});
    m.push_back({"engine.busy_frac", engine_busy, "fraction"});
    m.push_back({"engine.unattributed_frac", unattributed, "fraction"});
    m.push_back({"gemm.us_per_row", gemm_us_per_row, "us"});
    m.push_back({"gemm.gflops", gemm_gflops, "GFLOP/s"});
    m.push_back({"gemm.calls_per_row", gemm_calls_per_row, "count"});
    m.push_back({"gemm.skinny_frac", skinny, "fraction"});
    m.push_back({"im2col.us_per_row", im2col_us, "us"});
    m.push_back({"col2im.us_per_row", col2im_us, "us"});
    m.push_back({"batch_norm.us_per_row", batch_norm_us, "us"});
    m.push_back({"thresholds.sample_ms", thr_sample_ms, "ms"});
    m.push_back({"thresholds.fit_ms", thr_fit_ms, "ms"});
    m.push_back({"thresholds.hit_frac", hit_frac, "fraction"});
    m.push_back({"thresholds.warm_p95_ms", warm_p95_ms, "ms"});
    m.push_back({"train.step_ms", step_ms, "ms"});
    m.push_back({"train.backward_frac", backward_frac, "fraction"});
    m.push_back({"pipeline.wait_frac", wait_frac, "fraction"});
    m.push_back({"pipeline.produce_ms", produce_ms, "ms"});
    m.push_back({"flash.us_per_sample", flash_us, "us"});
    m.push_back({"trace.overhead_frac", overhead, "fraction"});
  }
};

/// Kernel split shared by every workload: `rows` is the rows (serve) or
/// samples (train) the traced pass pushed through the network.
void kernel_layers(const SpanSummary& spans, const std::vector<GemmShape>& shapes, double rows,
                   Layers& layers, Report& report) {
  double seconds = 0, flops = 0, skinny = 0, calls = 0;
  std::ostringstream table;
  table << "[";
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const GemmShape& s = shapes[i];
    seconds += s.seconds;
    flops += s.flops();
    calls += static_cast<double>(s.calls);
    if (s.n <= 4) skinny += s.seconds;
    table << (i ? ", " : "") << "{\"m\": " << s.m << ", \"n\": " << s.n << ", \"k\": " << s.k
          << ", \"batch\": " << s.batch << ", \"calls\": " << s.calls
          << ", \"us_per_call\": " << num(s.seconds * 1e6 / static_cast<double>(s.calls))
          << ", \"gflops\": " << num(s.seconds > 0 ? s.flops() / s.seconds * 1e-9 : 0) << "}";
  }
  table << "]";
  report.details.push_back({"gemm_shapes", table.str()});
  if (rows <= 0) return;
  layers.gemm_us_per_row = seconds * 1e6 / rows;
  layers.gemm_gflops = seconds > 0 ? flops / seconds * 1e-9 : 0;
  layers.gemm_calls_per_row = calls / rows;
  layers.skinny = seconds > 0 ? skinny / seconds : 0;
  layers.im2col_us = spans.at("im2col").self_s * 1e6 / rows;
  layers.col2im_us = spans.at("col2im").self_s * 1e6 / rows;
  layers.batch_norm_us =
      (spans.at("batch_norm2d").self_s + spans.at("batch_norm2d.backward").self_s) * 1e6 / rows;
}

/// Engine and front-end split of a traced serve pass.
void serve_layers(const SpanSummary& spans, const ServerStats& before, const ServerStats& after,
                  double rows, double wall_s, Layers& layers, Report& report) {
  layers.decode_us = after.stage_mean_us(before, "decode");
  layers.write_us = after.stage_mean_us(before, "write");
  layers.queue_wait_us = after.stage_mean_us(before, "queue_wait");
  layers.batch_rows =
      after.batches > before.batches ? (after.rows - before.rows) / (after.batches - before.batches)
                                     : 0.0;
  const SpanTotals infer = spans.at("serve.infer");
  layers.engine_us_per_row = rows > 0 ? infer.total_s * 1e6 / rows : 0;
  layers.engine_busy = infer.total_s / (wall_s * static_cast<double>(kReplicas));
  layers.unattributed = infer.total_s > 0 ? infer.self_s / infer.total_s : 0;
  // Additivity: the self times below serve.infer must add back up to it.
  const double gap = std::abs(spans.subtree_self_s - spans.root_s);
  report.check(spans.misnested == 0 && gap <= 0.01 * spans.root_s,
               "span self times do not add up to serve.infer (" + num(spans.subtree_self_s) +
                   " s vs " + num(spans.root_s) + " s, " + std::to_string(spans.misnested) +
                   " misnested)");
  report.details.push_back({"serve_infer_s", num(spans.root_s)});
  report.details.push_back({"serve_infer_subtree_self_s", num(spans.subtree_self_s)});
}

double rows_inferred() {
  return static_cast<double>(stats::counter("serve.rows_inferred").value());
}

void count_outcomes(const std::vector<Outcome>& outcomes, Report& report) {
  for (const Outcome& o : outcomes) {
    ++report.attempted;
    if (o.type != serve::MessageType::kGenerateOk && o.type != serve::MessageType::kThresholdOk) {
      ++report.failed;
    }
  }
}

// ---- generate ----------------------------------------------------------------

struct GeneratePass {
  std::vector<Outcome> open, closed;
  std::vector<std::uint64_t> open_streams, closed_streams;  // request stream per outcome
  double counted = 0;    // closed-window completions inside the counted windows
  double counted_s = 0;  // total length of the counted windows
  std::vector<double> counted_latencies_ms;  // of those completions
  std::vector<double> fleet_rates;  // closed-window completions/s, per fleet
  double wall_s = 0;

  std::vector<double> open_latencies() const {
    std::vector<double> v;
    for (const Outcome& o : open)
      if (o.type == serve::MessageType::kGenerateOk) v.push_back(o.latency_ms);
    return v;
  }
  double peak_rps() const { return counted_s > 0 ? counted / counted_s : 0; }

  /// A seeded sample of 16 replies per phase for the in-process check:
  /// (stream, reply hash).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> samples(std::uint64_t seed) const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    Rng pick = Rng::from_stream(seed, open_streams.front());
    for (int j = 0; j < 16; ++j) {
      const std::uint64_t i = pick.uniform_int(open.size());
      out.push_back({open_streams[i], open[i].reply_hash});
      const std::uint64_t c = pick.uniform_int(closed.size());
      out.push_back({closed_streams[c], closed[c].reply_hash});
    }
    return out;
  }
};

/// Splits the pass evenly over the fleets: each runs an open-loop slice, then
/// a closed-window slice.
GeneratePass drive_generate(const Fleets& fleets, const Options& options, std::uint64_t base) {
  GeneratePass pass;
  const auto t0 = Clock::now();
  const double slice = options.pass_seconds() / (2.0 * static_cast<double>(fleets.size()));
  const auto n = static_cast<std::uint64_t>(std::llround(kGenerateRate * slice));
  std::uint64_t open_stream = base;
  std::uint64_t closed_stream = base + kClosedStreams;
  for (const auto& fleet : fleets) {
    LoadClient client(fleet->endpoint, {4});
    std::vector<Shot> shots(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      shots[i].due_s = static_cast<double>(i) / kGenerateRate;
      shots[i].payload =
          serve::encode_generate_request(generate_request(options.seed, open_stream));
      pass.open_streams.push_back(open_stream++);
    }
    const std::vector<Outcome> open = client.open_loop(shots);
    pass.open.insert(pass.open.end(), open.begin(), open.end());

    const std::uint64_t first = closed_stream;
    const std::vector<Outcome> closed = client.closed_window(kWindow, slice, [&](std::uint64_t i) {
      return serve::encode_generate_request(generate_request(options.seed, first + i));
    });
    // The first tenth of each window fills the replicas and is not counted.
    double counted = 0;
    for (const Outcome& o : closed) {
      if (o.type == serve::MessageType::kGenerateOk && o.done_s >= 0.1 * slice &&
          o.done_s < slice) {
        ++counted;
        pass.counted_latencies_ms.push_back(o.latency_ms);
      }
      pass.closed_streams.push_back(closed_stream++);
    }
    pass.counted += counted;
    pass.counted_s += 0.9 * slice;
    pass.fleet_rates.push_back(counted / (0.9 * slice));
    pass.closed.insert(pass.closed.end(), closed.begin(), closed.end());
  }
  pass.wall_s = seconds_since(t0);
  return pass;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) out += (i ? ", " : "") + num(values[i]);
  return out + "]";
}

double mean_lag_ms(const std::vector<Outcome>& outcomes) {
  double s = 0;
  for (const Outcome& o : outcomes) s += o.lag_ms;
  return outcomes.empty() ? 0 : s / static_cast<double>(outcomes.size());
}

}  // namespace

Report run_generate(const Options& options) {
  Report report;
  const std::string checkpoint = write_checkpoint(options);
  Fleets fleets = start_fleets(checkpoint, {}, report);

  const GeneratePass pass = drive_generate(fleets, options, 0);
  count_outcomes(pass.open, report);
  count_outcomes(pass.closed, report);
  const std::vector<double> lat = pass.open_latencies();
  report.end_to_end.push_back({"p50_ms", median(lat), "ms"});
  report.end_to_end.push_back(
      {"tail_ms", quantile(pass.counted_latencies_ms, kTailQuantile), "ms"});
  report.end_to_end.push_back({"rate_per_s", pass.peak_rps(), "1/s"});
  report.details.push_back({"latency_samples", std::to_string(lat.size())});
  report.details.push_back({"open_p90_ms", num(quantile(lat, 0.90))});
  report.details.push_back({"open_p99_ms", num(quantile(lat, 0.99))});
  report.details.push_back({"open_rate_per_s", num(kGenerateRate)});
  report.details.push_back({"closed_window", std::to_string(kWindow)});
  report.details.push_back({"open_lag_mean_ms", num(mean_lag_ms(pass.open))});
  report.details.push_back({"closed_rate_per_fleet", json_list(pass.fleet_rates)});
  std::vector<std::pair<std::uint64_t, std::uint64_t>> samples = pass.samples(options.seed);

  if (options.trace) {
    Layers layers;
    const ServerStats before = ServerStats::scrape(fleets);
    const double rows0 = rows_inferred();
    TracedPass traced(options.out_dir + "/trace.json");
    const GeneratePass tp = drive_generate(fleets, options, kTracedStreams);
    const double rows = rows_inferred() - rows0;
    const SpanSummary spans = traced.finish("serve.infer");
    const ServerStats after = ServerStats::scrape(fleets);
    const auto traced_samples = tp.samples(options.seed);
    samples.insert(samples.end(), traced_samples.begin(), traced_samples.end());
    layers.lag_ms = mean_lag_ms(tp.open);
    serve_layers(spans, before, after, rows, tp.wall_s, layers, report);
    kernel_layers(spans, traced.shapes(), rows, layers, report);
    layers.overhead = 1.0 - tp.peak_rps() / pass.peak_rps();
    layers.emit(report);
  }

  // Joining the executors hands the engines back to this thread.
  for (auto& fleet : fleets) fleet->server.reset();
  const std::size_t bad =
      mismatched_replies(fleets.front()->registry.at(kModel).engine(), options.seed, samples);
  report.check(bad == 0, std::to_string(bad) + " of " + std::to_string(samples.size()) +
                             " sampled generate replies differ from in-process generate_into");
  return report;
}

// ---- thresholds --------------------------------------------------------------

namespace {

/// Wear conditions for threshold queries. Buckets of the server's cache
/// quantization (100 PE cycles x 24 h) are visited in a seed-derived order
/// that never repeats within a run: the first kHotSet form the hot set, every
/// later one is cold.
class ConditionPlan {
 public:
  explicit ConditionPlan(std::uint64_t seed) {
    static constexpr std::uint64_t kStrides[] = {11, 13, 17, 19, 23, 29, 31, 37, 41, 43};
    stride_ = kStrides[seed % std::size(kStrides)];  // coprime with kBuckets
    offset_ = (seed / std::size(kStrides)) % kBuckets;
  }

  data::Condition at(std::uint64_t i) const {
    FG_CHECK(i < kBuckets, "condition plan exhausted");
    const std::uint64_t b = (stride_ * i + offset_) % kBuckets;
    return {static_cast<double>(b / kRetentionBuckets) * 100.0 + 50.0,
            static_cast<double>(b % kRetentionBuckets) * 24.0 + 12.0};
  }
  std::vector<data::Condition> hot() const {
    std::vector<data::Condition> out;
    for (int i = 0; i < kHotSet; ++i) out.push_back(at(static_cast<std::uint64_t>(i)));
    return out;
  }
  data::Condition cold(std::uint64_t i) const { return at(kHotSet + i); }

 private:
  static constexpr std::uint64_t kRetentionBuckets = 42;          // 0 .. 1008 h
  static constexpr std::uint64_t kBuckets = 100 * kRetentionBuckets;  // PE 0 .. 10000
  std::uint64_t stride_ = 1;
  std::uint64_t offset_ = 0;
};

struct MixPass {
  enum class Kind { kGenerate, kWarm, kCold };
  std::vector<Kind> kinds;
  std::vector<std::uint64_t> index;  // stream (generate), hot index (warm), cold index (cold)
  std::vector<std::size_t> fleet;    // which fleet answered
  std::vector<Outcome> outcomes;
  double wall_s = 0;

  std::vector<double> latencies(Kind kind) const {
    std::vector<double> v;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const bool ok = outcomes[i].type == serve::MessageType::kGenerateOk ||
                      outcomes[i].type == serve::MessageType::kThresholdOk;
      if (kinds[i] == kind && ok) v.push_back(outcomes[i].latency_ms);
    }
    return v;
  }

  /// Latencies of the generate requests due while a cold query of the same
  /// fleet was outstanding: the requests whose rows queue behind a cold
  /// 64-row burst and so make up the generate tail.
  std::vector<double> behind_cold() const {
    const auto due = [&](std::size_t i) {
      return outcomes[i].done_s - outcomes[i].latency_ms * 1e-3;
    };
    std::vector<double> v;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (kinds[i] != Kind::kGenerate || outcomes[i].type != serve::MessageType::kGenerateOk)
        continue;
      for (std::size_t c = 0; c < outcomes.size(); ++c) {
        if (kinds[c] == Kind::kCold && fleet[c] == fleet[i] && due(c) <= due(i) &&
            due(i) < outcomes[c].done_s) {
          v.push_back(outcomes[i].latency_ms);
          break;
        }
      }
    }
    return v;
  }
};

/// Splits the pass evenly over the fleets; each fleet serves one open-loop
/// slice of the mix. Cold buckets continue across fleets, so none repeats.
MixPass drive_mix(const Fleets& fleets, const Options& options, const ConditionPlan& plan,
                  std::uint64_t stream_base, std::uint64_t cold_base) {
  MixPass pass;
  const auto t0 = Clock::now();
  const double slice = options.pass_seconds() / static_cast<double>(fleets.size());
  const std::vector<data::Condition> hot = plan.hot();
  std::uint64_t stream = stream_base;
  std::uint64_t cold = cold_base;
  for (std::size_t f = 0; f < fleets.size(); ++f) {
    std::vector<std::pair<Shot, std::pair<MixPass::Kind, std::uint64_t>>> plan_shots;
    const auto n_gen = static_cast<std::uint64_t>(std::llround(kMixGenerateRate * slice));
    for (std::uint64_t i = 0; i < n_gen; ++i, ++stream) {
      Shot s;
      s.due_s = static_cast<double>(i) / kMixGenerateRate;
      s.lane = 0;
      s.payload = serve::encode_generate_request(generate_request(options.seed, stream));
      plan_shots.push_back({std::move(s), {MixPass::Kind::kGenerate, stream}});
    }
    const auto n_query = static_cast<std::uint64_t>(std::llround(kQueryRate * slice));
    for (std::uint64_t j = 0; j < n_query; ++j) {
      Shot s;
      // Offset half a query interval so the two streams never coincide.
      s.due_s = (static_cast<double>(j) + 0.5) / kQueryRate;
      s.lane = 1;
      if (j % kColdEvery == kColdEvery / 2) {
        s.payload = serve::encode_threshold_query(threshold_query(plan.cold(cold)));
        plan_shots.push_back({std::move(s), {MixPass::Kind::kCold, cold++}});
      } else {
        const std::uint64_t h = j % kHotSet;
        s.payload = serve::encode_threshold_query(threshold_query(hot[h]));
        plan_shots.push_back({std::move(s), {MixPass::Kind::kWarm, h}});
      }
    }
    std::stable_sort(plan_shots.begin(), plan_shots.end(),
                     [](const auto& a, const auto& b) { return a.first.due_s < b.first.due_s; });
    std::vector<Shot> shots;
    for (auto& [shot, tag] : plan_shots) {
      shots.push_back(std::move(shot));
      pass.kinds.push_back(tag.first);
      pass.index.push_back(tag.second);
      pass.fleet.push_back(f);
    }
    LoadClient client(fleets[f]->endpoint, {2, 2});
    const std::vector<Outcome> outcomes = client.open_loop(shots);
    pass.outcomes.insert(pass.outcomes.end(), outcomes.begin(), outcomes.end());
  }
  pass.wall_s = seconds_since(t0);
  return pass;
}

/// A cold reply and the fleet whose cache now holds it.
struct ColdReply {
  std::size_t fleet = 0;
  std::vector<std::uint8_t> reply;
};

/// Checks a mix pass's threshold replies: warm hits come from the cache with
/// the primed cold bits (identical on every fleet), cold misses are computed.
/// Returns the cold replies by cold index.
std::map<std::uint64_t, ColdReply> check_mix(const MixPass& pass, const Fleets& fleets,
                                             Report& report) {
  std::map<std::uint64_t, ColdReply> cold;
  std::size_t bad_warm = 0, bad_cold = 0;
  for (std::size_t i = 0; i < pass.outcomes.size(); ++i) {
    const Outcome& o = pass.outcomes[i];
    if (o.type != serve::MessageType::kThresholdOk) continue;
    if (pass.kinds[i] == MixPass::Kind::kWarm) {
      if (!from_cache(o.reply) || !same_report(o.reply, fleets.front()->primed[pass.index[i]]))
        ++bad_warm;
    } else if (pass.kinds[i] == MixPass::Kind::kCold) {
      if (from_cache(o.reply)) ++bad_cold;
      cold[pass.index[i]] = ColdReply{pass.fleet[i], o.reply};
    }
  }
  report.check(bad_warm == 0, std::to_string(bad_warm) +
                                  " warm threshold replies were not cached copies of the cold bits");
  report.check(bad_cold == 0, std::to_string(bad_cold) + " cold threshold queries hit the cache");
  return cold;
}

double hit_frac(const MixPass& pass) {
  double hits = 0, replies = 0;
  for (const Outcome& o : pass.outcomes) {
    if (o.type != serve::MessageType::kThresholdOk) continue;
    ++replies;
    if (from_cache(o.reply)) ++hits;
  }
  return replies > 0 ? hits / replies : 0;
}

/// Rows a cold optimization samples with the server's optimizer config.
double rows_per_cold() {
  const thresholds::OptimizerConfig config;
  return static_cast<double>(config.waves * config.batch_rows);
}

/// Sampled rows per second of the median cold query.
double cold_rows_per_s(const MixPass& pass) {
  const double p50_s = median(pass.latencies(MixPass::Kind::kCold)) * 1e-3;
  return p50_s > 0 ? rows_per_cold() / p50_s : 0;
}

}  // namespace

Report run_thresholds(const Options& options) {
  Report report;
  const std::string checkpoint = write_checkpoint(options);
  const ConditionPlan plan(options.seed);
  Fleets fleets = start_fleets(checkpoint, plan.hot(), report);

  const MixPass pass = drive_mix(fleets, options, plan, 0, 0);
  count_outcomes(pass.outcomes, report);
  std::map<std::uint64_t, ColdReply> cold = check_mix(pass, fleets, report);
  const std::vector<double> cold_lat = pass.latencies(MixPass::Kind::kCold);
  const std::vector<double> warm_lat = pass.latencies(MixPass::Kind::kWarm);
  const std::vector<double> gen_lat = pass.latencies(MixPass::Kind::kGenerate);
  // What threshold work costs the generate traffic it shares replicas with.
  report.end_to_end.push_back({"p50_ms", median(gen_lat), "ms"});
  // The tail threshold work puts on generate: the median latency of the
  // generate requests that arrive behind a cold query. About a tenth of the
  // generate requests do; a median over them (~380 in a 30 s run) is steady
  // where a p99 of all of them depends on a handful of requests.
  const std::vector<double> behind = pass.behind_cold();
  report.end_to_end.push_back({"tail_ms", median(behind), "ms"});
  report.details.push_back({"behind_cold_samples", std::to_string(behind.size())});
  report.details.push_back({"generate_p99_ms", num(quantile(gen_lat, 0.99))});
  // How fast a cold optimization gets its rows through the fleet.
  report.end_to_end.push_back({"rate_per_s", cold_rows_per_s(pass), "1/s"});
  report.details.push_back({"latency_samples", std::to_string(gen_lat.size())});
  report.details.push_back({"cold_samples", std::to_string(cold_lat.size())});
  report.details.push_back({"cold_p50_ms", num(median(cold_lat))});
  report.details.push_back({"warm_samples", std::to_string(warm_lat.size())});
  // ~24 warm samples per second, ~360 in a 15 s traced pass: p95 is the
  // highest quantile with at least ten samples beyond it.
  report.details.push_back({"warm_p95_ms", num(quantile(warm_lat, 0.95))});

  Layers layers;
  const std::uint64_t cold_used = cold.size();
  if (options.trace) {
    const ServerStats before = ServerStats::scrape(fleets);
    const double rows0 = rows_inferred();
    TracedPass traced(options.out_dir + "/trace.json");
    const MixPass tp = drive_mix(fleets, options, plan, kTracedStreams, cold_used);
    const double rows = rows_inferred() - rows0;
    const SpanSummary spans = traced.finish("serve.infer");
    const ServerStats after = ServerStats::scrape(fleets);
    std::map<std::uint64_t, ColdReply> traced_cold = check_mix(tp, fleets, report);
    cold.insert(traced_cold.begin(), traced_cold.end());
    layers.lag_ms = mean_lag_ms(tp.outcomes);
    layers.hit_frac = hit_frac(tp);
    layers.warm_p95_ms = quantile(tp.latencies(MixPass::Kind::kWarm), 0.95);
    serve_layers(spans, before, after, rows, tp.wall_s, layers, report);
    kernel_layers(spans, traced.shapes(), rows, layers, report);
    layers.overhead = 1.0 - cold_rows_per_s(tp) / cold_rows_per_s(pass);
  }

  // Re-asking the fleet that answered a cold bucket must now hit its cache
  // with equal bits.
  {
    int checked = 0;
    for (const auto& [index, cold_reply] : cold) {
      if (checked++ == 2) break;
      serve::Client client(fleets[cold_reply.fleet]->endpoint);
      const std::vector<std::uint8_t> again = serve::encode_threshold_response(
          client.threshold_query(threshold_query(plan.cold(index))));
      report.check(from_cache(again) && same_report(again, cold_reply.reply),
                   "repeated cold threshold query was not a cached copy of its first reply");
    }
  }

  for (auto& fleet : fleets) fleet->server.reset();
  if (options.trace) {
    // Cold optimizations split into sampling and fitting, measured in-process
    // over the first fleet's replicas (released by its server) through the
    // server's sampler and optimizer config; each report must equal the
    // served cold reply bit for bit.
    serve::ModelRegistry::Entry& entry = fleets.front()->registry.at(kModel);
    serve::BatchPolicy policy;
    policy.max_batch_size = kMaxBatch;
    serve::ReplicaDispatcher dispatcher(entry.engines(), entry.row_shape, policy);
    serve::DispatcherSampler fleet_sampler(dispatcher);
    TimingSampler timed(fleet_sampler);
    thresholds::OptimizerConfig config;
    config.side = kSide;
    thresholds::ThresholdOptimizer optimizer(timed, config);
    double total_s = 0;
    int n = 0;
    std::size_t bad = 0;
    for (const auto& [index, cold_reply] : cold) {
      if (n == 6) break;
      const auto t0 = Clock::now();
      const thresholds::ThresholdReport r = optimizer.optimize(plan.cold(index));
      total_s += seconds_since(t0);
      ++n;
      if (!same_report(serve::encode_threshold_response(serve::to_response(r)), cold_reply.reply))
        ++bad;
    }
    report.check(bad == 0, std::to_string(bad) +
                               " in-process cold optimizations differ from the served replies");
    if (n > 0) {
      layers.thr_sample_ms = timed.seconds() / n * 1e3;
      layers.thr_fit_ms = (total_s - timed.seconds()) / n * 1e3;
    }
    layers.emit(report);
  }
  return report;
}

// ---- train -------------------------------------------------------------------

namespace {

pipeline::StreamConfig stream_config(std::uint64_t seed, int num_arrays) {
  pipeline::StreamConfig stream;
  stream.dataset = core::small_temporal_experiment_config().dataset;
  // One streamed sample is one simulated block the size of the crop.
  stream.dataset.channel.rows = kSide;
  stream.dataset.channel.cols = kSide;
  stream.dataset.num_arrays = num_arrays;
  stream.seed = seed;
  for (double pe : {1000.0, 4000.0, 8000.0})
    for (double retention : {0.0, 500.0}) stream.conditions.push_back({pe, retention});
  return stream;
}

pipeline::PrefetchConfig prefetch_config() {
  pipeline::PrefetchConfig prefetch;
  prefetch.workers = 2;
  prefetch.queue_depth = 4;
  return prefetch;
}

models::TrainConfig train_config() {
  const core::ExperimentConfig small = core::small_temporal_experiment_config();
  models::TrainConfig train;
  train.epochs = 1;
  train.batch_size = kTrainBatch;
  train.lr = small.lr;
  train.beta = small.beta;
  train.log_every = 0;
  return train;
}

std::unique_ptr<models::TemporalCvaeGanModel> make_model(std::uint64_t seed) {
  const models::NetworkConfig net = network();
  return std::make_unique<models::TemporalCvaeGanModel>(net, net.pe_scale, net.retention_scale,
                                                        seed);
}

/// FNV-1a over every parameter and buffer after `steps` streamed steps.
std::uint64_t trained_weights_hash(std::uint64_t seed, int steps) {
  auto model = make_model(seed);
  pipeline::PrefetchSource source(stream_config(seed, steps * kTrainBatch), kTrainBatch,
                                  prefetch_config());
  Rng rng(seed);
  model->fit_stream(source, train_config(), rng);
  std::uint64_t h = 1469598103934665603ull;
  for (const nn::NamedTensor& t : model->root_module().named_state()) {
    h = hash_bytes(h, t.name.data(), t.name.size());
    const auto data = t.tensor.data();
    h = hash_bytes(h, data.data(), data.size_bytes());
  }
  return h;
}

struct TrainPass {
  std::vector<MeteredSource::Step> steps;  // after warm-up

  double samples_per_s() const {
    double s = 0;
    for (const auto& st : steps) s += st.wait_s + st.train_s;
    return s > 0 ? static_cast<double>(steps.size() * kTrainBatch) / s : 0;
  }
  std::vector<double> step_ms() const {
    std::vector<double> v;
    for (const auto& st : steps) v.push_back((st.wait_s + st.train_s) * 1e3);
    return v;
  }
};

TrainPass drive_train(models::TemporalCvaeGanModel& model, pipeline::SampleSource& source,
                      const Options& options) {
  MeteredSource metered(source, options.pass_seconds());
  Rng rng(options.seed);
  try {
    model.fit_stream(metered, train_config(), rng);
    FG_CHECK(false, "training stream ended before the run's deadline");
  } catch (const TimeUp&) {
  }
  TrainPass pass;
  const auto& steps = metered.steps();
  if (steps.size() > static_cast<std::size_t>(kTrainWarmupSteps)) {
    pass.steps.assign(steps.begin() + kTrainWarmupSteps, steps.end());
  }
  return pass;
}

}  // namespace

Report run_train(const Options& options) {
  Report report;
  constexpr int kEndless = 1 << 24;  // samples per epoch: the deadline ends the run
  std::vector<double> setup_times;
  std::unique_ptr<models::TemporalCvaeGanModel> model;
  std::unique_ptr<pipeline::PrefetchSource> source;
  for (int i = 0; i < kTrainSetups; ++i) {
    source.reset();
    model.reset();
    const auto t0 = Clock::now();
    model = make_model(options.seed);
    source = std::make_unique<pipeline::PrefetchSource>(stream_config(options.seed, kEndless),
                                                        kTrainBatch, prefetch_config());
    Rng rng(options.seed);
    source->begin_epoch(0, rng);
    (void)source->next_batch_cond();
    setup_times.push_back(seconds_since(t0));
  }
  report.end_to_end.push_back({"setup_s", median(setup_times), "s"});

  const TrainPass pass = drive_train(*model, *source, options);
  report.attempted = pass.steps.size();
  report.check(!pass.steps.empty(), "no training step completed after warm-up");
  const std::vector<double> step = pass.step_ms();
  report.end_to_end.push_back({"p50_ms", median(step), "ms"});
  report.end_to_end.push_back({"tail_ms", quantile(step, kTailQuantile), "ms"});
  report.end_to_end.push_back({"rate_per_s", pass.samples_per_s(), "1/s"});
  report.details.push_back({"step_samples", std::to_string(step.size())});
  {
    // Median step per tenth of the run: shows the host's speed drifting
    // within a run, which decides most of the run-to-run spread.
    std::vector<double> tenths;
    for (std::size_t t = 0; t < 10; ++t) {
      const std::size_t b = step.size() * t / 10, e = step.size() * (t + 1) / 10;
      tenths.push_back(median({step.begin() + b, step.begin() + e}));
    }
    report.details.push_back({"step_ms_by_tenth", json_list(tenths)});
  }
  
  if (options.trace) {
    Layers layers;
    auto traced_model = make_model(options.seed);
    pipeline::PrefetchSource traced_source(stream_config(options.seed + 1, kEndless), kTrainBatch,
                                           prefetch_config());
    TracedPass traced(options.out_dir + "/trace.json");
    const TrainPass tp = drive_train(*traced_model, traced_source, options);
    const SpanSummary spans = traced.finish("train.step");
    double wait = 0, train = 0;
    for (const auto& st : tp.steps) {
      wait += st.wait_s;
      train += st.train_s;
    }
    const double samples = static_cast<double>(tp.steps.size() * kTrainBatch);
    layers.step_ms = tp.steps.empty() ? 0 : train / static_cast<double>(tp.steps.size()) * 1e3;
    layers.wait_frac = wait + train > 0 ? wait / (wait + train) : 0;
    const SpanTotals step_spans = spans.at("train.step");
    layers.backward_frac = step_spans.total_s > 0 ? spans.at("backward").total_s / step_spans.total_s : 0;
    const SpanTotals produce = spans.at("pipeline.produce_block");
    layers.produce_ms = produce.count > 0 ? produce.total_s / static_cast<double>(produce.count) * 1e3 : 0;
    const double produced = static_cast<double>(produce.count * kTrainBatch);
    layers.flash_us = produced > 0 ? spans.self_with_prefix("flash.") * 1e6 / produced : 0;
    // Kernels are normalized per trained sample over every timed step.
    const double all_samples = static_cast<double>(step_spans.count * kTrainBatch);
    kernel_layers(spans, traced.shapes(), all_samples, layers, report);
    layers.overhead = 1.0 - tp.samples_per_s() / pass.samples_per_s();
    report.details.push_back({"traced_samples", num(samples)});
    layers.emit(report);
  }
  source.reset();

  const std::uint64_t h1 = trained_weights_hash(options.seed, kHashSteps);
  const std::uint64_t h2 = trained_weights_hash(options.seed, kHashSteps);
  report.check(h1 == h2, "two trainings from the same seed ended with different weights");
  std::ostringstream hex;
  hex << std::hex << h1;
  report.details.push_back({"weights_hash", str(hex.str())});
  report.end_to_end.push_back({"rss_mb", peak_rss_mb(), "MB"});
  return report;
}

}  // namespace flashgen::perf
