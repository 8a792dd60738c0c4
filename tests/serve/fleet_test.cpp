// Fleet-resilience tests: replica supervision (wedge quarantine + restart,
// error-based quarantine, restart-failure retry), deterministic least-loaded
// routing that skips quarantined replicas, degraded health reporting,
// per-tenant token-bucket admission (unit + end-to-end), client retry with
// backoff, the retired v1 frame type, connection hygiene (idle eviction,
// pipeline and buffer caps), and graceful drain with a replica mid-quarantine.
//
// Every fault scenario is driven by the deterministic FG_FAULT seams
// (`serve_replica_wedge`, `serve_replica_error`, `serve_replica_restart`);
// with no fault armed the supervised fleet must answer bit-identically to
// the unsupervised path.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/faultinject.h"
#include "common/framing.h"
#include "models/generative_model.h"
#include "nn/module.h"
#include "serve/dispatcher.h"
#include "serve/server.h"
#include "serve/tenant.h"

namespace flashgen::serve {
namespace {

using tensor::Shape;
using tensor::Tensor;

// Identity model: echoes the program levels back, so any replica's response
// is trivially checkable and bit-identical by construction.
class EchoModel : public models::GenerativeModel {
 public:
  std::string name() const override { return "Echo"; }
  models::TrainStats fit(const data::PairedDataset&, const models::TrainConfig&,
                         flashgen::Rng&) override {
    return {};
  }
  void prepare_generation() override {}
  Tensor sample(const Tensor& pl, flashgen::Rng&) override {
    return Tensor::from_data(pl.shape(),
                             std::vector<float>(pl.data().begin(), pl.data().end()));
  }
  nn::Module& root_module() override { return dummy_; }

 private:
  nn::Module dummy_;
};

// Echo model with a gate in the sampling path: block() parks the executor
// inside sample() until release(), holding requests in flight deterministically.
class GateModel : public models::GenerativeModel {
 public:
  std::string name() const override { return "Gate"; }
  models::TrainStats fit(const data::PairedDataset&, const models::TrainConfig&,
                         flashgen::Rng&) override {
    return {};
  }
  void prepare_generation() override {}
  Tensor sample(const Tensor& pl, flashgen::Rng&) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return !blocked_; });
    }
    return Tensor::from_data(pl.shape(),
                             std::vector<float>(pl.data().begin(), pl.data().end()));
  }
  nn::Module& root_module() override { return dummy_; }

  void block() {
    std::lock_guard<std::mutex> lock(mutex_);
    blocked_ = true;
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      blocked_ = false;
    }
    cv_.notify_all();
  }
  void wait_entered(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return entered_ >= n; });
  }

 private:
  nn::Module dummy_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool blocked_ = false;
  int entered_ = 0;
};

std::vector<float> test_row() {
  std::vector<float> row(64);
  for (std::size_t i = 0; i < row.size(); ++i)
    row[i] = 0.01f * static_cast<float>(i) - 0.3f;
  return row;
}

GenerateRequest echo_request(std::uint32_t tenant = 0) {
  GenerateRequest request;
  request.model = "Echo";
  request.tenant_id = tenant;
  request.seed = 1;
  request.stream = 0;
  request.side = 8;
  request.program_levels = test_row();
  return request;
}

/// Polls `probe` every millisecond until it holds or ~5s elapse.
template <typename Fn>
bool eventually(Fn&& probe, int timeout_ms = 5000) {
  for (int waited = 0; waited < timeout_ms; ++waited) {
    if (probe()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return probe();
}

SupervisorPolicy fast_supervisor(std::uint64_t wedge_micros = 50'000,
                                 std::uint32_t max_errors = 0) {
  SupervisorPolicy sup;
  sup.wedge_timeout_micros = wedge_micros;
  sup.check_interval_micros = 5'000;
  sup.max_consecutive_errors = max_errors;
  return sup;
}

ModelRegistry make_echo_registry(std::size_t replicas) {
  ModelRegistry registry;
  registry.add("Echo", std::make_unique<EchoModel>(), Shape({1, 8, 8}), /*warmup_batch=*/0);
  for (std::size_t r = 1; r < replicas; ++r)
    registry.add_replica("Echo", std::make_unique<EchoModel>(), /*warmup_batch=*/0);
  return registry;
}

// Raw blocking protocol connection: what a hand-rolled (possibly hostile or
// outdated) client looks like to the server. The typed Client is bypassed on
// purpose so tests control exactly which bytes hit the wire.
class RawConn {
 public:
  explicit RawConn(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    EXPECT_LT(socket_path.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    timeval tv{};
    tv.tv_sec = 10;  // a hung read fails the test instead of hanging ctest
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_payload(const std::vector<std::uint8_t>& payload) {
    send_raw(framing::encode_frame(payload));
  }
  void send_raw(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  /// Blocking-reads the next complete frame; false on orderly EOF.
  bool read_payload(std::vector<std::uint8_t>& payload) {
    while (!decoder_.next(payload)) {
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return false;
      if (n < 0) {
        EXPECT_EQ(errno, EINTR) << "recv failed: " << std::strerror(errno);
        if (errno != EINTR) return false;
        continue;
      }
      decoder_.feed(buf, static_cast<std::size_t>(n));
    }
    return true;
  }

  /// True when the server closed the connection (orderly EOF, no more frames).
  bool at_eof() {
    std::vector<std::uint8_t> payload;
    return !read_payload(payload);
  }

 private:
  int fd_ = -1;
  framing::FrameDecoder decoder_;
};

class FleetTest : public ::testing::Test {
 protected:
  FleetTest() {
    const std::string test_name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    socket_path_ = (std::filesystem::temp_directory_path() /
                    ("flashgen_fleet_" + test_name + ".sock"))
                       .string();
  }
  ~FleetTest() override { faultinject::clear(); }

  std::string socket_path_;
};

// ---------------------------------------------------------------------------
// Routing: deterministic least-loaded with lowest-index tie-break.
// ---------------------------------------------------------------------------

TEST_F(FleetTest, LeastLoadedTieBreaksToLowestIndex) {
  ModelRegistry registry;
  auto g0 = std::make_unique<GateModel>();
  auto g1 = std::make_unique<GateModel>();
  auto g2 = std::make_unique<GateModel>();
  GateModel* gates[3] = {g0.get(), g1.get(), g2.get()};
  registry.add("Gate", std::move(g0), Shape({1, 8, 8}), /*warmup_batch=*/0);
  registry.add_replica("Gate", std::move(g1), /*warmup_batch=*/0);
  registry.add_replica("Gate", std::move(g2), /*warmup_batch=*/0);

  BatchPolicy policy;
  policy.max_batch_size = 1;
  // Supervision disabled: blocked gates must not read as wedged replicas.
  ReplicaDispatcher dispatcher(registry, "Gate", policy, fast_supervisor(/*wedge=*/0));
  for (GateModel* gate : gates) gate->block();

  const std::vector<float> row = test_row();
  // All empty: the three-way tie resolves to the lowest index.
  EXPECT_EQ(dispatcher.least_loaded_replica(), 0u);
  auto f0 = dispatcher.submit(row, 1, 0);
  gates[0]->wait_entered(1);
  EXPECT_EQ(dispatcher.least_loaded_replica(), 1u);  // tie between 1 and 2
  auto f1 = dispatcher.submit(row, 1, 1);
  gates[1]->wait_entered(1);
  EXPECT_EQ(dispatcher.least_loaded_replica(), 2u);
  auto f2 = dispatcher.submit(row, 1, 2);
  gates[2]->wait_entered(1);
  // One outstanding everywhere: back to the lowest index.
  EXPECT_EQ(dispatcher.least_loaded_replica(), 0u);

  for (GateModel* gate : gates) gate->release();
  EXPECT_EQ(f0.get(), row);
  EXPECT_EQ(f1.get(), row);
  EXPECT_EQ(f2.get(), row);
  dispatcher.drain();
  EXPECT_EQ(dispatcher.quarantines(), 0u);  // nothing ever looked wedged
}

// Counting in batches: an idle replica takes a request at once, but with every
// replica busy, arrivals fill one replica's next batch before starting the
// next replica's, instead of leaving each a partial batch.
TEST_F(FleetTest, BusyFleetFillsOneReplicasNextBatchFirst) {
  ModelRegistry registry;
  auto g0 = std::make_unique<GateModel>();
  auto g1 = std::make_unique<GateModel>();
  GateModel* gates[2] = {g0.get(), g1.get()};
  registry.add("Gate", std::move(g0), Shape({1, 8, 8}), /*warmup_batch=*/0);
  registry.add_replica("Gate", std::move(g1), /*warmup_batch=*/0);

  BatchPolicy policy;
  policy.max_batch_size = 4;
  // Supervision disabled: blocked gates must not read as wedged replicas.
  ReplicaDispatcher dispatcher(registry, "Gate", policy, fast_supervisor(/*wedge=*/0));
  for (GateModel* gate : gates) gate->block();

  const std::vector<float> row = test_row();
  std::vector<ResponseFuture> futures;
  futures.push_back(dispatcher.submit(row, 1, 0));
  gates[0]->wait_entered(1);
  EXPECT_EQ(dispatcher.least_loaded_replica(), 1u);  // idle beats busy
  futures.push_back(dispatcher.submit(row, 1, 1));
  gates[1]->wait_entered(1);
  for (std::uint64_t stream = 2; stream < 6; ++stream) {
    EXPECT_EQ(dispatcher.least_loaded_replica(), 0u) << "stream " << stream;
    futures.push_back(dispatcher.submit(row, 1, stream));
  }
  // Replica 0's next batch is full: replica 1's queue starts.
  EXPECT_EQ(dispatcher.least_loaded_replica(), 1u);

  for (GateModel* gate : gates) gate->release();
  for (auto& future : futures) EXPECT_EQ(future.get(), row);
  dispatcher.drain();
}

// Routing in batches must not shrink admission: a full replica is skipped
// while another has room, so the fleet admits replicas x max_queue_depth.
TEST_F(FleetTest, FleetAdmitsEveryReplicasQueueDepth) {
  ModelRegistry registry;
  auto g0 = std::make_unique<GateModel>();
  auto g1 = std::make_unique<GateModel>();
  GateModel* gates[2] = {g0.get(), g1.get()};
  registry.add("Gate", std::move(g0), Shape({1, 8, 8}), /*warmup_batch=*/0);
  registry.add_replica("Gate", std::move(g1), /*warmup_batch=*/0);

  BatchPolicy policy;
  policy.max_batch_size = 8;
  policy.max_queue_depth = 2;
  ReplicaDispatcher dispatcher(registry, "Gate", policy, fast_supervisor(/*wedge=*/0));
  for (GateModel* gate : gates) gate->block();

  const std::vector<float> row = test_row();
  std::vector<ResponseFuture> futures;
  futures.push_back(dispatcher.submit(row, 1, 0));
  gates[0]->wait_entered(1);
  futures.push_back(dispatcher.submit(row, 1, 1));
  gates[1]->wait_entered(1);
  futures.push_back(dispatcher.submit(row, 1, 2));  // fills replica 0
  futures.push_back(dispatcher.submit(row, 1, 3));  // so this goes to replica 1
  EXPECT_THROW((void)dispatcher.submit(row, 1, 4), Overloaded);

  for (GateModel* gate : gates) gate->release();
  for (auto& future : futures) EXPECT_EQ(future.get(), row);
  dispatcher.drain();
}

// ---------------------------------------------------------------------------
// Supervision: wedge -> quarantine -> restart state machine.
// ---------------------------------------------------------------------------

TEST_F(FleetTest, WedgedReplicaIsQuarantinedRestartedAndServesAgain) {
  ModelRegistry registry = make_echo_registry(2);
  BatchPolicy policy;
  policy.max_batch_size = 1;
  ReplicaDispatcher dispatcher(registry, "Echo", policy, fast_supervisor());

  // First executed batch parks its executor mid-flight (the wedge seam).
  faultinject::configure("serve_replica_wedge:@0");
  const std::vector<float> row = test_row();
  auto wedged = dispatcher.submit(row, 1, 0);
  // The supervisor must fail the wedged request typed — never hang it.
  try {
    (void)wedged.get();
    FAIL() << "wedged request completed instead of failing typed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos);
  }
  EXPECT_GE(dispatcher.quarantines(), 1u);

  // ... and then restart the replica back to a full fleet.
  ASSERT_TRUE(eventually([&] {
    return dispatcher.restarts() >= 1 && dispatcher.healthy_replicas() == 2;
  }));
  EXPECT_EQ(dispatcher.quarantined_replicas(), 0u);

  // The rebuilt replica serves bit-identical results.
  faultinject::clear();
  auto healed = dispatcher.submit(row, 1, 1);
  EXPECT_EQ(healed.get(), row);
  dispatcher.drain();
}

TEST_F(FleetTest, RoutingSkipsQuarantinedReplicaWhileRestartFails) {
  ModelRegistry registry = make_echo_registry(2);
  BatchPolicy policy;
  policy.max_batch_size = 1;
  ReplicaDispatcher dispatcher(registry, "Echo", policy, fast_supervisor());

  // Wedge replica 0's first batch and make every restart attempt fail, so
  // the quarantine is held open instead of healing within one tick.
  faultinject::configure("serve_replica_wedge:@0,serve_replica_restart:1.0");
  const std::vector<float> row = test_row();
  EXPECT_THROW((void)dispatcher.submit(row, 1, 0).get(), Error);
  ASSERT_TRUE(eventually([&] { return dispatcher.quarantined_replicas() == 1; }));

  // Routing skips the corpse: everything lands on replica 1 and succeeds.
  EXPECT_EQ(dispatcher.healthy_replicas(), 1u);
  EXPECT_EQ(dispatcher.least_loaded_replica(), 1u);
  for (int i = 0; i < 4; ++i) {
    auto f = dispatcher.submit(row, 1, static_cast<std::uint64_t>(10 + i));
    EXPECT_EQ(f.get(), row);
  }

  // Restart attempts were made and kept failing; disarm and the next tick's
  // retry must heal the fleet.
  EXPECT_GE(faultinject::fired("serve_replica_restart"), 1u);
  faultinject::clear();
  ASSERT_TRUE(eventually([&] {
    return dispatcher.restarts() >= 1 && dispatcher.healthy_replicas() == 2;
  }));
  dispatcher.drain();
}

TEST_F(FleetTest, ErroringReplicaIsQuarantinedAndFleetRejectsTyped) {
  ModelRegistry registry = make_echo_registry(1);
  BatchPolicy policy;
  policy.max_batch_size = 1;
  // Wedge detection off; quarantine purely on consecutive batch errors.
  ReplicaDispatcher dispatcher(registry, "Echo", policy,
                               fast_supervisor(/*wedge=*/0, /*max_errors=*/2));

  faultinject::configure("serve_replica_error:1.0,serve_replica_restart:1.0");
  const std::vector<float> row = test_row();
  // Two back-to-back failed batches trip the error quarantine.
  EXPECT_THROW((void)dispatcher.submit(row, 1, 0).get(), Error);
  EXPECT_THROW((void)dispatcher.submit(row, 1, 1).get(), Error);
  ASSERT_TRUE(eventually([&] { return dispatcher.quarantined_replicas() == 1; }));
  EXPECT_GE(dispatcher.quarantines(), 1u);

  // Sole replica quarantined: submits are rejected typed, never queued
  // against a corpse or silently dropped.
  EXPECT_THROW((void)dispatcher.submit(row, 1, 2), Overloaded);

  // Disarm everything: restart succeeds and the replica serves again.
  faultinject::clear();
  ASSERT_TRUE(eventually([&] { return dispatcher.healthy_replicas() == 1; }));
  auto healed = dispatcher.submit(row, 1, 3);
  EXPECT_EQ(healed.get(), row);
  dispatcher.drain();
}

// ---------------------------------------------------------------------------
// Health: some-but-not-all quarantined reports kDegraded.
// ---------------------------------------------------------------------------

TEST_F(FleetTest, HealthReportsDegradedWhileReplicaQuarantined) {
  ModelRegistry registry = make_echo_registry(2);
  ServerOptions options;
  options.endpoint = socket_path_;
  options.policy.max_batch_size = 1;
  options.supervisor = fast_supervisor();
  Server server(registry, options);
  server.start();

  Client client(socket_path_);
  EXPECT_EQ(client.health(), HealthStatus::kReady);

  // Hold a quarantine open: wedge replica 0, fail every restart attempt.
  faultinject::configure("serve_replica_wedge:@0,serve_replica_restart:1.0");
  EXPECT_THROW((void)client.generate(echo_request()), Error);  // failed typed
  ASSERT_TRUE(eventually([&] { return client.health() == HealthStatus::kDegraded; }));

  // The degraded fleet still serves from the healthy replica.
  const GenerateResponse response = client.generate(echo_request());
  EXPECT_EQ(response.voltages, test_row());

  // Heal: restarts resume, health returns to kReady.
  faultinject::clear();
  ASSERT_TRUE(eventually([&] { return client.health() == HealthStatus::kReady; }));
  server.drain_and_stop();
  const std::string json = server.metrics().to_json();
  EXPECT_NE(json.find("\"replica_quarantines\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"replica_restarts\": 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tenant admission: token-bucket unit semantics + end-to-end kRateLimited.
// ---------------------------------------------------------------------------

TEST(TenantGovernorTest, DisabledPolicyIsANoOp) {
  TenantGovernor governor(TenantPolicy{});
  EXPECT_FALSE(governor.enabled());
  for (std::uint32_t t = 0; t < 100; ++t) EXPECT_TRUE(governor.admit(t).admitted);
  EXPECT_EQ(governor.tracked_tenants(), 0u);  // no state accrued
}

TEST(TenantGovernorTest, BucketRefillsAtRateUpToBurst) {
  TenantPolicy policy;
  policy.rate_per_sec = 1.0;
  policy.burst = 2.0;
  TenantGovernor governor(policy);
  const auto t0 = std::chrono::steady_clock::time_point{} + std::chrono::hours(1);

  // A fresh tenant starts with a full bucket: the burst is admitted...
  EXPECT_TRUE(governor.admit(1, t0).admitted);
  EXPECT_TRUE(governor.admit(1, t0).admitted);
  // ... and the next request at the same instant is rejected with the exact
  // time until one full token refills (1 token / 1 rps = 1s).
  const TenantGovernor::Decision rejected = governor.admit(1, t0);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(rejected.retry_after_micros, 1'000'000u);

  // Buckets are per tenant: tenant 2 is untouched by tenant 1's storm.
  EXPECT_TRUE(governor.admit(2, t0).admitted);
  EXPECT_EQ(governor.tracked_tenants(), 2u);

  // Half the refill interval buys nothing; the full interval buys one token,
  // and a long quiet period refills to burst but never beyond it.
  EXPECT_FALSE(governor.admit(1, t0 + std::chrono::milliseconds(500)).admitted);
  EXPECT_TRUE(governor.admit(1, t0 + std::chrono::seconds(2)).admitted);
  EXPECT_TRUE(governor.admit(1, t0 + std::chrono::hours(2)).admitted);
  EXPECT_TRUE(governor.admit(1, t0 + std::chrono::hours(2)).admitted);
  EXPECT_FALSE(governor.admit(1, t0 + std::chrono::hours(2)).admitted);
}

TEST_F(FleetTest, OverRateTenantIsShedTypedWithoutTouchingOthers) {
  ModelRegistry registry = make_echo_registry(1);
  ServerOptions options;
  options.endpoint = socket_path_;
  options.policy.max_batch_size = 1;
  options.tenant.rate_per_sec = 1.0;  // refill far slower than the test runs
  options.tenant.burst = 1.0;
  Server server(registry, options);
  server.start();

  Client client(socket_path_);
  // Tenant 7's single burst token admits the first request...
  const GenerateResponse ok = client.generate(echo_request(/*tenant=*/7));
  EXPECT_EQ(ok.voltages, test_row());
  // ... and the immediate second is shed typed, with a usable retry hint,
  // on a connection that stays healthy.
  try {
    (void)client.generate(echo_request(/*tenant=*/7));
    FAIL() << "over-rate tenant was admitted";
  } catch (const RateLimited& e) {
    EXPECT_GT(e.retry_after_micros(), 0u);
  }

  // Another tenant (and the default tenant 0) sail through untouched.
  EXPECT_EQ(client.generate(echo_request(/*tenant=*/8)).voltages, test_row());
  EXPECT_EQ(client.generate(echo_request(/*tenant=*/0)).voltages, test_row());

  server.drain_and_stop();
  EXPECT_NE(server.metrics().to_json().find("\"rate_limited\": 1"), std::string::npos);
}

TEST_F(FleetTest, ClientRetryBacksOffPastRateLimitAndSucceeds) {
  ModelRegistry registry = make_echo_registry(1);
  ServerOptions options;
  options.endpoint = socket_path_;
  options.policy.max_batch_size = 1;
  options.tenant.rate_per_sec = 50.0;  // one token every 20ms
  options.tenant.burst = 1.0;
  Server server(registry, options);
  server.start();

  Client client(socket_path_);
  EXPECT_EQ(client.generate(echo_request(/*tenant=*/3)).voltages, test_row());

  // The bucket is empty; a bare generate is shed, but generate_with_retry
  // sleeps past the server's retry_after hint and lands on the refill.
  RetryPolicy retry;
  retry.max_attempts = 5;
  retry.base_backoff_micros = 1'000;
  retry.max_backoff_micros = 50'000;
  retry.seed = 42;
  const GenerateResponse response =
      client.generate_with_retry(echo_request(/*tenant=*/3), retry);
  EXPECT_EQ(response.voltages, test_row());
  server.drain_and_stop();
}

// ---------------------------------------------------------------------------
// Retired protocol v1: type byte 1 is an unknown type now.
// ---------------------------------------------------------------------------

TEST_F(FleetTest, RetiredV1GenerateGetsTypedErrorAndConnectionKeepsServing) {
  ModelRegistry registry = make_echo_registry(2);
  ServerOptions options;
  options.endpoint = socket_path_;
  options.policy.max_batch_size = 1;
  Server server(registry, options);
  server.start();

  // Reference response through the typed client.
  Client client(socket_path_);
  const GenerateResponse expected = client.generate(echo_request());

  // What a v1 client sent: type byte 1, then the generate body without the
  // u32 tenant header.
  std::vector<std::uint8_t> v1_payload = encode_generate_request(echo_request());
  v1_payload.erase(v1_payload.begin() + 1, v1_payload.begin() + 5);
  v1_payload[0] = 1;
  RawConn raw(socket_path_);
  raw.send_payload(v1_payload);
  std::vector<std::uint8_t> reply;
  ASSERT_TRUE(raw.read_payload(reply));
  ASSERT_EQ(peek_type(reply), MessageType::kError);
  EXPECT_NE(decode_error(reply).find("unexpected message type 1"), std::string::npos);

  // The same connection still serves a current generate, bit-identically.
  raw.send_payload(encode_generate_request(echo_request()));
  ASSERT_TRUE(raw.read_payload(reply));
  ASSERT_EQ(peek_type(reply), MessageType::kGenerateOk);
  const GenerateResponse served = decode_generate_response(reply);
  EXPECT_EQ(served.side, expected.side);
  EXPECT_EQ(served.voltages, expected.voltages);

  server.drain_and_stop();
}

// ---------------------------------------------------------------------------
// Connection hygiene: idle eviction, pipeline cap, buffered-bytes cap.
// ---------------------------------------------------------------------------

TEST_F(FleetTest, IdleConnectionsAreEvictedWhileActiveOnesSurvive) {
  ModelRegistry registry = make_echo_registry(1);
  ServerOptions options;
  options.endpoint = socket_path_;
  options.policy.max_batch_size = 1;
  options.idle_timeout_micros = 50'000;
  Server server(registry, options);
  server.start();

  RawConn idle(socket_path_);  // connects, then never speaks
  Client active(socket_path_);
  // Keep the active connection busy well past the idle timeout; it must
  // never be evicted while making protocol progress.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(active.generate(echo_request()).voltages, test_row());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // The silent connection was cut loose (orderly EOF, no error frame owed).
  EXPECT_TRUE(idle.at_eof());
  // ... and the active one still works right after.
  EXPECT_EQ(active.generate(echo_request()).voltages, test_row());

  server.drain_and_stop();
  EXPECT_NE(server.metrics().to_json().find("\"conn_evicted\": 1"), std::string::npos);
}

TEST_F(FleetTest, PipelineCapEvictsConnectionWithTypedError) {
  ModelRegistry registry;
  auto gate_owner = std::make_unique<GateModel>();
  GateModel* gate = gate_owner.get();
  registry.add("Gate", std::move(gate_owner), Shape({1, 8, 8}), /*warmup_batch=*/0);
  ServerOptions options;
  options.endpoint = socket_path_;
  options.policy.max_batch_size = 1;
  options.max_pipelined_requests = 2;
  Server server(registry, options);
  server.start();

  GenerateRequest request = echo_request();
  request.model = "Gate";
  gate->block();  // responses can't drain, so pipelined slots stay occupied

  RawConn raw(socket_path_);
  raw.send_payload(encode_generate_request(request));
  raw.send_payload(encode_generate_request(request));
  raw.send_payload(encode_generate_request(request));  // one past the cap

  // The overflowing frame evicts the connection: a typed kError frame (the
  // in-order pending slots are forfeit), then EOF.
  std::vector<std::uint8_t> reply;
  ASSERT_TRUE(raw.read_payload(reply));
  ASSERT_EQ(peek_type(reply), MessageType::kError);
  EXPECT_NE(decode_error(reply).find("pipelin"), std::string::npos);
  EXPECT_TRUE(raw.at_eof());

  gate->release();
  server.stop();  // the evicted conn's admitted work may still be in flight
  EXPECT_NE(server.metrics().to_json().find("\"conn_evicted\": 1"), std::string::npos);
}

TEST_F(FleetTest, BufferedBytesCapEvictsSlowLorisFrames) {
  ModelRegistry registry = make_echo_registry(1);
  ServerOptions options;
  options.endpoint = socket_path_;
  options.policy.max_batch_size = 1;
  options.max_conn_buffered_bytes = 1024;
  Server server(registry, options);
  server.start();

  // A frame header promising 100KB, followed by enough dribbled body to blow
  // the 1KB cap without ever completing the frame.
  RawConn raw(socket_path_);
  std::vector<std::uint8_t> bytes(4 + 2048, 0xAB);
  const std::uint32_t claimed = 100'000;
  std::memcpy(bytes.data(), &claimed, sizeof(claimed));
  raw.send_raw(bytes);

  std::vector<std::uint8_t> reply;
  ASSERT_TRUE(raw.read_payload(reply));
  ASSERT_EQ(peek_type(reply), MessageType::kError);
  EXPECT_NE(decode_error(reply).find("buffer"), std::string::npos);
  EXPECT_TRUE(raw.at_eof());

  // Well-behaved traffic is untouched by the small cap (frames below it).
  Client client(socket_path_);
  EXPECT_EQ(client.generate(echo_request()).voltages, test_row());
  server.drain_and_stop();
}

// ---------------------------------------------------------------------------
// Drain under quarantine: the chaos invariant end to end.
// ---------------------------------------------------------------------------

// Every pipelined request on a connection must be answered — healthy bits or
// a typed error, never a hang or a silent drop — even when a replica wedges
// and is quarantined while a graceful drain is in progress.
TEST_F(FleetTest, DrainAnswersEveryPipelinedRequestDespiteWedgedReplica) {
  ModelRegistry registry = make_echo_registry(2);
  ServerOptions options;
  options.endpoint = socket_path_;
  options.policy.max_batch_size = 1;
  options.supervisor = fast_supervisor();
  Server server(registry, options);
  server.start();

  faultinject::configure("serve_replica_wedge:@0");

  constexpr int kRequests = 8;
  RawConn raw(socket_path_);
  for (int i = 0; i < kRequests; ++i) {
    GenerateRequest request = echo_request();
    request.stream = static_cast<std::uint64_t>(i);
    raw.send_payload(encode_generate_request(request));
  }
  // Ensure the wedge actually engaged before draining.
  ASSERT_TRUE(eventually([&] { return faultinject::fired("serve_replica_wedge") >= 1; }));

  std::thread drainer([&] { server.drain_and_stop(); });

  int ok = 0, errors = 0;
  for (int i = 0; i < kRequests; ++i) {
    std::vector<std::uint8_t> reply;
    ASSERT_TRUE(raw.read_payload(reply)) << "request " << i << " never answered";
    const MessageType type = peek_type(reply);
    if (type == MessageType::kGenerateOk) {
      EXPECT_EQ(decode_generate_response(reply).voltages, test_row());
      ++ok;
    } else {
      // Quarantine failures answer kError; a frame dispatched after the
      // drain's admission close would answer kOverloaded. Both are typed.
      ASSERT_TRUE(type == MessageType::kError || type == MessageType::kOverloaded);
      ++errors;
    }
  }
  drainer.join();
  EXPECT_TRUE(raw.at_eof());  // all answered, then the drain closed the conn

  // The wedged replica's work failed typed; the healthy replica answered the
  // rest bit-identically. Nothing hung, nothing vanished.
  EXPECT_EQ(ok + errors, kRequests);
  EXPECT_GE(errors, 1);
  EXPECT_GE(ok, 1);
}

}  // namespace
}  // namespace flashgen::serve
