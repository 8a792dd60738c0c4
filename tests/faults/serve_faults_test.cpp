// Serve-side fault tolerance: bounded admission (typed kOverloaded
// rejection), queued-deadline shedding, graceful drain (in-flight responses
// delivered, new work shed, health reports draining), survival of client
// resets / hostile frames, and of injected socket faults.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

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
#include "models/generative_model.h"
#include "nn/module.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "serve/server.h"

namespace flashgen::serve {
namespace {

using tensor::Shape;
using tensor::Tensor;

// Identity "model" with a controllable gate in its sampling path: block()
// parks the engine thread inside sample() until release(), which lets tests
// hold a request in flight deterministically. Unblocked, it echoes the
// program levels back, so responses are trivially checkable.
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

  /// Blocks until sample() has been entered at least `n` times.
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

GenerateRequest gate_request() {
  GenerateRequest request;
  request.model = "Gate";
  request.seed = 1;
  request.stream = 0;
  request.side = 8;
  request.program_levels = test_row();
  return request;
}

// Connects to the server's socket, writes `bytes` raw, and hangs up — the
// shape of a client reset / hostile peer.
void raw_send(const std::string& socket_path, const std::vector<std::uint8_t>& bytes) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(socket_path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  if (!bytes.empty())
    (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  ::close(fd);
}

class ServeFaultsTest : public ::testing::Test {
 protected:
  ServeFaultsTest() {
    const std::string test_name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    socket_path_ = (std::filesystem::temp_directory_path() /
                    ("flashgen_faults_" + test_name + ".sock"))
                       .string();
  }

  ~ServeFaultsTest() override { faultinject::clear(); }

  std::string socket_path_;
};

// With the engine held busy, the admission bound (queue + in-flight) must
// reject the overflow request with the typed Overloaded error while the
// admitted requests still complete with correct bits.
TEST_F(ServeFaultsTest, AdmissionQueueBoundShedsExcess) {
  GateModel gate;
  InferenceEngine engine(gate);
  BatchPolicy policy;
  policy.max_batch_size = 1;
  policy.max_queue_depth = 2;
  ServeMetrics metrics;
  RequestBatcher batcher(engine, Shape({1, 8, 8}), policy, &metrics);

  const std::vector<float> row = test_row();
  gate.block();
  auto first = batcher.submit(row, /*seed=*/1, /*stream=*/0);
  gate.wait_entered(1);  // first is now in flight, holding the executor
  auto second = batcher.submit(row, /*seed=*/1, /*stream=*/1);  // queued
  EXPECT_THROW((void)batcher.submit(row, /*seed=*/1, /*stream=*/2), Overloaded);

  gate.release();
  EXPECT_EQ(first.get(), row);
  EXPECT_EQ(second.get(), row);
  batcher.drain();
  EXPECT_NE(metrics.to_json().find("\"shed\": 1"), std::string::npos);
}

// A request whose deadline expires while queued behind a slow batch is failed
// with DeadlineExceeded instead of occupying a batch slot.
TEST_F(ServeFaultsTest, ExpiredQueuedDeadlinesAreShed) {
  GateModel gate;
  InferenceEngine engine(gate);
  BatchPolicy policy;
  policy.max_batch_size = 1;
  ServeMetrics metrics;
  RequestBatcher batcher(engine, Shape({1, 8, 8}), policy, &metrics);

  const std::vector<float> row = test_row();
  gate.block();
  auto slow = batcher.submit(row, /*seed=*/1, /*stream=*/0);
  gate.wait_entered(1);
  auto doomed = batcher.submit(row, /*seed=*/1, /*stream=*/1, /*deadline_micros=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // let it expire

  gate.release();
  EXPECT_EQ(slow.get(), row);
  EXPECT_THROW((void)doomed.get(), DeadlineExceeded);
  batcher.drain();
  EXPECT_NE(metrics.to_json().find("\"deadline_exceeded\": 1"), std::string::npos);
}

TEST_F(ServeFaultsTest, ClosedBatcherRejectsNewWorkButFinishesAdmitted) {
  GateModel gate;
  InferenceEngine engine(gate);
  BatchPolicy policy;
  policy.max_batch_size = 1;
  RequestBatcher batcher(engine, Shape({1, 8, 8}), policy);

  const std::vector<float> row = test_row();
  gate.block();
  auto admitted = batcher.submit(row, /*seed=*/1, /*stream=*/0);
  gate.wait_entered(1);
  batcher.close();
  EXPECT_TRUE(batcher.closed());
  EXPECT_THROW((void)batcher.submit(row, /*seed=*/1, /*stream=*/1), Overloaded);

  gate.release();
  EXPECT_EQ(admitted.get(), row);
  batcher.drain();
}

// Full-stack graceful drain: with a request held in flight, drain_and_stop()
// must shed new requests (kOverloaded), answer health probes with kDraining,
// deliver the in-flight response, and only then tear the socket down.
TEST_F(ServeFaultsTest, DrainDeliversInFlightWorkAndShedsNewRequests) {
  auto gate_owner = std::make_unique<GateModel>();
  GateModel* gate = gate_owner.get();
  ModelRegistry registry;
  registry.add("Gate", std::move(gate_owner), Shape({1, 8, 8}), /*warmup_batch=*/0);
  ServerOptions options;
  options.endpoint = socket_path_;
  options.policy.max_batch_size = 1;
  options.policy.max_wait_micros = 100;
  Server server(registry, options);
  server.start();

  const GenerateRequest request = gate_request();
  {
    Client warm(socket_path_);
    EXPECT_EQ(warm.health(), HealthStatus::kReady);
  }

  gate->block();
  GenerateResponse in_flight_response;
  std::thread in_flight([&] {
    Client client(socket_path_);
    in_flight_response = client.generate(request);
  });
  gate->wait_entered(1);

  std::thread drainer([&] { server.drain_and_stop(); });
  while (!server.draining()) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  {
    // The drain is parked on the in-flight request, so the listener is still
    // up: new connections are accepted but their work is shed.
    Client probe(socket_path_);
    EXPECT_EQ(probe.health(), HealthStatus::kDraining);
    EXPECT_THROW((void)probe.generate(request), Overloaded);
  }

  gate->release();
  in_flight.join();
  drainer.join();
  EXPECT_EQ(in_flight_response.voltages, request.program_levels);
  EXPECT_FALSE(std::filesystem::exists(socket_path_));
  EXPECT_NE(server.metrics().to_json().find("\"shed\": 1"), std::string::npos);
}

// Hostile or truncated frames and mid-frame disconnects must only cost the
// offending connection; the server keeps serving everyone else.
TEST_F(ServeFaultsTest, ServerSurvivesClientResetsAndHostileFrames) {
  auto gate_owner = std::make_unique<GateModel>();
  ModelRegistry registry;
  registry.add("Gate", std::move(gate_owner), Shape({1, 8, 8}), /*warmup_batch=*/0);
  ServerOptions options;
  options.endpoint = socket_path_;
  Server server(registry, options);
  server.start();

  const GenerateRequest request = gate_request();
  const auto le32 = [](std::uint32_t v) {
    std::vector<std::uint8_t> b(4);
    for (int i = 0; i < 4; ++i) b[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
    return b;
  };

  std::vector<std::vector<std::uint8_t>> attacks;
  attacks.push_back({});                       // connect-and-reset, no bytes
  attacks.push_back({9, 9});                   // half a length header
  {
    std::vector<std::uint8_t> mid = le32(100);  // claims 100 bytes, sends 10
    mid.resize(14, 0xAA);
    attacks.push_back(std::move(mid));
  }
  attacks.push_back(le32(kMaxFrameBytes + 1));  // hostile length prefix
  attacks.push_back(le32(0));                   // empty payload
  {
    std::vector<std::uint8_t> bogus = le32(1);  // unknown message type
    bogus.push_back(200);
    attacks.push_back(std::move(bogus));
  }

  for (std::size_t i = 0; i < attacks.size(); ++i) {
    raw_send(socket_path_, attacks[i]);
    // The server must still answer a well-behaved client after every attack.
    Client client(socket_path_);
    const GenerateResponse response = client.generate(request);
    EXPECT_EQ(response.voltages, request.program_levels) << "after attack " << i;
  }
  server.stop();
}

// A peer that stops accepting bytes while its request is in flight makes the
// reply's write fail (EPIPE) when the completion is drained. That must cost
// only this connection. The gate holds the reply until after the client's
// shutdown(SHUT_RD), which raises no epoll event on the server side, so the
// failing write is the first the server learns of it — on every run.
TEST_F(ServeFaultsTest, PeerResetDuringReplyClosesOnlyThatConnection) {
  auto gate_owner = std::make_unique<GateModel>();
  GateModel* gate = gate_owner.get();
  ModelRegistry registry;
  registry.add("Gate", std::move(gate_owner), Shape({1, 8, 8}), /*warmup_batch=*/0);
  ServerOptions options;
  options.endpoint = socket_path_;
  Server server(registry, options);
  server.start();

  const GenerateRequest request = gate_request();
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(socket_path_.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  gate->block();
  framing::write_frame(fd, encode_generate_request(request));
  gate->wait_entered(1);  // the request is in flight
  ASSERT_EQ(::shutdown(fd, SHUT_RD), 0);
  gate->release();

  // The reply write to the dead peer happens before this request's, on the
  // same loop thread; the server must still be there to answer it.
  Client client(socket_path_);
  const GenerateResponse response = client.generate(request);
  EXPECT_EQ(response.voltages, request.program_levels);
  ::close(fd);
  server.stop();
}

// The "socket_reset" fault point severs connections at read/write_frame entry
// on both sides of the wire. Whatever the pattern does, the server process
// must neither crash nor hang, and must serve cleanly once disarmed.
TEST_F(ServeFaultsTest, InjectedSocketResetsNeverKillTheServer) {
  auto gate_owner = std::make_unique<GateModel>();
  ModelRegistry registry;
  registry.add("Gate", std::move(gate_owner), Shape({1, 8, 8}), /*warmup_batch=*/0);
  ServerOptions options;
  options.endpoint = socket_path_;
  Server server(registry, options);
  server.start();

  const GenerateRequest request = gate_request();
  faultinject::configure("socket_reset:0.3", /*seed=*/11);
  for (int i = 0; i < 20; ++i) {
    try {
      Client client(socket_path_);
      const GenerateResponse response = client.generate(request);
      EXPECT_EQ(response.voltages, request.program_levels);
    } catch (const Error&) {
      // An injected reset on either side of this exchange; the next
      // connection starts fresh.
    }
  }
  EXPECT_GT(faultinject::calls("socket_reset"), 0u);
  faultinject::clear();

  Client client(socket_path_);
  const GenerateResponse response = client.generate(request);
  EXPECT_EQ(response.voltages, request.program_levels);
  server.stop();
}

}  // namespace
}  // namespace flashgen::serve
