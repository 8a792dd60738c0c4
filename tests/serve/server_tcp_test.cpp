// Epoll front-end over TCP: bit-identity with the unix transport and the
// bare engine, pipelined requests on one connection, clean-EOF flushing,
// connection bursts beyond the listen backlog, replica dispatch, OS-assigned
// ports, TCP_NODELAY on accepted sockets, accept-path fault injection
// (transient errno storms must never silence the listener — the regression
// this suite pins down), and open-loop determinism across connection and
// replica counts.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/faultinject.h"
#include "core/experiment.h"
#include "data/dataset.h"
#include "serve/dispatcher.h"
#include "serve/endpoint.h"
#include "serve/loadgen.h"
#include "serve/server.h"

namespace flashgen::serve {
namespace {

using tensor::Shape;

std::unique_ptr<models::GenerativeModel> trained_gaussian(data::PairedDataset& dataset) {
  auto model = core::make_model(core::ModelKind::Gaussian, models::NetworkConfig{}, /*seed=*/0);
  models::TrainConfig train;
  flashgen::Rng rng(2);
  model->fit(dataset, train, rng);
  return model;
}

class ServerTcpTest : public ::testing::Test {
 protected:
  ServerTcpTest() {
    data::DatasetConfig config;
    config.array_size = 8;
    config.num_arrays = 64;
    config.channel.rows = 32;
    config.channel.cols = 32;
    flashgen::Rng rng(1);
    dataset_ = std::make_unique<data::PairedDataset>(data::PairedDataset::generate(config, rng));
  }

  GenerateRequest request_for(std::uint64_t stream) {
    GenerateRequest request;
    request.model = "Gaussian";
    request.seed = 11;
    request.stream = stream;
    request.side = 8;
    const std::vector<std::size_t> indices = {0};
    auto [pl, vl] = dataset_->batch(indices);
    request.program_levels.assign(pl.data().begin(), pl.data().end());
    return request;
  }

  // Ground truth from a bare engine over an identically-trained model:
  // deterministic fit means this model carries the same weights as every
  // replica the servers build.
  std::vector<float> expected_for(std::uint64_t stream) {
    if (!reference_model_) reference_model_ = trained_gaussian(*dataset_);
    InferenceEngine engine(*reference_model_);
    const std::vector<std::size_t> indices = {0};
    auto [pl, vl] = dataset_->batch(indices);
    std::vector<flashgen::Rng> rngs = {flashgen::Rng::from_stream(11, stream)};
    std::vector<float> out(pl.data().size());
    engine.generate_into(pl, rngs, out);
    return out;
  }

  // Registry with `replicas` identically-trained Gaussians under one name.
  ModelRegistry make_registry(int replicas = 1) {
    ModelRegistry registry;
    registry.add("Gaussian", trained_gaussian(*dataset_), Shape({1, 8, 8}), /*warmup_batch=*/2);
    for (int r = 1; r < replicas; ++r)
      registry.add_replica("Gaussian", trained_gaussian(*dataset_), /*warmup_batch=*/2);
    return registry;
  }

  std::unique_ptr<data::PairedDataset> dataset_;
  std::unique_ptr<models::GenerativeModel> reference_model_;
};

TEST_F(ServerTcpTest, TcpMatchesUnixAndDirectEngineBitForBit) {
  ModelRegistry tcp_registry = make_registry(/*replicas=*/2);
  ServerOptions options;
  options.endpoint = "tcp:127.0.0.1:0";
  Server tcp_server(tcp_registry, options);
  tcp_server.start();
  ASSERT_NE(tcp_server.port(), 0);

  const std::string unix_path =
      (std::filesystem::temp_directory_path() / "flashgen_tcp_vs_unix.sock").string();
  ModelRegistry unix_registry = make_registry();
  ServerOptions unix_options;
  unix_options.endpoint = unix_path;
  Server unix_server(unix_registry, unix_options);
  unix_server.start();

  Client tcp_client(tcp_server.endpoint());
  Client unix_client(unix_path);
  for (std::uint64_t stream : {0ull, 3ull, 99ull}) {
    const GenerateRequest request = request_for(stream);
    const std::vector<float> expected = expected_for(stream);
    const GenerateResponse over_tcp = tcp_client.generate(request);
    const GenerateResponse over_unix = unix_client.generate(request);
    ASSERT_EQ(over_tcp.voltages.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(over_tcp.voltages[i], expected[i]) << "tcp element " << i;
      ASSERT_EQ(over_unix.voltages[i], expected[i]) << "unix element " << i;
    }
  }
  tcp_server.stop();
  unix_server.stop();
}

TEST_F(ServerTcpTest, PipelinedRequestsComeBackInOrder) {
  ModelRegistry registry = make_registry();
  ServerOptions options;
  options.endpoint = "tcp:127.0.0.1:0";
  Server server(registry, options);
  server.start();

  // Raw pipelining: write every request before reading any response. The
  // server must answer strictly in request order even though batching and
  // replica dispatch reorder execution internally.
  constexpr std::uint64_t kPipelined = 16;
  const int fd = connect_endpoint(parse_endpoint(server.endpoint()));
  for (std::uint64_t stream = 0; stream < kPipelined; ++stream) {
    write_frame(fd, encode_generate_request(request_for(stream)));
  }
  // A health probe rides the same pipeline and must not jump the queue.
  write_frame(fd, encode_health_request());

  for (std::uint64_t stream = 0; stream < kPipelined; ++stream) {
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(read_frame(fd, payload)) << "stream " << stream;
    ASSERT_EQ(peek_type(payload), MessageType::kGenerateOk) << "stream " << stream;
    const GenerateResponse response = decode_generate_response(payload);
    EXPECT_EQ(response.voltages, expected_for(stream)) << "stream " << stream;
  }
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(fd, payload));
  EXPECT_EQ(peek_type(payload), MessageType::kHealthOk);
  ::close(fd);
  server.stop();
}

TEST_F(ServerTcpTest, CleanEofStillFlushesPipelinedResponses) {
  ModelRegistry registry = make_registry();
  ServerOptions options;
  options.endpoint = "tcp:127.0.0.1:0";
  Server server(registry, options);
  server.start();

  // Write three requests, then close the write side before reading anything:
  // a well-behaved one-shot client. The server owes all three responses, then
  // closes.
  const int fd = connect_endpoint(parse_endpoint(server.endpoint()));
  for (std::uint64_t stream = 0; stream < 3; ++stream) {
    write_frame(fd, encode_generate_request(request_for(stream)));
  }
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

  for (std::uint64_t stream = 0; stream < 3; ++stream) {
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(read_frame(fd, payload)) << "stream " << stream;
    EXPECT_EQ(decode_generate_response(payload).voltages, expected_for(stream));
  }
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(read_frame(fd, payload));  // server closed after the flush
  ::close(fd);
  server.stop();
}

TEST_F(ServerTcpTest, ConnectionBurstWithDefaultBacklogIsLossFree) {
  // The old front-end hardcoded listen(fd, 64); the default is now SOMAXCONN,
  // so a burst well past 64 must be served without a single reset.
  ModelRegistry registry = make_registry();
  ServerOptions options;
  options.endpoint = "tcp:127.0.0.1:0";
  Server server(registry, options);
  server.start();
  const std::string endpoint = server.endpoint();

  constexpr int kClients = 96;
  // Precompute requests and ground truth on this thread: the lazily-built
  // reference model in the fixture is not safe to initialize concurrently.
  std::vector<GenerateRequest> requests;
  std::vector<std::vector<float>> expected;
  for (int c = 0; c < kClients; ++c) {
    requests.push_back(request_for(static_cast<std::uint64_t>(c)));
    expected.push_back(expected_for(static_cast<std::uint64_t>(c)));
  }
  std::atomic<int> correct{0};
  std::mutex failures_mutex;
  std::vector<std::string> failures;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        Client client(endpoint);
        const GenerateResponse response = client.generate(requests[static_cast<std::size_t>(c)]);
        if (response.voltages == expected[static_cast<std::size_t>(c)]) correct.fetch_add(1);
      } catch (const Error& e) {
        std::lock_guard<std::mutex> lock(failures_mutex);
        failures.push_back(e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(correct.load(), kClients)
      << (failures.empty() ? std::string("wrong bits") : failures.front());
  server.stop();
}

TEST_F(ServerTcpTest, TinyBacklogBurstSurvivesWithClientRetries) {
  // backlog=1 forces accept-queue overflow: the kernel drops handshakes and
  // RSTs early data, which well-behaved clients answer by reconnecting. The
  // server must ride out the storm — every client lands within a few
  // retries, and the listener never goes quiet (the accept_errors retry
  // machinery plus level-triggered accept drain).
  ModelRegistry registry = make_registry();
  ServerOptions options;
  options.endpoint = "tcp:127.0.0.1:0";
  options.backlog = 1;
  Server server(registry, options);
  server.start();
  const std::string endpoint = server.endpoint();

  constexpr int kClients = 32;
  // Same as above: requests and ground truth come from the fixture's shared
  // lazily-built reference model, so compute them before the threads start.
  std::vector<GenerateRequest> requests;
  std::vector<std::vector<float>> expected;
  for (int c = 0; c < kClients; ++c) {
    requests.push_back(request_for(static_cast<std::uint64_t>(c)));
    expected.push_back(expected_for(static_cast<std::uint64_t>(c)));
  }
  std::atomic<int> correct{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int attempt = 0; attempt < 10; ++attempt) {
        try {
          Client client(endpoint);
          const GenerateResponse response = client.generate(requests[static_cast<std::size_t>(c)]);
          if (response.voltages == expected[static_cast<std::size_t>(c)]) correct.fetch_add(1);
          return;
        } catch (const Error&) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10 * (attempt + 1)));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(correct.load(), kClients);
  server.stop();
}

TEST_F(ServerTcpTest, OsAssignedPortIsReflectedInEndpoint) {
  ModelRegistry a = make_registry();
  ModelRegistry b = make_registry();
  ServerOptions options;
  options.endpoint = "tcp:127.0.0.1:0";
  Server first(a, options);
  Server second(b, options);
  EXPECT_NE(first.port(), 0);
  EXPECT_NE(second.port(), 0);
  EXPECT_NE(first.port(), second.port());
  EXPECT_EQ(first.endpoint(), "tcp:127.0.0.1:" + std::to_string(first.port()));
}

// The server accepts through accept_endpoint, so this pins what every
// accepted TCP connection gets: TCP_NODELAY, without which a pipelined reply
// written behind an unacknowledged one waits for the client's delayed ACK.
TEST(AcceptEndpoint, AcceptedTcpSocketsDisableNagle) {
  const Endpoint spec = parse_endpoint("tcp:127.0.0.1:0");
  const int listener = listen_endpoint(spec, SOMAXCONN);
  Endpoint bound = spec;
  bound.port = bound_port(listener);
  const int client = connect_endpoint(bound);
  const int accepted = accept_endpoint(bound, listener);
  ASSERT_GE(accepted, 0) << std::strerror(errno);
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
  EXPECT_EQ(nodelay, 1);
  ::close(accepted);
  ::close(client);
  ::close(listener);
}

TEST_F(ServerTcpTest, TransientAcceptErrorsAreRetriedAndCounted) {
  ModelRegistry registry = make_registry();
  ServerOptions options;
  options.endpoint = "tcp:127.0.0.1:0";
  Server server(registry, options);
  server.start();

  // The first evaluation of the accept-path fault point simulates
  // accept() => ECONNABORTED. The old thread-per-connection loop exited
  // permanently here; the event loop must retry and accept the waiting
  // client on the next pass.
  faultinject::configure("serve_accept_transient:@0", /*seed=*/7);
  Client client(server.endpoint());
  const GenerateResponse response = client.generate(request_for(5));
  EXPECT_EQ(response.voltages, expected_for(5));
  EXPECT_GE(faultinject::fired("serve_accept_transient"), 1u);
  faultinject::clear();

  EXPECT_NE(server.metrics().to_json().find("\"accept_errors\": 1"), std::string::npos);
  server.stop();
}

TEST_F(ServerTcpTest, FdExhaustionPausesAndRecoversWithoutDroppingTheListener) {
  ModelRegistry registry = make_registry();
  ServerOptions options;
  options.endpoint = "tcp:127.0.0.1:0";
  Server server(registry, options);
  server.start();

  // Simulated EMFILE: the loop must back off briefly and resume accepting —
  // level-triggered epoll re-reports the still-pending connection.
  faultinject::configure("serve_accept_exhausted:@0", /*seed=*/7);
  Client client(server.endpoint());
  const GenerateResponse response = client.generate(request_for(6));
  EXPECT_EQ(response.voltages, expected_for(6));
  EXPECT_GE(faultinject::fired("serve_accept_exhausted"), 1u);
  faultinject::clear();

  EXPECT_NE(server.metrics().to_json().find("\"accept_errors\": 1"), std::string::npos);
  server.stop();
}

TEST_F(ServerTcpTest, OpenLoopChecksumIsInvariantToConnectionsAndReplicas) {
  // Determinism at scale: one (seed, stream) workload over a handful of
  // connections and over many, against a two-replica server, then over a
  // handful against a one-replica server. Transport layout, pipelining,
  // batching and replica choice must all be invisible in the bits, so the
  // order-independent response checksums agree.
  ServerOptions options;
  options.endpoint = "tcp:127.0.0.1:0";
  options.policy.max_batch_size = 8;
  options.policy.max_wait_micros = 200;
  options.policy.max_queue_depth = 0;  // never shed: every request must land
  const auto run = [](const std::string& endpoint, int connections) {
    OpenLoopOptions loop;
    loop.endpoint = endpoint;
    loop.model = "Gaussian";
    loop.side = 8;
    loop.seed = 1;
    loop.connections = connections;
    loop.total_requests = 256;
    loop.target_rps = 4000.0;
    return run_open_loop(loop);
  };

  ModelRegistry pair_registry = make_registry(/*replicas=*/2);
  Server pair(pair_registry, options);
  pair.start();
  const OpenLoopResult few = run(pair.endpoint(), 7);
  const OpenLoopResult many = run(pair.endpoint(), 64);
  pair.drain_and_stop();

  ModelRegistry single_registry = make_registry();
  Server single(single_registry, options);
  single.start();
  const OpenLoopResult alone = run(single.endpoint(), 7);
  single.drain_and_stop();

  for (const OpenLoopResult* r : {&few, &many, &alone}) {
    EXPECT_EQ(r->sent, 256u);
    EXPECT_EQ(r->ok, r->sent);
  }
  EXPECT_NE(few.checksum, 0u);
  EXPECT_EQ(few.checksum, many.checksum);
  EXPECT_EQ(few.checksum, alone.checksum);
}

TEST_F(ServerTcpTest, ReplicaDispatcherBalancesAndDrains) {
  // Three replica engines, each over its own identically-trained model (the
  // deterministic fit makes the weights equal): concurrent submits must
  // spread across replicas (least-loaded) and every result must match the
  // single-engine reference bits.
  auto m0 = trained_gaussian(*dataset_);
  auto m1 = trained_gaussian(*dataset_);
  auto m2 = trained_gaussian(*dataset_);
  InferenceEngine e0(*m0), e1(*m1), e2(*m2);
  BatchPolicy policy;
  policy.max_batch_size = 2;
  policy.max_wait_micros = 200;
  ReplicaDispatcher dispatcher({&e0, &e1, &e2}, Shape({1, 8, 8}), policy);
  ASSERT_EQ(dispatcher.replicas(), 3u);

  const std::vector<std::size_t> indices = {0};
    auto [pl, vl] = dataset_->batch(indices);
  const std::vector<float> row(pl.data().begin(), pl.data().end());
  std::vector<ResponseFuture> futures;
  for (std::uint64_t stream = 0; stream < 24; ++stream) {
    futures.push_back(dispatcher.submit(row, /*seed=*/11, stream));
  }
  for (std::uint64_t stream = 0; stream < 24; ++stream) {
    EXPECT_EQ(futures[stream].get(), expected_for(stream)) << "stream " << stream;
  }
  dispatcher.close();
  dispatcher.drain();
  EXPECT_EQ(dispatcher.outstanding(), 0u);
}

}  // namespace
}  // namespace flashgen::serve
