// Wire-protocol tests: encode/decode round trips, bounds-checked rejection
// of malformed payloads, and fd framing over a socketpair.
#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "serve/protocol.h"

namespace flashgen::serve {
namespace {

GenerateRequest sample_request() {
  GenerateRequest request;
  request.model = "cVAE-GAN";
  request.tenant_id = 42;
  request.seed = 0xDEADBEEFCAFEF00DULL;
  request.stream = 17;
  request.deadline_micros = 123456;
  request.side = 4;
  for (int i = 0; i < 16; ++i) request.program_levels.push_back(0.125f * static_cast<float>(i) - 1.0f);
  return request;
}

TEST(ProtocolTest, GenerateRequestRoundTrip) {
  const GenerateRequest request = sample_request();
  // The encoder emits kGenerateV2 (tenant header included).
  const auto payload = encode_generate_request(request);
  EXPECT_EQ(peek_type(payload), MessageType::kGenerateV2);

  const GenerateRequest decoded = decode_generate_request(payload);
  EXPECT_EQ(decoded.model, request.model);
  EXPECT_EQ(decoded.tenant_id, request.tenant_id);
  EXPECT_EQ(decoded.seed, request.seed);
  EXPECT_EQ(decoded.stream, request.stream);
  EXPECT_EQ(decoded.deadline_micros, request.deadline_micros);
  EXPECT_EQ(decoded.side, request.side);
  EXPECT_EQ(decoded.program_levels, request.program_levels);
}

TEST(ProtocolTest, RateLimitedRoundTrip) {
  const auto payload = encode_rate_limited(123456, "tenant 7 over admission rate");
  EXPECT_EQ(peek_type(payload), MessageType::kRateLimited);
  const RateLimitedInfo info = decode_rate_limited(payload);
  EXPECT_EQ(info.retry_after_micros, 123456u);
  EXPECT_EQ(info.message, "tenant 7 over admission rate");
  EXPECT_THROW((void)decode_rate_limited(encode_error("x")), Error);
}

TEST(ProtocolTest, HealthAndOverloadedRoundTrip) {
  EXPECT_EQ(peek_type(encode_health_request()), MessageType::kHealth);
  EXPECT_EQ(decode_health_response(encode_health_response(HealthStatus::kReady)),
            HealthStatus::kReady);
  EXPECT_EQ(decode_health_response(encode_health_response(HealthStatus::kDraining)),
            HealthStatus::kDraining);
  EXPECT_EQ(decode_health_response(encode_health_response(HealthStatus::kDegraded)),
            HealthStatus::kDegraded);
  EXPECT_EQ(decode_overloaded(encode_overloaded("queue full")), "queue full");

  // A health answer with an out-of-range status byte must be rejected, not
  // cast blindly into the enum.
  auto payload = encode_health_response(HealthStatus::kReady);
  payload.back() = 99;
  EXPECT_THROW((void)decode_health_response(payload), Error);
}

TEST(ProtocolTest, GenerateResponseRoundTrip) {
  GenerateResponse response;
  response.side = 3;
  for (int i = 0; i < 9; ++i) response.voltages.push_back(static_cast<float>(i) * 0.1f);
  const auto payload = encode_generate_response(response);
  EXPECT_EQ(peek_type(payload), MessageType::kGenerateOk);

  const GenerateResponse decoded = decode_generate_response(payload);
  EXPECT_EQ(decoded.side, response.side);
  EXPECT_EQ(decoded.voltages, response.voltages);
}

TEST(ProtocolTest, ThresholdQueryRoundTrip) {
  ThresholdQuery query;
  query.model = "Temporal";
  query.tenant_id = 9;
  query.pe_cycles = 4321.5;
  query.retention_hours = 0.1;  // not exactly representable: must survive bit-exactly
  const auto payload = encode_threshold_query(query);
  EXPECT_EQ(peek_type(payload), MessageType::kThresholdQuery);

  const ThresholdQuery decoded = decode_threshold_query(payload);
  EXPECT_EQ(decoded.model, query.model);
  EXPECT_EQ(decoded.tenant_id, query.tenant_id);
  EXPECT_EQ(decoded.pe_cycles, query.pe_cycles);
  EXPECT_EQ(decoded.retention_hours, query.retention_hours);
}

TEST(ProtocolTest, ThresholdResponseRoundTrip) {
  ThresholdResponse response;
  for (int k = 0; k < 7; ++k) response.thresholds[static_cast<std::size_t>(k)] = 100.0 * k + 0.25;
  response.page_ber = {1e-3, 2e-4, 3.5e-5};
  response.level_error_rate = 4.2e-3;
  response.mutual_information_bits = 2.987654321;
  response.sample_cells = 1ull << 40;
  response.from_cache = true;
  const auto payload = encode_threshold_response(response);
  EXPECT_EQ(peek_type(payload), MessageType::kThresholdOk);

  const ThresholdResponse decoded = decode_threshold_response(payload);
  EXPECT_EQ(decoded.thresholds, response.thresholds);
  EXPECT_EQ(decoded.page_ber, response.page_ber);
  EXPECT_EQ(decoded.level_error_rate, response.level_error_rate);
  EXPECT_EQ(decoded.mutual_information_bits, response.mutual_information_bits);
  EXPECT_EQ(decoded.sample_cells, response.sample_cells);
  EXPECT_TRUE(decoded.from_cache);

  // The from_cache byte is the last payload byte (the loadgen checksum
  // canonicalization relies on this); values beyond 0/1 must be rejected.
  auto corrupted = payload;
  EXPECT_EQ(corrupted.back(), 1);
  corrupted.back() = 2;
  EXPECT_THROW((void)decode_threshold_response(corrupted), Error);
}

TEST(ProtocolTest, TruncatedThresholdPayloadsAreRejected) {
  ThresholdQuery query;
  query.model = "Temporal";
  const auto q = encode_threshold_query(query);
  for (std::size_t cut = 1; cut < q.size(); ++cut) {
    const std::vector<std::uint8_t> truncated(q.begin(),
                                              q.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)decode_threshold_query(truncated), Error) << "cut at " << cut;
  }
  const auto r = encode_threshold_response(ThresholdResponse{});
  for (std::size_t cut = 1; cut < r.size(); ++cut) {
    const std::vector<std::uint8_t> truncated(r.begin(),
                                              r.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)decode_threshold_response(truncated), Error) << "cut at " << cut;
  }
  // And type confusion in both directions.
  EXPECT_THROW((void)decode_threshold_query(r), Error);
  EXPECT_THROW((void)decode_threshold_response(q), Error);
}

TEST(ProtocolTest, StatsAndErrorRoundTrip) {
  EXPECT_EQ(peek_type(encode_stats_request()), MessageType::kStats);
  const std::string json = "{\"requests\": 3}";
  EXPECT_EQ(decode_stats_response(encode_stats_response(json)), json);
  EXPECT_EQ(decode_error(encode_error("boom")), "boom");
}

// Every truncation point of a valid payload must be rejected with an error,
// never an out-of-bounds read.
TEST(ProtocolTest, TruncatedPayloadsAreRejected) {
  const auto payload = encode_generate_request(sample_request());
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    std::vector<std::uint8_t> truncated(payload.begin(),
                                        payload.begin() + static_cast<std::ptrdiff_t>(cut));
    if (cut == 0) {
      EXPECT_THROW((void)peek_type(truncated), Error);
    } else {
      EXPECT_THROW((void)decode_generate_request(truncated), Error) << "cut at " << cut;
    }
  }
}

TEST(ProtocolTest, RejectsWrongTypeAndBadSide) {
  EXPECT_THROW((void)decode_generate_request(encode_stats_request()), Error);
  EXPECT_THROW((void)decode_generate_response(encode_error("x")), Error);

  // side*side disagreeing with the float payload must not decode.
  auto payload = encode_generate_request(sample_request());
  payload[payload.size() - 16 * sizeof(float) - 1] = 0xFF;  // corrupt high byte of side
  EXPECT_THROW((void)decode_generate_request(payload), Error);
}

// Length fields inside a payload (as opposed to the frame header) claiming
// far more bytes than the payload holds must be rejected by the bounds
// checks, not trusted into an allocation or an out-of-bounds read.
TEST(ProtocolTest, HostileInnerLengthPrefixesAreRejected) {
  {
    ByteWriter w;  // kGenerateV2 whose model-name length claims 4 GiB
    w.put_u8(static_cast<std::uint8_t>(MessageType::kGenerateV2));
    w.put_u32(7);  // tenant id
    w.put_u32(0xFFFFFFFFu);
    w.put_bytes("abc", 3);
    EXPECT_THROW((void)decode_generate_request(w.bytes()), Error);
  }
  {
    ByteWriter w;  // kStatsOk whose JSON length exceeds the body
    w.put_u8(static_cast<std::uint8_t>(MessageType::kStatsOk));
    w.put_u32(100);
    w.put_bytes("{}", 2);
    EXPECT_THROW((void)decode_stats_response(w.bytes()), Error);
  }
  {
    ByteWriter w;  // kGenerateOk whose side implies more floats than present
    w.put_u8(static_cast<std::uint8_t>(MessageType::kGenerateOk));
    w.put_u32(0x10000u);  // side 65536 -> 2^32 floats claimed
    w.put_floats({1.0f, 2.0f});
    EXPECT_THROW((void)decode_generate_response(w.bytes()), Error);
  }
}

// Fuzz-style property: random byte corruption of a valid request payload must
// either decode into a self-consistent request or throw Error — never crash,
// hang, or produce a request whose float count disagrees with its side.
TEST(ProtocolTest, RandomByteFlipsNeverCrashDecoding) {
  const auto payload = encode_generate_request(sample_request());
  flashgen::Rng rng(123);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> mutated = payload;
    const int flips = 1 + static_cast<int>(rng.uniform_int(3));
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = rng.uniform_int(mutated.size());
      mutated[at] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(255));
    }
    try {
      const GenerateRequest decoded = decode_generate_request(mutated);
      EXPECT_EQ(decoded.program_levels.size(),
                static_cast<std::size_t>(decoded.side) * decoded.side);
    } catch (const Error&) {
      // Rejected corruption is the expected outcome.
    }
  }
}

TEST(ProtocolTest, FrameRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  const auto payload = encode_generate_request(sample_request());
  write_frame(fds[0], payload);
  write_frame(fds[0], encode_stats_request());

  std::vector<std::uint8_t> received;
  ASSERT_TRUE(read_frame(fds[1], received));
  EXPECT_EQ(received, payload);
  ASSERT_TRUE(read_frame(fds[1], received));
  EXPECT_EQ(peek_type(received), MessageType::kStats);

  // Clean EOF between frames reads as false; EOF mid-frame is an error.
  ::close(fds[0]);
  EXPECT_FALSE(read_frame(fds[1], received));
  ::close(fds[1]);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint8_t partial[2] = {9, 9};  // half a length header
  ASSERT_EQ(::write(fds[0], partial, sizeof(partial)), 2);
  ::close(fds[0]);
  EXPECT_THROW((void)read_frame(fds[1], received), Error);
  ::close(fds[1]);
}

// A peer that sends a complete, plausible length header and then disconnects
// mid-body must produce an Error (mid-frame EOF), not a hang or a partially
// filled buffer treated as a frame.
TEST(ProtocolTest, MidFrameDisconnectIsAnError) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const auto payload = encode_generate_request(sample_request());
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::uint8_t header[4];
  for (int i = 0; i < 4; ++i) header[i] = static_cast<std::uint8_t>(len >> (8 * i));
  ASSERT_EQ(::write(fds[0], header, 4), 4);
  ASSERT_EQ(::write(fds[0], payload.data(), 10), 10);  // 10 of len bytes
  ::close(fds[0]);
  std::vector<std::uint8_t> received;
  EXPECT_THROW((void)read_frame(fds[1], received), Error);
  ::close(fds[1]);
}

std::atomic<int> g_signals_delivered{0};

// Installs a no-op SIGUSR1 handler WITHOUT SA_RESTART, so an interrupted
// read()/send() genuinely returns EINTR instead of being restarted by the
// kernel. Restores the previous disposition on destruction.
class ScopedSigusr1 {
 public:
  ScopedSigusr1() {
    struct sigaction sa {};
    sa.sa_handler = [](int) { g_signals_delivered.fetch_add(1, std::memory_order_relaxed); };
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    EXPECT_EQ(::sigaction(SIGUSR1, &sa, &old_), 0);
  }
  ~ScopedSigusr1() { ::sigaction(SIGUSR1, &old_, nullptr); }

 private:
  struct sigaction old_ {};
};

// Regression: a frame delivered one byte at a time, with signals landing on
// the reading thread between bytes, must still decode. Exercises both the
// short-read resumption (every read() returns at most 1 byte) and the EINTR
// retry in read_all.
TEST(ProtocolTest, FrameSurvivesOneByteChunksWithInterleavedSignals) {
  ScopedSigusr1 handler;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  const auto payload = encode_generate_request(sample_request());
  std::vector<std::uint8_t> wire;  // length header + payload, as raw bytes
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) wire.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  wire.insert(wire.end(), payload.begin(), payload.end());

  std::vector<std::uint8_t> received;
  bool got = false;
  std::thread reader([&] { got = read_frame(fds[1], received); });
  const pthread_t reader_handle = reader.native_handle();

  // The reader cannot return before the last byte below is written, so it is
  // alive for every pthread_kill.
  for (std::size_t i = 0; i < wire.size(); ++i) {
    ::pthread_kill(reader_handle, SIGUSR1);
    ASSERT_EQ(::write(fds[0], &wire[i], 1), 1);
    if (i % 16 == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  reader.join();

  ASSERT_TRUE(got);
  EXPECT_EQ(received, payload);
  EXPECT_GT(g_signals_delivered.load(), 0);
  ::close(fds[0]);
  ::close(fds[1]);
}

// A frame far larger than the socket send buffer forces write_all through
// many short writes, with signals interrupting the blocked send() calls.
TEST(ProtocolTest, LargeFrameWriteSurvivesFullBuffersAndSignals) {
  ScopedSigusr1 handler;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int sndbuf = 4096;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf)), 0);

  std::vector<std::uint8_t> payload(256 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 131 + 7);

  std::thread writer([&] { write_frame(fds[0], payload); });
  const pthread_t writer_handle = writer.native_handle();

  const std::size_t total = 4 + payload.size();
  std::vector<std::uint8_t> wire(total);
  std::size_t got = 0;
  while (got < total) {
    // Only signal while the writer still has far more to send than the
    // socket can buffer, so it is guaranteed to be alive inside write_frame.
    if (got < total / 2) ::pthread_kill(writer_handle, SIGUSR1);
    const ssize_t n =
        ::read(fds[1], wire.data() + got, std::min<std::size_t>(1024, total - got));
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  writer.join();

  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), wire.begin() + 4));
  ::close(fds[0]);
  ::close(fds[1]);
}

// Regression: write_frame used plain write(), so the first write after the
// peer hung up raised SIGPIPE and killed the whole process (no handler is
// installed). send(..., MSG_NOSIGNAL) must surface EPIPE as an Error instead.
TEST(ProtocolTest, WriteToClosedPeerThrowsInsteadOfDyingOnSigpipe) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  const std::vector<std::uint8_t> payload(64, 0xAB);
  EXPECT_THROW(write_frame(fds[0], payload), Error);
  ::close(fds[0]);
}

TEST(ProtocolTest, OversizedFrameIsRejected) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A length header claiming 4 GiB-ish payload must be refused before any
  // allocation of that size.
  const std::uint32_t len = kMaxFrameBytes + 1;
  std::uint8_t header[4];
  for (int i = 0; i < 4; ++i) header[i] = static_cast<std::uint8_t>(len >> (8 * i));
  ASSERT_EQ(::write(fds[0], header, 4), 4);
  std::vector<std::uint8_t> received;
  EXPECT_THROW((void)read_frame(fds[1], received), Error);
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace flashgen::serve
