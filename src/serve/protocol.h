// flashgen-serve wire protocol: length-prefixed binary frames over a stream
// socket (unix or TCP — the frame layout is transport-agnostic).
//
// Requests may be pipelined: a client can write any number of frames before
// reading, and the server answers each connection's frames strictly in
// arrival order. Nothing in the payload identifies the request; ordering IS
// the correlation mechanism, so both sides must preserve it.
//
// Frame layout (all integers little-endian):
//   u32 payload_len | payload
// Payload:
//   u8 type | type-specific body
//
// Message bodies:
//   kGenerateV2 (client -> server):
//     u32 tenant_id                  -- token-bucket admission key; 0 = the
//                                       anonymous/default tenant
//     u32 model_name_len | model_name bytes
//     u64 seed | u64 stream          -- Rng::from_stream(seed, stream)
//     u64 deadline_micros            -- relative budget; 0 = no deadline
//     u32 side                       -- PL array is side x side
//     f32 pl[side * side]           -- normalized program levels, row-major
//     -- type byte 1 was the tenant-less protocol v1 generate; it is retired
//        and answered like any unknown type, with a kError
//   kGenerateOk (server -> client):
//     u32 side | f32 voltages[side * side]
//   kStats (client -> server): empty body
//   kStatsOk (server -> client): u32 json_len | json bytes
//   kError (server -> client): u32 message_len | message bytes
//   kOverloaded (server -> client): u32 message_len | message bytes
//     -- typed rejection: the admission queue is full or draining; the
//        request was NOT executed and can be retried elsewhere/later
//   kRateLimited (server -> client):
//     u64 retry_after_micros | u32 message_len | message bytes
//     -- typed per-tenant rejection: the tenant's token bucket is empty. The
//        request was NOT executed; retrying before retry_after_micros will
//        be shed again.
//   kHealth (client -> server): empty body
//   kHealthOk (server -> client): u8 status (HealthStatus)
//   kThresholdQuery (client -> server):
//     u32 tenant_id                  -- same admission semantics as
//                                       kGenerateV2 (token buckets, queue
//                                       bounds -> kRateLimited/kOverloaded)
//     u32 model_name_len | model_name bytes
//     f64 pe_cycles | f64 retention_hours  -- raw wear condition (f64 = IEEE
//                                       bits via u64, little-endian)
//   kThresholdOk (server -> client):
//     f64 thresholds[7]              -- strictly increasing read points
//     f64 page_ber[3]                -- est. raw BER per Gray page (L/M/U)
//     f64 level_error_rate | f64 mutual_information_bits
//     u64 sample_cells | u8 from_cache
//     -- the reply is a pure function of (checkpoint, condition, server
//        optimizer config): from_cache only reports whether the LRU served
//        it, every other bit is identical cold or warm
//
// Readers are bounds-checked: a truncated or oversized frame raises
// FG_CHECK instead of reading out of bounds, and frame bodies are read in
// bounded chunks so a hostile length prefix cannot force a large allocation
// up front.
//
// Frame transport (length prefix, MSG_NOSIGNAL, chunked reads, the
// "socket_reset" fault point) lives in common/framing.{h,cpp}, shared with
// the distributed-training collectives; this header re-exports it under the
// serve namespace so protocol users have a single include. Non-blocking
// peers (the epoll server, the open-loop loadgen) reassemble frames from
// partial reads with framing::FrameDecoder instead of the blocking
// read_frame/write_frame pair.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/framing.h"

namespace flashgen::serve {

enum class MessageType : std::uint8_t {
  // 1 was kGenerate, the protocol v1 request without a tenant header. It is
  // retired: servers answer it with kError. Never reuse the value.
  kGenerateOk = 2,
  kStats = 3,
  kStatsOk = 4,
  kError = 5,
  kOverloaded = 6,
  kHealth = 7,
  kHealthOk = 8,
  kGenerateV2 = 9,    // generate request, led by a u32 tenant_id
  kRateLimited = 10,  // typed per-tenant shed with retry_after_micros
  kThresholdQuery = 11,  // read-threshold optimization at a wear condition
  kThresholdOk = 12,
};

/// Liveness answer to a kHealth probe.
enum class HealthStatus : std::uint8_t {
  kReady = 1,     // accepting work, full fleet healthy
  kDraining = 2,  // shutting down: finishing in-flight work, rejecting new
  kDegraded = 3,  // serving, but one or more replicas are quarantined
};

/// Typed per-tenant admission rejection: the tenant's token bucket was empty.
/// Carries the server's hint for when a retry can be admitted.
class RateLimited : public flashgen::Error {
 public:
  RateLimited(const std::string& what, std::uint64_t retry_after_micros)
      : flashgen::Error(what), retry_after_micros_(retry_after_micros) {}

  std::uint64_t retry_after_micros() const { return retry_after_micros_; }

 private:
  std::uint64_t retry_after_micros_;
};

/// Refuse frames above this size (64 MiB) to bound allocation on bad input.
/// One shared cap for every frame consumer (serve + dist).
inline constexpr std::uint32_t kMaxFrameBytes = framing::kMaxFrameBytes;

struct GenerateRequest {
  std::string model;
  /// Admission key for per-tenant token buckets (the kGenerateV2 header
  /// field); 0 is the default tenant. Invisible in the generated bits.
  std::uint32_t tenant_id = 0;
  std::uint64_t seed = 0;
  std::uint64_t stream = 0;
  /// Relative completion budget in microseconds, measured from server-side
  /// admission; 0 means no deadline. Expired requests are shed with kError
  /// ("deadline exceeded") instead of occupying batch slots.
  std::uint64_t deadline_micros = 0;
  std::uint32_t side = 0;
  std::vector<float> program_levels;  // side * side floats
};

struct GenerateResponse {
  std::uint32_t side = 0;
  std::vector<float> voltages;  // side * side floats
};

/// Read-threshold optimization request: "where should the read points sit
/// for a block in this wear state?". The condition rides in raw physical
/// units; quantization to cache buckets is the server's policy.
struct ThresholdQuery {
  std::string model;
  std::uint32_t tenant_id = 0;
  double pe_cycles = 0.0;
  double retention_hours = 0.0;
};

/// Wire mirror of thresholds::ThresholdReport (kept dependency-free so the
/// protocol layer stays self-contained).
struct ThresholdResponse {
  std::array<double, 7> thresholds{};
  std::array<double, 3> page_ber{};  // Lower/Middle/Upper Gray pages
  double level_error_rate = 0.0;
  double mutual_information_bits = 0.0;
  std::uint64_t sample_cells = 0;
  bool from_cache = false;
};

/// Append-only little-endian payload builder.
class ByteWriter {
 public:
  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_bytes(const void* data, std::size_t size);
  void put_f64(double v);  // IEEE-754 bits as a little-endian u64
  void put_string(const std::string& s);     // u32 length + bytes
  void put_floats(const std::vector<float>& v);  // raw f32s, no length

  const std::vector<std::uint8_t>& bytes() const { return buffer_; }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked little-endian payload reader over a borrowed buffer.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buffer)
      : ByteReader(buffer.data(), buffer.size()) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  double get_f64();                               // IEEE-754 bits from a u64
  std::string get_string();                       // u32 length + bytes
  std::vector<float> get_floats(std::size_t count);  // raw f32s
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---- payload encoding (u8 type + body; no length prefix) ----
/// Emits a kGenerateV2 request carrying request.tenant_id.
std::vector<std::uint8_t> encode_generate_request(const GenerateRequest& request);
std::vector<std::uint8_t> encode_generate_response(const GenerateResponse& response);
std::vector<std::uint8_t> encode_stats_request();
std::vector<std::uint8_t> encode_stats_response(const std::string& json);
std::vector<std::uint8_t> encode_error(const std::string& message);
std::vector<std::uint8_t> encode_overloaded(const std::string& message);
std::vector<std::uint8_t> encode_rate_limited(std::uint64_t retry_after_micros,
                                              const std::string& message);
std::vector<std::uint8_t> encode_health_request();
std::vector<std::uint8_t> encode_health_response(HealthStatus status);
std::vector<std::uint8_t> encode_threshold_query(const ThresholdQuery& query);
std::vector<std::uint8_t> encode_threshold_response(const ThresholdResponse& response);

struct RateLimitedInfo {
  std::uint64_t retry_after_micros = 0;
  std::string message;
};

MessageType peek_type(const std::vector<std::uint8_t>& payload);
GenerateRequest decode_generate_request(const std::vector<std::uint8_t>& payload);
GenerateResponse decode_generate_response(const std::vector<std::uint8_t>& payload);
std::string decode_stats_response(const std::vector<std::uint8_t>& payload);
std::string decode_error(const std::vector<std::uint8_t>& payload);
std::string decode_overloaded(const std::vector<std::uint8_t>& payload);
RateLimitedInfo decode_rate_limited(const std::vector<std::uint8_t>& payload);
HealthStatus decode_health_response(const std::vector<std::uint8_t>& payload);
ThresholdQuery decode_threshold_query(const std::vector<std::uint8_t>& payload);
ThresholdResponse decode_threshold_response(const std::vector<std::uint8_t>& payload);

// ---- framing over a file descriptor (blocking, EINTR-safe) ----
// Thin forwarders to the shared transport in common/framing.h.
/// Writes u32 length + payload. Throws on I/O error.
inline void write_frame(int fd, const std::vector<std::uint8_t>& payload) {
  framing::write_frame(fd, payload);
}
/// Reads one frame into `payload`. Returns false on clean EOF before the
/// first byte; throws on mid-frame EOF, I/O error, or oversized frame.
inline bool read_frame(int fd, std::vector<std::uint8_t>& payload) {
  return framing::read_frame(fd, payload);
}

}  // namespace flashgen::serve
