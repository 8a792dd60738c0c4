#include "serve/protocol.h"

#include <bit>
#include <cstring>

#include "common/error.h"

namespace flashgen::serve {

void ByteWriter::put_u8(std::uint8_t v) { buffer_.push_back(v); }

void ByteWriter::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::put_bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), p, p + size);
}

void ByteWriter::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::put_string(const std::string& s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  put_bytes(s.data(), s.size());
}

void ByteWriter::put_floats(const std::vector<float>& v) {
  put_bytes(v.data(), v.size() * sizeof(float));
}

std::uint8_t ByteReader::get_u8() {
  FG_CHECK(pos_ + 1 <= size_, "protocol: truncated payload (u8 at " << pos_ << "/" << size_ << ")");
  return data_[pos_++];
}

std::uint32_t ByteReader::get_u32() {
  FG_CHECK(pos_ + 4 <= size_, "protocol: truncated payload (u32 at " << pos_ << "/" << size_ << ")");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::get_u64() {
  FG_CHECK(pos_ + 8 <= size_, "protocol: truncated payload (u64 at " << pos_ << "/" << size_ << ")");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

double ByteReader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::string ByteReader::get_string() {
  const auto len = get_u32();
  FG_CHECK(pos_ + len <= size_,
           "protocol: truncated payload (string of " << len << " at " << pos_ << "/" << size_ << ")");
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

std::vector<float> ByteReader::get_floats(std::size_t count) {
  const std::size_t bytes = count * sizeof(float);
  FG_CHECK(pos_ + bytes <= size_,
           "protocol: truncated payload (" << count << " floats at " << pos_ << "/" << size_ << ")");
  std::vector<float> v(count);
  std::memcpy(v.data(), data_ + pos_, bytes);
  pos_ += bytes;
  return v;
}

std::vector<std::uint8_t> encode_generate_request(const GenerateRequest& request) {
  FG_CHECK(request.program_levels.size() ==
               static_cast<std::size_t>(request.side) * request.side,
           "generate request: " << request.program_levels.size() << " levels for side "
                                << request.side);
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(MessageType::kGenerateV2));
  w.put_u32(request.tenant_id);
  w.put_string(request.model);
  w.put_u64(request.seed);
  w.put_u64(request.stream);
  w.put_u64(request.deadline_micros);
  w.put_u32(request.side);
  w.put_floats(request.program_levels);
  return w.bytes();
}

std::vector<std::uint8_t> encode_generate_response(const GenerateResponse& response) {
  FG_CHECK(response.voltages.size() == static_cast<std::size_t>(response.side) * response.side,
           "generate response: " << response.voltages.size() << " voltages for side "
                                 << response.side);
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(MessageType::kGenerateOk));
  w.put_u32(response.side);
  w.put_floats(response.voltages);
  return w.bytes();
}

std::vector<std::uint8_t> encode_stats_request() {
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(MessageType::kStats));
  return w.bytes();
}

std::vector<std::uint8_t> encode_stats_response(const std::string& json) {
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(MessageType::kStatsOk));
  w.put_string(json);
  return w.bytes();
}

std::vector<std::uint8_t> encode_error(const std::string& message) {
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(MessageType::kError));
  w.put_string(message);
  return w.bytes();
}

std::vector<std::uint8_t> encode_overloaded(const std::string& message) {
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(MessageType::kOverloaded));
  w.put_string(message);
  return w.bytes();
}

std::vector<std::uint8_t> encode_rate_limited(std::uint64_t retry_after_micros,
                                              const std::string& message) {
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(MessageType::kRateLimited));
  w.put_u64(retry_after_micros);
  w.put_string(message);
  return w.bytes();
}

std::vector<std::uint8_t> encode_health_request() {
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(MessageType::kHealth));
  return w.bytes();
}

std::vector<std::uint8_t> encode_health_response(HealthStatus status) {
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(MessageType::kHealthOk));
  w.put_u8(static_cast<std::uint8_t>(status));
  return w.bytes();
}

std::vector<std::uint8_t> encode_threshold_query(const ThresholdQuery& query) {
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(MessageType::kThresholdQuery));
  w.put_u32(query.tenant_id);
  w.put_string(query.model);
  w.put_f64(query.pe_cycles);
  w.put_f64(query.retention_hours);
  return w.bytes();
}

std::vector<std::uint8_t> encode_threshold_response(const ThresholdResponse& response) {
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(MessageType::kThresholdOk));
  for (double t : response.thresholds) w.put_f64(t);
  for (double ber : response.page_ber) w.put_f64(ber);
  w.put_f64(response.level_error_rate);
  w.put_f64(response.mutual_information_bits);
  w.put_u64(response.sample_cells);
  w.put_u8(response.from_cache ? 1 : 0);
  return w.bytes();
}

MessageType peek_type(const std::vector<std::uint8_t>& payload) {
  FG_CHECK(!payload.empty(), "protocol: empty payload");
  return static_cast<MessageType>(payload[0]);
}

GenerateRequest decode_generate_request(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  FG_CHECK(static_cast<MessageType>(r.get_u8()) == MessageType::kGenerateV2,
           "protocol: not a generate request");
  GenerateRequest request;
  request.tenant_id = r.get_u32();
  request.model = r.get_string();
  request.seed = r.get_u64();
  request.stream = r.get_u64();
  request.deadline_micros = r.get_u64();
  request.side = r.get_u32();
  FG_CHECK(request.side > 0 && request.side <= 4096, "generate request: bad side " << request.side);
  request.program_levels = r.get_floats(static_cast<std::size_t>(request.side) * request.side);
  return request;
}

GenerateResponse decode_generate_response(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  FG_CHECK(static_cast<MessageType>(r.get_u8()) == MessageType::kGenerateOk,
           "protocol: not a generate response");
  GenerateResponse response;
  response.side = r.get_u32();
  FG_CHECK(response.side > 0 && response.side <= 4096,
           "generate response: bad side " << response.side);
  response.voltages = r.get_floats(static_cast<std::size_t>(response.side) * response.side);
  return response;
}

std::string decode_stats_response(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  FG_CHECK(static_cast<MessageType>(r.get_u8()) == MessageType::kStatsOk,
           "protocol: not a stats response");
  return r.get_string();
}

std::string decode_error(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  FG_CHECK(static_cast<MessageType>(r.get_u8()) == MessageType::kError,
           "protocol: not an error message");
  return r.get_string();
}

std::string decode_overloaded(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  FG_CHECK(static_cast<MessageType>(r.get_u8()) == MessageType::kOverloaded,
           "protocol: not an overloaded message");
  return r.get_string();
}

RateLimitedInfo decode_rate_limited(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  FG_CHECK(static_cast<MessageType>(r.get_u8()) == MessageType::kRateLimited,
           "protocol: not a rate-limited message");
  RateLimitedInfo info;
  info.retry_after_micros = r.get_u64();
  info.message = r.get_string();
  return info;
}

HealthStatus decode_health_response(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  FG_CHECK(static_cast<MessageType>(r.get_u8()) == MessageType::kHealthOk,
           "protocol: not a health response");
  const auto status = r.get_u8();
  FG_CHECK(status == static_cast<std::uint8_t>(HealthStatus::kReady) ||
               status == static_cast<std::uint8_t>(HealthStatus::kDraining) ||
               status == static_cast<std::uint8_t>(HealthStatus::kDegraded),
           "protocol: bad health status " << static_cast<int>(status));
  return static_cast<HealthStatus>(status);
}

ThresholdQuery decode_threshold_query(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  FG_CHECK(static_cast<MessageType>(r.get_u8()) == MessageType::kThresholdQuery,
           "protocol: not a threshold query");
  ThresholdQuery query;
  query.tenant_id = r.get_u32();
  query.model = r.get_string();
  query.pe_cycles = r.get_f64();
  query.retention_hours = r.get_f64();
  return query;
}

ThresholdResponse decode_threshold_response(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  FG_CHECK(static_cast<MessageType>(r.get_u8()) == MessageType::kThresholdOk,
           "protocol: not a threshold response");
  ThresholdResponse response;
  for (double& t : response.thresholds) t = r.get_f64();
  for (double& ber : response.page_ber) ber = r.get_f64();
  response.level_error_rate = r.get_f64();
  response.mutual_information_bits = r.get_f64();
  response.sample_cells = r.get_u64();
  const auto from_cache = r.get_u8();
  FG_CHECK(from_cache <= 1, "threshold response: bad from_cache " << static_cast<int>(from_cache));
  response.from_cache = from_cache == 1;
  return response;
}

}  // namespace flashgen::serve
