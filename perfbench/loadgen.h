// Load client for the perf benchmark: one thread multiplexes a few pipelined
// TCP connections to a flashgen serve endpoint with epoll.
//
// Two drive modes:
//   * open loop  — every request has a due time fixed before the phase
//     starts; it is sent at (or, when the client falls behind, after) that
//     time regardless of how fast replies come back, and its latency is
//     measured from the due time, so a server stall is charged to every
//     request it delays. How late each send actually went out is recorded
//     as `lag_ms` so a slow generator is visible instead of silently
//     lowering the offered load.
//   * closed window — a fixed number of requests stays outstanding; each
//     reply immediately releases the next request. Measures capacity.
//
// Requests are grouped into lanes; each lane owns its own connections, so a
// slow threshold query never sits in front of a generate reply in one
// connection's in-order reply stream. Within a lane a request goes to the
// connection with the fewest replies owed, as a client's connection pool
// would send it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace flashgen::perf {

/// One request of an open-loop schedule.
struct Shot {
  double due_s = 0.0;  // offset from the phase start
  int lane = 0;
  std::vector<std::uint8_t> payload;  // encoded request (no length prefix)
};

/// What came back for one request.
struct Outcome {
  serve::MessageType type = serve::MessageType::kError;
  double latency_ms = 0.0;  // open loop: from due time; closed: from send time
  double lag_ms = 0.0;      // send time minus due time (open loop only)
  double done_s = 0.0;      // completion time, offset from the phase start
  std::uint64_t reply_hash = 0;      // FNV-1a of the reply payload
  std::vector<std::uint8_t> reply;   // kept for threshold replies only
};

/// FNV-1a over a byte buffer.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes);

class LoadClient {
 public:
  /// Opens `connections_per_lane[l]` connections for every lane l.
  LoadClient(const std::string& endpoint, const std::vector<int>& connections_per_lane);
  ~LoadClient();

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Sends every shot at its due time and waits for all replies. Outcome i
  /// answers shots[i]. Throws flashgen::Error if replies stop arriving for
  /// `stall_s` seconds.
  std::vector<Outcome> open_loop(const std::vector<Shot>& shots, double stall_s = 30.0);

  /// Keeps `window` requests of lane 0 outstanding for `seconds`, building
  /// request i with make(i); then waits for the stragglers. Outcome i answers
  /// request i.
  std::vector<Outcome> closed_window(
      int window, double seconds,
      const std::function<std::vector<std::uint8_t>(std::uint64_t)>& make,
      double stall_s = 30.0);

 private:
  struct Conn;
  struct Sent;

  void send(std::size_t conn, std::uint64_t index, const std::vector<std::uint8_t>& payload,
            double due_s, double now_s, std::vector<Outcome>& out);
  /// Waits up to `timeout_s` for socket events and records finished
  /// replies; returns how many replies completed.
  std::size_t poll(double timeout_s, std::vector<Outcome>& out);
  double now_s() const;
  /// The lane's connection with the fewest replies owed (lowest index on a
  /// tie): requests pipeline on one connection only when all are busy.
  std::size_t least_pending(int lane) const;

  /// Owns one file descriptor.
  struct UniqueFd {
    int fd = -1;
    explicit UniqueFd(int f) : fd(f) {}
    ~UniqueFd();
    UniqueFd(const UniqueFd&) = delete;
    UniqueFd& operator=(const UniqueFd&) = delete;
  };

  UniqueFd epoll_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::vector<std::size_t>> lanes_;  // lane -> connection indices
  std::int64_t t0_ns_ = 0;
};

}  // namespace flashgen::perf
