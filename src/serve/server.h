// Server: epoll-multiplexed front-end for the serving runtime.
//
// One event-loop thread multiplexes every connection (thousands of TCP or
// AF_UNIX sockets) with non-blocking I/O: per-connection read buffers
// reassemble length-prefixed frames across arbitrary partial transfers
// (framing::FrameDecoder), write buffers absorb partial sends and flush on
// EPOLLOUT, and requests pipeline — a connection may have any number of
// requests in flight; responses return in request order. kGenerateV2 frames
// route through a per-model ReplicaDispatcher (least-loaded over N replica
// engines, each with its own batcher + executor thread, extending the
// bounded-admission and deadline-shedding behavior), kThresholdQuery frames
// through the model's ThresholdService; both pass the same tenant admission
// and re-enter the loop through one completion queue + eventfd wakeup, with
// the reply already encoded on the completing thread. Request errors are
// answered with a kError frame on the same connection; the connection
// survives. Malformed framing drops only the offending connection.
//
// The accept path is storm-proof: transient accept() failures (ECONNABORTED,
// EMFILE, ENFILE, ...) are counted in serve.accept_errors and retried — with
// a short pause on fd exhaustion — instead of silently ending accepts while
// existing connections keep the server looking alive. The listen backlog
// defaults to SOMAXCONN and is configurable (ServerOptions::backlog).
//
// Lifecycle: construct with a registry whose models are all registered, then
// start()/stop(), or drain_and_stop() for a graceful drain. Responses are
// bit-identical across transports and replica counts: a request's result is
// a pure function of (checkpoint, PL array, seed, stream).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/framing.h"
#include "serve/batcher.h"
#include "serve/dispatcher.h"
#include "serve/endpoint.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/tenant.h"
#include "serve/threshold_service.h"

namespace flashgen::serve {

struct ServerOptions {
  /// Transport endpoint spec (see endpoint.h): "unix:/path", a bare path, or
  /// "tcp:host:port" ("tcp:127.0.0.1:0" picks a free port; read it back via
  /// endpoint()).
  std::string endpoint = "/tmp/flashgen_serve.sock";
  /// listen() backlog; -1 means SOMAXCONN. Bursts beyond the backlog are
  /// dropped by the kernel before accept ever sees them, so leave this at
  /// SOMAXCONN unless testing backlog behavior.
  int backlog = -1;
  BatchPolicy policy;
  /// ReplicaSupervisor knobs: wedge quarantine + restart (see dispatcher.h).
  SupervisorPolicy supervisor;
  /// Per-tenant token-bucket admission; rate 0 (default) = unlimited, a
  /// strict no-op on the request path.
  TenantPolicy tenant;
  /// Connection hygiene: evict connections that made no protocol progress
  /// (no complete inbound frame, no outbound write progress) for this long.
  /// Defeats slow-loris clients that drip bytes to look alive. 0 (default)
  /// disables. Connections with a response still owed are never idle-evicted.
  std::uint64_t idle_timeout_micros = 0;
  /// Cap on bytes buffered per connection — a partial inbound frame, or
  /// unflushed outbound responses the peer refuses to read. A connection
  /// over the cap is evicted with a typed kError + close. The default
  /// comfortably fits any legal frame (kMaxFrameBytes) on either side.
  std::size_t max_conn_buffered_bytes = 2 * static_cast<std::size_t>(kMaxFrameBytes);
  /// Cap on in-flight pipelined requests per connection; the frame that
  /// would exceed it evicts the connection (typed kError + close).
  std::size_t max_pipelined_requests = 4096;
  /// Read-threshold optimization knobs. One ThresholdService is created per
  /// condition-aware registry model; the optimizer's `side` is overridden
  /// with the model's row side. Queries against condition-unaware models are
  /// answered with a typed kError.
  ThresholdServiceOptions threshold;
};

/// Capped exponential backoff with deterministic jitter for Client retries
/// on typed sheds (kOverloaded / kRateLimited).
struct RetryPolicy {
  /// Total attempts including the first; <= 1 disables retry.
  int max_attempts = 5;
  std::uint64_t base_backoff_micros = 1'000;
  std::uint64_t max_backoff_micros = 250'000;
  /// Jitter stream seed; same seed => same backoff schedule (deterministic
  /// tests), different seeds desynchronize clients (no retry stampede).
  std::uint64_t seed = 0;
};

class Server {
 public:
  /// Binds the endpoint and creates one ReplicaDispatcher per registry
  /// entry (one batcher + executor thread per replica). The registry must
  /// outlive the server and must not change while it runs.
  Server(ModelRegistry& registry, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Runs the event loop in a background thread.
  void start();
  /// Stops the loop, closes every connection and the listener, joins threads.
  void stop();
  /// Graceful shutdown: closes every dispatcher's admission queue (new
  /// requests are answered kOverloaded, health probes kDraining), waits for
  /// in-flight work to complete and its responses to flush, then stop()s.
  void drain_and_stop();
  /// True between drain_and_stop() starting and the server being torn down.
  bool draining() const { return draining_.load(); }

  /// Canonical connectable endpoint spec; for "tcp:host:0" the bound port is
  /// substituted in.
  std::string endpoint() const;
  /// The bound TCP port (tcp transport only).
  std::uint16_t port() const;

  ServeMetrics& metrics() { return metrics_; }

 private:
  // One pipelined response slot. Slots are created in request arrival order
  // and flushed strictly in that order once ready, so pipelined responses
  // can never overtake each other.
  struct Slot {
    bool ready = false;
    bool counts_as_active = false;  // admitted; counted in active_requests_
    std::vector<std::uint8_t> frame;  // length-prefixed, ready to write
    std::chrono::steady_clock::time_point t0;  // request decode start
  };

  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    framing::FrameDecoder decoder;
    std::deque<Slot> slots;
    std::uint64_t head_seq = 0;  // sequence number of slots.front()
    std::uint64_t next_seq = 0;  // sequence number the next request gets
    std::vector<std::uint8_t> outbuf;
    std::size_t out_off = 0;
    bool want_write = false;  // EPOLLOUT armed
    bool peer_eof = false;    // read side closed; flush, then close
    int active_unflushed = 0;  // admitted requests encoded but not yet sent
    /// Last protocol progress (complete frame in, write progress out, or
    /// accept); the idle-timeout signal. Raw inbound bytes do NOT count —
    /// that would let a slow-loris client stay alive by dripping bytes.
    std::chrono::steady_clock::time_point last_activity{};
  };

  struct CompletionMsg {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> payload;  // response payload (not yet framed)
    std::uint64_t infer_wait_micros = 0;
  };

  // An admitted generate or threshold request, as its completion sees it.
  struct Ticket {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::chrono::steady_clock::time_point t_submit;
  };

  void run_loop();
  void on_listener_ready();
  void on_conn_readable(Conn& conn);
  void on_conn_writable(Conn& conn);
  void dispatch_frame(Conn& conn, std::vector<std::uint8_t> payload);
  Slot& slot_at(Conn& conn, std::uint64_t seq);
  /// Answers request `seq` on the loop thread; undoes the slot's active mark
  /// when a submit threw after admit().
  void settle_slot(Conn& conn, std::uint64_t seq, const std::vector<std::uint8_t>& reply);
  /// Records the decode stage and runs tenant admission. A rejected request
  /// is answered kRateLimited and yields nothing; an admitted one has its
  /// slot marked active and yields the ticket its completion hands back.
  std::optional<Ticket> admit(Conn& conn, std::uint64_t seq, std::uint32_t tenant_id);
  /// Completing thread: Overloaded -> kOverloaded (counted as a shed), any
  /// other error -> kError (counted as an error).
  std::vector<std::uint8_t> error_reply(std::exception_ptr error);
  /// Completing thread: queues the encoded reply for the loop and wakes it.
  void complete(const Ticket& ticket, std::vector<std::uint8_t> reply);
  void finish_slot(Conn& conn, std::uint64_t seq, std::vector<std::uint8_t> payload,
                   std::uint64_t infer_wait_micros);
  void flush_conn(Conn& conn);
  void drain_completions();
  void close_conn(std::uint64_t conn_id);
  void update_epoll(Conn& conn);
  void wake_loop();
  /// Hygiene close: counts serve.conn_evicted, optionally best-effort writes
  /// a framed kError(reason) first, then close_conn.
  void evict_conn(Conn& conn, const std::string& reason, bool send_error);
  /// Advances the idle wheel to `now`, evicting connections whose idle
  /// deadline passed and lazily re-bucketing the rest.
  void tick_idle_wheel();
  void schedule_idle_check(std::uint64_t conn_id,
                           std::chrono::steady_clock::time_point deadline,
                           std::chrono::steady_clock::time_point now);

  ModelRegistry& registry_;
  ServerOptions options_;
  Endpoint endpoint_;
  ServeMetrics metrics_;
  TenantGovernor governor_;

  // Hashed idle-timeout timer wheel (loop thread only). Each slot holds conn
  // ids due for an idle check when the wheel sweeps past; entries are lazy —
  // a closed conn is skipped, a conn active since scheduling is re-bucketed
  // at its new deadline instead of evicted.
  static constexpr std::size_t kWheelSlots = 64;
  std::vector<std::vector<std::uint64_t>> wheel_;
  std::size_t wheel_pos_ = 0;
  std::chrono::microseconds wheel_tick_{0};
  std::chrono::steady_clock::time_point wheel_last_tick_{};

  // Completions cross from executor threads into the loop through here.
  // Declared before dispatchers_: batcher destructors fail still-queued
  // requests through their completions, which push here.
  std::mutex completions_mutex_;
  std::deque<CompletionMsg> completions_;

  std::map<std::string, std::unique_ptr<ReplicaDispatcher>> dispatchers_;
  // Declared after dispatchers_ (so destroyed first): services sample
  // through their model's dispatcher. Only condition-aware models get one.
  std::map<std::string, std::unique_ptr<ThresholdService>> threshold_services_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: completions pending or stop requested
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int> active_requests_{0};  // admitted requests awaiting flush
  std::thread loop_thread_;
  std::uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = wake eventfd
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::chrono::steady_clock::time_point started_;
};

/// Blocking client for the flashgen-serve protocol; used by the load
/// generator and tests. One connection, not thread-safe. Accepts the same
/// endpoint specs as the server ("unix:/path", bare path, "tcp:host:port").
class Client {
 public:
  explicit Client(const std::string& endpoint_spec);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Round-trips one generate request. Throws Overloaded if the server
  /// answers kOverloaded, RateLimited if it answers kRateLimited; FG_CHECKs
  /// if it answers with a kError frame.
  GenerateResponse generate(const GenerateRequest& request);
  /// generate() with capped exponential backoff + jitter on the typed sheds
  /// (Overloaded / RateLimited): sleeps max(jittered backoff, the server's
  /// retry_after hint) between attempts, rethrows the last shed once
  /// max_attempts is exhausted. Other errors are not retried.
  GenerateResponse generate_with_retry(const GenerateRequest& request,
                                       const RetryPolicy& policy);
  /// Round-trips one read-threshold optimization query. Same typed errors
  /// as generate() (Overloaded / RateLimited / FG_CHECK on kError).
  ThresholdResponse threshold_query(const ThresholdQuery& query);
  /// Fetches the server's metrics JSON.
  std::string stats();
  /// Liveness probe: kReady while serving with a fully-healthy fleet,
  /// kDegraded with one or more replicas quarantined, kDraining during
  /// shutdown.
  HealthStatus health();

 private:
  int fd_ = -1;
};

}  // namespace flashgen::serve
