#include "serve/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/faultinject.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/trace.h"
#include "tensor/gemm_backend.h"

namespace flashgen::serve {

namespace {

// epoll user-data ids for the two non-connection fds; connection ids start
// above them.
constexpr std::uint64_t kListenerId = 0;
constexpr std::uint64_t kWakeId = 1;
constexpr std::uint64_t kFirstConnId = 2;

std::uint64_t micros_since(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - since)
                                        .count());
}

}  // namespace

Server::Server(ModelRegistry& registry, ServerOptions options)
    : registry_(registry), options_(std::move(options)), governor_(options_.tenant) {
  endpoint_ = parse_endpoint(options_.endpoint);
  for (const std::string& name : registry_.names()) {
    // Supervised dispatchers: the ReplicaSupervisor can rebuild a wedged
    // replica's engine through the registry.
    dispatchers_.emplace(name,
                         std::make_unique<ReplicaDispatcher>(registry_, name, options_.policy,
                                                             options_.supervisor, &metrics_));
  }
  for (const std::string& name : registry_.names()) {
    // Threshold optimization needs a model that accepts a (PE, retention)
    // condition; unconditioned models answer kThresholdQuery with a typed
    // kError in dispatch_frame instead.
    if (!registry_.at(name).model().condition_aware()) continue;
    ThresholdServiceOptions threshold = options_.threshold;
    const tensor::Shape& row_shape = dispatchers_.at(name)->row_shape();
    threshold.optimizer.side = static_cast<int>(row_shape[row_shape.rank() - 1]);
    threshold_services_.emplace(
        name, std::make_unique<ThresholdService>(*dispatchers_.at(name), threshold));
  }
  if (options_.idle_timeout_micros > 0) {
    wheel_.resize(kWheelSlots);
    // Half-wheel resolution: an idle conn is caught within ~2 ticks of its
    // deadline, and the loop never wakes more than ~kWheelSlots/2 times per
    // timeout period. Floor of 1ms keeps tiny timeouts from hot-spinning.
    wheel_tick_ = std::chrono::microseconds(
        std::max<std::uint64_t>(options_.idle_timeout_micros / (kWheelSlots / 2), 1000));
  }

  const int backlog = options_.backlog >= 0 ? options_.backlog : SOMAXCONN;
  listen_fd_ = listen_endpoint(endpoint_, backlog);
  framing::set_nonblocking(listen_fd_);
  if (endpoint_.kind == Endpoint::Kind::kTcp && endpoint_.port == 0) {
    endpoint_.port = bound_port(listen_fd_);
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  FG_CHECK(epoll_fd_ >= 0, "epoll_create1() failed: " << std::strerror(errno));
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  FG_CHECK(wake_fd_ >= 0, "eventfd() failed: " << std::strerror(errno));

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerId;
  FG_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0,
           "epoll_ctl(listener) failed: " << std::strerror(errno));
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeId;
  FG_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0,
           "epoll_ctl(eventfd) failed: " << std::strerror(errno));
}

Server::~Server() {
  stop();
  // Join every worker / executor / supervisor thread (failing still-queued
  // work through completion callbacks, which may push + wake_loop) while the
  // completion queue and wake fd are still alive, THEN tear the fds down.
  // Threshold services go first: their workers sample through dispatchers.
  threshold_services_.clear();
  dispatchers_.clear();
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

std::string Server::endpoint() const {
  Endpoint connectable = endpoint_;
  if (connectable.kind == Endpoint::Kind::kTcp && connectable.host.empty()) {
    connectable.host = "127.0.0.1";
  }
  return to_string(connectable);
}

std::uint16_t Server::port() const {
  FG_CHECK(endpoint_.kind == Endpoint::Kind::kTcp, "port(): not a TCP server");
  return endpoint_.port;
}

void Server::start() {
  FG_CHECK(!loop_thread_.joinable(), "Server already started");
  // Resolve (and announce) the GEMM backend before the first request, so a
  // bad FLASHGEN_GEMM_BACKEND fails loudly at startup rather than mid-batch.
  FG_LOG(Info) << "serving on " << endpoint() << " with GEMM backend \""
               << tensor::gemm_backend_name() << "\"";
  started_ = std::chrono::steady_clock::now();
  loop_thread_ = std::thread([this] { run_loop(); });
}

void Server::drain_and_stop() {
  if (stopping_.load()) return;
  if (!draining_.exchange(true)) {
    // Reject new work first (kOverloaded / kDraining), then let everything
    // already admitted run to completion — including the response writes —
    // before tearing down the loop. Threshold services drain before their
    // dispatchers close: an in-flight query still needs the fleet to sample.
    for (auto& [name, service] : threshold_services_) service->close();
    for (auto& [name, service] : threshold_services_) service->drain();
    for (auto& [name, dispatcher] : dispatchers_) dispatcher->close();
    for (auto& [name, dispatcher] : dispatchers_) dispatcher->drain();
    while (active_requests_.load() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  stop();
}

void Server::stop() {
  if (stopping_.exchange(true)) return;
  wake_loop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop has exited; tear down its fds from this thread, race-free.
  for (auto& [id, conn] : conns_) ::close(conn->fd);
  conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // wake_fd_ / epoll_fd_ stay open until the destructor: executor threads may
  // still be finishing admitted work whose completion callbacks write the
  // eventfd, and closing it here would race them (fd-reuse hazard). The loop
  // has exited, so the writes just accumulate in the eventfd counter.
  if (endpoint_.kind == Endpoint::Kind::kUnix) ::unlink(endpoint_.path.c_str());
}

void Server::wake_loop() {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  // A full eventfd counter already guarantees a wakeup.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void Server::run_loop() {
  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];
  wheel_last_tick_ = std::chrono::steady_clock::now();
  while (!stopping_.load()) {
    int timeout_ms = -1;
    if (options_.idle_timeout_micros > 0) {
      // Wake for the next wheel tick even with no fd activity.
      const auto until_tick = std::chrono::duration_cast<std::chrono::milliseconds>(
          wheel_last_tick_ + wheel_tick_ - std::chrono::steady_clock::now());
      timeout_ms = static_cast<int>(std::clamp<long long>(until_tick.count(), 0, 60'000));
    }
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      FG_LOG(Error) << "epoll_wait failed: " << std::strerror(errno);
      return;
    }
    for (int i = 0; i < n && !stopping_.load(); ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == kWakeId) {
        std::uint64_t counter = 0;
        while (::read(wake_fd_, &counter, sizeof(counter)) > 0) {
        }
        drain_completions();
      } else if (id == kListenerId) {
        on_listener_ready();
      } else {
        auto it = conns_.find(id);
        if (it == conns_.end()) continue;  // closed earlier this pass
        Conn& conn = *it->second;
        try {
          if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
            // Peer vanished; pipelined responses can no longer be delivered.
            close_conn(id);
            continue;
          }
          if ((events[i].events & EPOLLOUT) != 0) on_conn_writable(conn);
          if (conns_.count(id) == 0) continue;  // writable handler closed it
          if ((events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0 && !conn.peer_eof) {
            on_conn_readable(conn);
          }
        } catch (const Error&) {
          // Malformed framing or a dead socket: drop only this connection.
          close_conn(id);
        }
      }
    }
    // Completions may land while handling other events; opportunistically
    // drain so responses never wait for the next epoll tick.
    drain_completions();
    if (options_.idle_timeout_micros > 0) tick_idle_wheel();
  }
}

void Server::tick_idle_wheel() {
  const auto now = std::chrono::steady_clock::now();
  while (now - wheel_last_tick_ >= wheel_tick_) {
    wheel_last_tick_ += wheel_tick_;
    wheel_pos_ = (wheel_pos_ + 1) % kWheelSlots;
    std::vector<std::uint64_t> due;
    due.swap(wheel_[wheel_pos_]);
    for (const std::uint64_t id : due) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed since scheduling; stale entry
      Conn& conn = *it->second;
      const auto deadline =
          conn.last_activity + std::chrono::microseconds(options_.idle_timeout_micros);
      // A connection that is owed a response (requests pending or bytes
      // unflushed) is waiting on US, not idling; re-bucket it instead.
      const bool owes_nothing = conn.slots.empty() && conn.out_off == conn.outbuf.size();
      if (deadline <= now && owes_nothing) {
        evict_conn(conn, "idle timeout", /*send_error=*/false);
      } else {
        schedule_idle_check(id, std::max(deadline, now + wheel_tick_), now);
      }
    }
  }
}

void Server::schedule_idle_check(std::uint64_t conn_id,
                                 std::chrono::steady_clock::time_point deadline,
                                 std::chrono::steady_clock::time_point now) {
  const auto delta = std::chrono::duration_cast<std::chrono::microseconds>(deadline - now);
  std::uint64_t ticks = delta.count() <= 0 ? 1 : static_cast<std::uint64_t>(delta / wheel_tick_) + 1;
  // Deadlines past one revolution park at the farthest slot and re-bucket
  // when the wheel sweeps by (lazy cascading).
  ticks = std::clamp<std::uint64_t>(ticks, 1, kWheelSlots - 1);
  wheel_[(wheel_pos_ + ticks) % kWheelSlots].push_back(conn_id);
}

void Server::evict_conn(Conn& conn, const std::string& reason, bool send_error) {
  metrics_.record_conn_evicted();
  static stats::Counter& evicted = stats::counter("serve.conn_evicted");
  evicted.add();
  if (send_error) {
    // Best-effort typed goodbye so a well-behaved client learns why; a full
    // socket buffer or dead peer just drops it.
    try {
      const auto frame = framing::encode_frame(encode_error(reason));
      (void)framing::write_some(conn.fd, frame.data(), frame.size());
    } catch (...) {
    }
  }
  close_conn(conn.id);
}

void Server::on_listener_ready() {
  while (!stopping_.load()) {
    int fd = -1;
    int err = 0;
    // Fault seams: simulate accept() failing without a real client in the
    // picture (tests inject errno sequences through these).
    if (FG_FAULT("serve_accept_transient")) {
      err = ECONNABORTED;
    } else if (FG_FAULT("serve_accept_exhausted")) {
      err = EMFILE;
    } else {
      fd = accept_endpoint(endpoint_, listen_fd_);
      if (fd < 0) err = errno;
    }
    if (fd >= 0) {
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conn->id = next_conn_id_++;
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLRDHUP;
      ev.data.u64 = conn->id;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
        FG_LOG(Error) << "epoll_ctl(add conn) failed: " << std::strerror(errno);
        ::close(fd);
        continue;
      }
      static stats::Counter& accepted = stats::counter("serve.connections_accepted");
      accepted.add();
      const std::uint64_t conn_id = conn->id;
      conn->last_activity = std::chrono::steady_clock::now();
      if (options_.idle_timeout_micros > 0) {
        schedule_idle_check(
            conn_id, conn->last_activity + std::chrono::microseconds(options_.idle_timeout_micros),
            conn->last_activity);
      }
      conns_.emplace(conn_id, std::move(conn));
      continue;
    }
    if (err == EAGAIN || err == EWOULDBLOCK) return;  // backlog drained
    if (err == EINTR) continue;
    // Any other failure is transient from the listener's point of view —
    // ECONNABORTED (peer reset while queued), EMFILE/ENFILE (fd exhaustion),
    // ENOBUFS/ENOMEM, EPROTO. Exiting here would silently stop the server
    // from ever accepting again while existing connections keep it looking
    // alive; count the error and keep accepting.
    metrics_.record_accept_error();
    static stats::Counter& accept_errors = stats::counter("serve.accept_errors");
    accept_errors.add();
    if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
      // Out of fds: pause briefly so the retry isn't a hot spin; connections
      // close and free fds while we wait. Level-triggered epoll re-reports
      // the pending backlog immediately after.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      return;
    }
  }
}

void Server::on_conn_readable(Conn& conn) {
  const framing::ReadStatus status = framing::read_some(conn.fd, conn.decoder);
  std::vector<std::uint8_t> payload;
  bool closed = false;
  while (conn.decoder.next(payload)) {
    dispatch_frame(conn, std::move(payload));
    if (conns_.count(conn.id) == 0) return;  // dispatch closed it
  }
  // Buffered-bytes cap: what remains in the decoder is a partial frame the
  // peer is dribbling in — exactly the slow-loris resource a hostile length
  // prefix pins.
  if (options_.max_conn_buffered_bytes > 0 &&
      conn.decoder.buffered() > options_.max_conn_buffered_bytes) {
    std::ostringstream os;
    os << "connection buffered " << conn.decoder.buffered() << " bytes (cap "
       << options_.max_conn_buffered_bytes << ")";
    evict_conn(conn, os.str(), /*send_error=*/true);
    return;
  }
  if (status == framing::ReadStatus::kEof) {
    // Clean EOF on a frame boundary: finish flushing pipelined responses,
    // then close. Mid-frame EOF is a protocol violation; drop immediately.
    FG_CHECK(conn.decoder.buffered() == 0, "protocol: truncated frame at EOF");
    conn.peer_eof = true;
    if (conn.slots.empty() && conn.outbuf.empty()) {
      close_conn(conn.id);
      closed = true;
    } else {
      update_epoll(conn);  // stop watching EPOLLIN; EOF would spin the loop
    }
  }
  if (!closed && conns_.count(conn.id) != 0) flush_conn(conn);
}

void Server::dispatch_frame(Conn& conn, std::vector<std::uint8_t> payload) {
  FG_TRACE_SPAN("serve.request", "serve");
  // Pipeline cap: a client may pipeline freely up to the bound; the frame
  // that would exceed it forfeits the connection (typed kError + close) so
  // one peer cannot pin unbounded response slots.
  if (options_.max_pipelined_requests > 0 &&
      conn.slots.size() >= options_.max_pipelined_requests) {
    std::ostringstream os;
    os << "pipelined request cap exceeded (" << conn.slots.size() << "/"
       << options_.max_pipelined_requests << ")";
    evict_conn(conn, os.str(), /*send_error=*/true);
    return;
  }
  const std::uint64_t seq = conn.next_seq++;
  conn.slots.emplace_back();
  conn.slots.back().t0 = std::chrono::steady_clock::now();
  conn.last_activity = conn.slots.back().t0;  // a complete frame is progress

  // Generate and threshold requests differ only in decode, model lookup and
  // the success encoder; admission, the active mark, the error reply and
  // the completion hand-off are shared (admit / error_reply / complete). A
  // submit that throws is answered by the catch below, which also undoes
  // the active mark.
  try {
    const MessageType type = peek_type(payload);
    if (type == MessageType::kGenerateV2) {
      GenerateRequest request = [&] {
        FG_TRACE_SPAN("serve.decode", "serve");
        return decode_generate_request(payload);
      }();
      auto it = dispatchers_.find(request.model);
      FG_CHECK(it != dispatchers_.end(), "unknown model: " << request.model);
      const std::optional<Ticket> admitted = admit(conn, seq, request.tenant_id);
      if (!admitted) return;
      const std::uint32_t side = request.side;
      it->second->submit_async(
          std::move(request.program_levels), request.seed, request.stream,
          request.deadline_micros, std::nullopt,
          [this, ticket = *admitted, side](std::vector<float>&& voltages, std::exception_ptr error) {
            // Executor thread: encode here (parallel with the loop).
            complete(ticket, error ? error_reply(error)
                                   : encode_generate_response({side, std::move(voltages)}));
          });
    } else if (type == MessageType::kThresholdQuery) {
      const ThresholdQuery query = [&] {
        FG_TRACE_SPAN("serve.decode", "serve");
        return decode_threshold_query(payload);
      }();
      auto it = threshold_services_.find(query.model);
      if (it == threshold_services_.end()) {
        FG_CHECK(dispatchers_.find(query.model) != dispatchers_.end(),
                 "unknown model: " << query.model);
        FG_CHECK(false, "model " << query.model
                                 << " is not condition-aware; threshold queries need a "
                                    "(PE, retention)-conditioned model");
      }
      // The service's own bounded queue (Overloaded) and the fleet queues
      // its sampling rides on sit behind the shared tenant admission.
      const std::optional<Ticket> admitted = admit(conn, seq, query.tenant_id);
      if (!admitted) return;
      static stats::Counter& threshold_queries_total = stats::counter("serve.threshold_queries");
      threshold_queries_total.add();
      it->second->submit_async(
          {query.pe_cycles, query.retention_hours},
          [this, ticket = *admitted](thresholds::ThresholdReport report, std::exception_ptr error) {
            // Service worker thread: encode here.
            complete(ticket, error ? error_reply(error)
                                   : encode_threshold_response(to_response(report)));
          });
    } else if (type == MessageType::kStats) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - started_).count();
      settle_slot(conn, seq, encode_stats_response(metrics_.to_json(elapsed)));
    } else if (type == MessageType::kHealth) {
      HealthStatus status = HealthStatus::kReady;
      if (draining_.load()) {
        status = HealthStatus::kDraining;
      } else {
        for (const auto& [name, dispatcher] : dispatchers_) {
          if (dispatcher->quarantined_replicas() > 0) {
            status = HealthStatus::kDegraded;  // serving, but under capacity
            break;
          }
        }
      }
      settle_slot(conn, seq, encode_health_response(status));
    } else {
      FG_CHECK(false, "unexpected message type " << static_cast<int>(type));
    }
  } catch (const Overloaded& e) {
    settle_slot(conn, seq, encode_overloaded(e.what()));
  } catch (const Error& e) {
    metrics_.record_error();
    settle_slot(conn, seq, encode_error(e.what()));
  }
}

Server::Slot& Server::slot_at(Conn& conn, std::uint64_t seq) {
  return conn.slots[static_cast<std::size_t>(seq - conn.head_seq)];
}

void Server::settle_slot(Conn& conn, std::uint64_t seq, const std::vector<std::uint8_t>& reply) {
  Slot& slot = slot_at(conn, seq);
  if (slot.counts_as_active) {
    // Marked by admit(), then the submit threw: no completion will come.
    slot.counts_as_active = false;
    --active_requests_;
  }
  slot.frame = framing::encode_frame(reply);
  slot.ready = true;
}

std::optional<Server::Ticket> Server::admit(Conn& conn, std::uint64_t seq,
                                            std::uint32_t tenant_id) {
  Slot& slot = slot_at(conn, seq);
  metrics_.record_stage("decode", micros_since(slot.t0));
  // Per-tenant token-bucket admission, ahead of the fleet queues: an
  // over-rate tenant drains only its own bucket and gets a typed
  // kRateLimited with a retry hint; everyone else's admission capacity is
  // untouched. Disabled (default) this is a strict no-op.
  const TenantGovernor::Decision admission = governor_.admit(tenant_id);
  if (!admission.admitted) {
    metrics_.record_rate_limited();
    static stats::Counter& rate_limited_total = stats::counter("serve.rate_limited");
    rate_limited_total.add();
    std::ostringstream os;
    os << "tenant " << tenant_id << " over admission rate; retry after "
       << admission.retry_after_micros << "us";
    settle_slot(conn, seq, encode_rate_limited(admission.retry_after_micros, os.str()));
    return std::nullopt;
  }
  // Mark the slot active *before* submit: the completion can fire on another
  // thread immediately.
  slot.counts_as_active = true;
  ++active_requests_;
  return Ticket{conn.id, seq, std::chrono::steady_clock::now()};
}

std::vector<std::uint8_t> Server::error_reply(std::exception_ptr error) {
  try {
    std::rethrow_exception(error);
  } catch (const Overloaded& e) {
    metrics_.record_shed();
    return encode_overloaded(e.what());
  } catch (const std::exception& e) {
    metrics_.record_error();
    return encode_error(e.what());
  }
}

void Server::complete(const Ticket& ticket, std::vector<std::uint8_t> reply) {
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions_.push_back(
        CompletionMsg{ticket.conn_id, ticket.seq, std::move(reply), micros_since(ticket.t_submit)});
  }
  wake_loop();
}

void Server::drain_completions() {
  std::deque<CompletionMsg> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (CompletionMsg& msg : batch) {
    auto it = conns_.find(msg.conn_id);
    if (it == conns_.end()) continue;  // connection died; slot already settled
    try {
      finish_slot(*it->second, msg.seq, std::move(msg.payload), msg.infer_wait_micros);
    } catch (const Error&) {
      // The reply's write found a dead peer: drop only this connection.
      close_conn(msg.conn_id);
    }
  }
}

void Server::finish_slot(Conn& conn, std::uint64_t seq, std::vector<std::uint8_t> payload,
                         std::uint64_t infer_wait_micros) {
  const std::size_t index = static_cast<std::size_t>(seq - conn.head_seq);
  FG_CHECK(index < conn.slots.size(), "serve: completion for unknown slot " << seq);
  Slot& slot = conn.slots[index];
  slot.frame = framing::encode_frame(payload);
  slot.ready = true;
  // Queueing delay plus batched inference, as the request saw it.
  metrics_.record_stage("infer_wait", infer_wait_micros);
  metrics_.record_request(micros_since(slot.t0));
  flush_conn(conn);
}

void Server::flush_conn(Conn& conn) {
  // Move every leading ready slot into the write buffer (request order), then
  // push as much as the socket accepts; EPOLLOUT finishes the rest.
  int appended_active = 0;
  while (!conn.slots.empty() && conn.slots.front().ready) {
    Slot& slot = conn.slots.front();
    conn.outbuf.insert(conn.outbuf.end(), slot.frame.begin(), slot.frame.end());
    if (slot.counts_as_active) ++appended_active;
    conn.slots.pop_front();
    ++conn.head_seq;
  }
  conn.active_unflushed += appended_active;

  if (conn.out_off < conn.outbuf.size()) {
    const auto t_write = std::chrono::steady_clock::now();
    const std::size_t n = framing::write_some(conn.fd, conn.outbuf.data() + conn.out_off,
                                              conn.outbuf.size() - conn.out_off);
    conn.out_off += n;
    if (n > 0) {
      metrics_.record_stage("write", micros_since(t_write));
      conn.last_activity = std::chrono::steady_clock::now();  // write progress
    }
  }
  // Buffered-bytes cap on the outbound side: a peer that stops reading while
  // responses pile up gets evicted instead of pinning the buffer. No typed
  // goodbye — its socket buffer is what's full.
  if (options_.max_conn_buffered_bytes > 0 &&
      conn.outbuf.size() - conn.out_off > options_.max_conn_buffered_bytes) {
    std::ostringstream os;
    os << "connection has " << conn.outbuf.size() - conn.out_off
       << " unread response bytes (cap " << options_.max_conn_buffered_bytes << ")";
    evict_conn(conn, os.str(), /*send_error=*/false);
    return;
  }
  if (conn.out_off == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_off = 0;
    if (conn.active_unflushed > 0) {
      active_requests_ -= conn.active_unflushed;
      conn.active_unflushed = 0;
    }
    if (conn.peer_eof && conn.slots.empty()) {
      close_conn(conn.id);
      return;
    }
  }
  update_epoll(conn);
}

void Server::on_conn_writable(Conn& conn) { flush_conn(conn); }

void Server::update_epoll(Conn& conn) {
  std::uint32_t events = 0;
  if (!conn.peer_eof) events |= EPOLLIN | EPOLLRDHUP;
  const bool want_write = conn.out_off < conn.outbuf.size();
  if (want_write) events |= EPOLLOUT;
  if (want_write == conn.want_write && !conn.peer_eof) return;  // no change
  conn.want_write = want_write;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = conn.id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) != 0) {
    FG_LOG(Error) << "epoll_ctl(mod conn) failed: " << std::strerror(errno);
  }
}

void Server::close_conn(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  // Settle drain accounting for everything this connection still owed:
  // responses sitting in the write buffer and requests still in flight.
  int active = conn.active_unflushed;
  for (const Slot& slot : conn.slots) {
    if (slot.counts_as_active) ++active;
  }
  if (active > 0) active_requests_ -= active;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  conns_.erase(it);
}

Client::Client(const std::string& endpoint_spec) {
  fd_ = connect_endpoint(parse_endpoint(endpoint_spec));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

GenerateResponse Client::generate(const GenerateRequest& request) {
  write_frame(fd_, encode_generate_request(request));
  std::vector<std::uint8_t> payload;
  FG_CHECK(read_frame(fd_, payload), "server closed connection");
  if (peek_type(payload) == MessageType::kOverloaded) {
    throw Overloaded("server overloaded: " + decode_overloaded(payload));
  }
  if (peek_type(payload) == MessageType::kRateLimited) {
    const RateLimitedInfo info = decode_rate_limited(payload);
    throw RateLimited("rate limited: " + info.message, info.retry_after_micros);
  }
  if (peek_type(payload) == MessageType::kError) {
    FG_CHECK(false, "server error: " << decode_error(payload));
  }
  return decode_generate_response(payload);
}

ThresholdResponse Client::threshold_query(const ThresholdQuery& query) {
  write_frame(fd_, encode_threshold_query(query));
  std::vector<std::uint8_t> payload;
  FG_CHECK(read_frame(fd_, payload), "server closed connection");
  if (peek_type(payload) == MessageType::kOverloaded) {
    throw Overloaded("server overloaded: " + decode_overloaded(payload));
  }
  if (peek_type(payload) == MessageType::kRateLimited) {
    const RateLimitedInfo info = decode_rate_limited(payload);
    throw RateLimited("rate limited: " + info.message, info.retry_after_micros);
  }
  if (peek_type(payload) == MessageType::kError) {
    FG_CHECK(false, "server error: " << decode_error(payload));
  }
  return decode_threshold_response(payload);
}

GenerateResponse Client::generate_with_retry(const GenerateRequest& request,
                                             const RetryPolicy& policy) {
  for (int attempt = 0;; ++attempt) {
    std::uint64_t server_hint_micros = 0;
    try {
      return generate(request);
    } catch (const RateLimited& e) {
      if (attempt + 1 >= policy.max_attempts) throw;
      server_hint_micros = e.retry_after_micros();
    } catch (const Overloaded&) {
      if (attempt + 1 >= policy.max_attempts) throw;
    }
    // Capped exponential backoff with deterministic jitter in
    // [backoff/2, backoff]: same seed replays the same schedule, different
    // seeds desynchronize a retry storm. The server's retry_after hint is a
    // floor — sleeping less would just be shed again.
    const int shift = std::min(attempt, 20);
    const std::uint64_t ceiling = std::min(policy.max_backoff_micros,
                                           policy.base_backoff_micros << shift);
    std::uint64_t wait = ceiling;
    if (ceiling > 0) {
      Rng rng(policy.seed ^ (static_cast<std::uint64_t>(attempt) + 1));
      wait = ceiling / 2 + rng.uniform_int(ceiling / 2 + 1);
    }
    wait = std::max(wait, server_hint_micros);
    if (wait > 0) std::this_thread::sleep_for(std::chrono::microseconds(wait));
  }
}

HealthStatus Client::health() {
  write_frame(fd_, encode_health_request());
  std::vector<std::uint8_t> payload;
  FG_CHECK(read_frame(fd_, payload), "server closed connection");
  if (peek_type(payload) == MessageType::kError) {
    FG_CHECK(false, "server error: " << decode_error(payload));
  }
  return decode_health_response(payload);
}

std::string Client::stats() {
  write_frame(fd_, encode_stats_request());
  std::vector<std::uint8_t> payload;
  FG_CHECK(read_frame(fd_, payload), "server closed connection");
  if (peek_type(payload) == MessageType::kError) {
    FG_CHECK(false, "server error: " << decode_error(payload));
  }
  return decode_stats_response(payload);
}

}  // namespace flashgen::serve
