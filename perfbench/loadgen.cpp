#include "loadgen.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>

#include "common/error.h"
#include "common/framing.h"
#include "serve/endpoint.h"

namespace flashgen::perf {

namespace {
std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

struct LoadClient::Sent {
  std::uint64_t index = 0;
  double due_s = 0.0;
};

LoadClient::UniqueFd::~UniqueFd() {
  if (fd >= 0) ::close(fd);
}

struct LoadClient::Conn {
  explicit Conn(int f) : fd(f) {}
  UniqueFd fd;
  framing::FrameDecoder decoder;
  std::vector<std::uint8_t> outbuf;
  std::size_t out_off = 0;
  bool want_write = false;
  std::deque<Sent> pending;  // replies arrive in send order per connection
};

LoadClient::LoadClient(const std::string& endpoint,
                       const std::vector<int>& connections_per_lane)
    : epoll_(::epoll_create1(EPOLL_CLOEXEC)) {
  FG_CHECK(epoll_.fd >= 0, "epoll_create1() failed: " << std::strerror(errno));
  const serve::Endpoint ep = serve::parse_endpoint(endpoint);
  for (int count : connections_per_lane) {
    FG_CHECK(count > 0, "every lane needs a connection");
    std::vector<std::size_t> lane;
    for (int c = 0; c < count; ++c) {
      conns_.push_back(std::make_unique<Conn>(serve::connect_endpoint(ep)));
      framing::set_nonblocking(conns_.back()->fd.fd);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = conns_.size() - 1;
      FG_CHECK(::epoll_ctl(epoll_.fd, EPOLL_CTL_ADD, conns_.back()->fd.fd, &ev) == 0,
               "epoll_ctl(add) failed: " << std::strerror(errno));
      lane.push_back(conns_.size() - 1);
    }
    lanes_.push_back(std::move(lane));
  }
}

LoadClient::~LoadClient() = default;

std::size_t LoadClient::least_pending(int lane) const {
  const std::vector<std::size_t>& conns = lanes_.at(static_cast<std::size_t>(lane));
  std::size_t best = conns.front();
  for (std::size_t c : conns) {
    if (conns_[c]->pending.size() < conns_[best]->pending.size()) best = c;
  }
  return best;
}

double LoadClient::now_s() const { return static_cast<double>(steady_ns() - t0_ns_) * 1e-9; }

void LoadClient::send(std::size_t c, std::uint64_t index,
                      const std::vector<std::uint8_t>& payload, double due_s, double now,
                      std::vector<Outcome>& out) {
  Conn& conn = *conns_[c];
  const std::vector<std::uint8_t> frame = framing::encode_frame(payload);
  conn.outbuf.insert(conn.outbuf.end(), frame.begin(), frame.end());
  conn.pending.push_back(Sent{index, due_s});
  out[index].lag_ms = (now - due_s) * 1e3;
  conn.out_off += framing::write_some(conn.fd.fd, conn.outbuf.data() + conn.out_off,
                                      conn.outbuf.size() - conn.out_off);
  if (conn.out_off == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_off = 0;
  }
  const bool want = conn.out_off < conn.outbuf.size();
  if (want != conn.want_write) {
    conn.want_write = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = c;
    FG_CHECK(::epoll_ctl(epoll_.fd, EPOLL_CTL_MOD, conn.fd.fd, &ev) == 0,
             "epoll_ctl(mod) failed: " << std::strerror(errno));
  }
}

std::size_t LoadClient::poll(double timeout_s, std::vector<Outcome>& out) {
  constexpr int kMaxEvents = 16;
  epoll_event events[kMaxEvents];
  // Nanosecond-resolution wait: an open-loop send due in 300 us must not be
  // rounded to a whole millisecond late.
  const auto ns = static_cast<long>(std::max(timeout_s, 0.0) * 1e9);
  const timespec timeout{ns / 1'000'000'000, ns % 1'000'000'000};
  const int n = ::epoll_pwait2(epoll_.fd, events, kMaxEvents, &timeout, nullptr);
  if (n < 0) {
    FG_CHECK(errno == EINTR, "epoll_wait failed: " << std::strerror(errno));
    return 0;
  }
  std::size_t completed = 0;
  std::vector<std::uint8_t> payload;
  for (int e = 0; e < n; ++e) {
    const std::size_t c = static_cast<std::size_t>(events[e].data.u64);
    Conn& conn = *conns_[c];
    if ((events[e].events & EPOLLOUT) != 0 && conn.out_off < conn.outbuf.size()) {
      conn.out_off += framing::write_some(conn.fd.fd, conn.outbuf.data() + conn.out_off,
                                          conn.outbuf.size() - conn.out_off);
      if (conn.out_off == conn.outbuf.size()) {
        conn.outbuf.clear();
        conn.out_off = 0;
        conn.want_write = false;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = c;
        FG_CHECK(::epoll_ctl(epoll_.fd, EPOLL_CTL_MOD, conn.fd.fd, &ev) == 0,
                 "epoll_ctl(mod) failed: " << std::strerror(errno));
      }
    }
    if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) continue;
    const framing::ReadStatus status = framing::read_some(conn.fd.fd, conn.decoder);
    // Acknowledge replies at once. The server leaves Nagle on for accepted
    // sockets, so a reply written while an earlier one is unacknowledged
    // waits for our ACK; a delayed ACK would stall it until this
    // connection's next request and make latency bimodal between runs.
    const int one = 1;
    (void)::setsockopt(conn.fd.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
    const double done = now_s();
    while (conn.decoder.next(payload)) {
      FG_CHECK(!conn.pending.empty(), "load client: unsolicited reply");
      const Sent sent = conn.pending.front();
      conn.pending.pop_front();
      Outcome& o = out[sent.index];
      o.type = serve::peek_type(payload);
      o.done_s = done;
      o.latency_ms = (done - sent.due_s) * 1e3;
      o.reply_hash = fnv1a(payload);
      if (o.type == serve::MessageType::kThresholdOk) o.reply = payload;
      ++completed;
    }
    FG_CHECK(status != framing::ReadStatus::kEof || conn.pending.empty(),
             "load client: server closed a connection with replies owed");
  }
  return completed;
}

std::vector<Outcome> LoadClient::open_loop(const std::vector<Shot>& shots, double stall_s) {
  std::vector<Outcome> out(shots.size());
  t0_ns_ = steady_ns();
  std::size_t next = 0;
  std::size_t done = 0;
  double last_progress = 0.0;
  while (done < shots.size()) {
    double now = now_s();
    while (next < shots.size() && shots[next].due_s <= now) {
      const Shot& shot = shots[next];
      send(least_pending(shot.lane), next, shot.payload, shot.due_s, now, out);
      ++next;
      now = now_s();
    }
    double timeout_s = 0.05;
    if (next < shots.size()) timeout_s = std::clamp(shots[next].due_s - now, 0.0, 0.05);
    const std::size_t got = poll(timeout_s, out);
    done += got;
    if (got > 0 || next < shots.size()) last_progress = now_s();
    FG_CHECK(now_s() - last_progress < stall_s,
             "load client: no reply for " << stall_s << " s (" << done << "/" << shots.size()
                                          << " answered)");
  }
  return out;
}

std::vector<Outcome> LoadClient::closed_window(
    int window, double seconds,
    const std::function<std::vector<std::uint8_t>(std::uint64_t)>& make, double stall_s) {
  FG_CHECK(window > 0, "closed window needs at least one outstanding request");
  std::vector<Outcome> out;
  out.reserve(static_cast<std::size_t>(window) * 1024);
  t0_ns_ = steady_ns();
  std::uint64_t sent = 0;
  std::size_t done = 0;
  const auto send_next = [&] {
    const double now = now_s();
    out.emplace_back();
    send(least_pending(0), sent, make(sent), now, now, out);
    ++sent;
  };
  for (int i = 0; i < window; ++i) send_next();
  double last_progress = 0.0;
  while (done < sent) {
    const std::size_t got = poll(0.05, out);
    done += got;
    const double now = now_s();
    if (got > 0) last_progress = now;
    if (now < seconds) {
      while (sent - done < static_cast<std::uint64_t>(window)) send_next();
    }
    FG_CHECK(now - last_progress < stall_s,
             "load client: no reply for " << stall_s << " s (" << done << "/" << sent
                                          << " answered)");
  }
  return out;
}

}  // namespace flashgen::perf
