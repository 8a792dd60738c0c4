#include "dist/comm.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>
#include <utility>

#include "common/faultinject.h"
#include "common/framing.h"
#include "common/stats.h"
#include "common/trace.h"

namespace flashgen::dist {

namespace {
std::vector<std::uint8_t> floats_to_bytes(const float* data, std::size_t count) {
  std::vector<std::uint8_t> bytes(count * sizeof(float));
  // An empty frame's data() may be null, which memcpy must never see.
  if (count > 0) std::memcpy(bytes.data(), data, bytes.size());
  return bytes;
}

void bytes_to_floats(const std::vector<std::uint8_t>& bytes, float* out, std::size_t count) {
  FG_CHECK(bytes.size() == count * sizeof(float),
           "dist: float frame has " << bytes.size() << " bytes, expected "
                                    << count * sizeof(float));
  if (count > 0) std::memcpy(out, bytes.data(), bytes.size());
}
}  // namespace

Comm::Comm(int rank, int world, std::vector<int> peer_fds, const CommConfig& config)
    : rank_(rank), world_(world), fds_(std::move(peer_fds)), config_(config) {
  FG_CHECK(world_ >= 1 && rank_ >= 0 && rank_ < world_,
           "dist: bad rank " << rank_ << " for world " << world_);
  FG_CHECK(fds_.size() == static_cast<std::size_t>(world_),
           "dist: " << fds_.size() << " peer fds for world " << world_);
  for (int p = 0; p < world_; ++p) {
    if (p == rank_) continue;
    FG_CHECK(fds_[static_cast<std::size_t>(p)] >= 0, "dist: missing fd for peer " << p);
    framing::set_socket_timeout(fds_[static_cast<std::size_t>(p)], config_.timeout_ms);
  }
}

Comm::~Comm() {
  for (int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
}

Comm::Comm(Comm&& other) noexcept
    : rank_(other.rank_), world_(other.world_), fds_(std::move(other.fds_)),
      config_(other.config_) {
  other.fds_.clear();
}

Comm& Comm::operator=(Comm&& other) noexcept {
  if (this != &other) {
    for (int fd : fds_) {
      if (fd >= 0) ::close(fd);
    }
    rank_ = other.rank_;
    world_ = other.world_;
    fds_ = std::move(other.fds_);
    config_ = other.config_;
    other.fds_.clear();
  }
  return *this;
}

int Comm::fd_for(int peer) const {
  FG_CHECK(peer >= 0 && peer < world_ && peer != rank_,
           "dist: bad peer " << peer << " (rank " << rank_ << ", world " << world_ << ")");
  return fds_[static_cast<std::size_t>(peer)];
}

void Comm::shutdown_all() noexcept {
  // Unblocks every peer currently waiting on this rank: their reads return
  // EOF immediately instead of running out their timeout.
  for (int fd : fds_) {
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
}

void Comm::send_to(int peer, const std::vector<std::uint8_t>& payload) {
  static stats::Counter& bytes_sent = stats::counter("dist.bytes_sent");
  const int fd = fd_for(peer);
  if (FG_FAULT("dist_send")) {
    shutdown_all();
    std::ostringstream os;
    os << "fault injected: dist_send (rank " << rank_ << " -> " << peer << ")";
    throw CommError(os.str());
  }
  try {
    framing::write_frame(fd, payload);
  } catch (const framing::IoError& err) {
    shutdown_all();
    std::ostringstream os;
    os << "dist: send to rank " << peer << " failed: " << err.what();
    if (err.timed_out()) throw CommTimeout(os.str());
    throw CommError(os.str());
  } catch (const flashgen::Error& err) {
    shutdown_all();
    std::ostringstream os;
    os << "dist: send to rank " << peer << " failed: " << err.what();
    throw CommError(os.str());
  }
  bytes_sent.add(payload.size() + 4);
}

void Comm::recv_from(int peer, std::vector<std::uint8_t>& payload) {
  static stats::Counter& bytes_received = stats::counter("dist.bytes_received");
  const int fd = fd_for(peer);
  if (FG_FAULT("dist_recv")) {
    shutdown_all();
    std::ostringstream os;
    os << "fault injected: dist_recv (rank " << rank_ << " <- " << peer << ")";
    throw CommError(os.str());
  }
  bool got = false;
  try {
    FG_TRACE_SPAN("dist.wait", "dist");  // straggler wait: time blocked on a peer
    got = framing::read_frame(fd, payload);
  } catch (const framing::IoError& err) {
    shutdown_all();
    std::ostringstream os;
    os << "dist: recv from rank " << peer << " failed: " << err.what();
    if (err.timed_out()) throw CommTimeout(os.str());
    throw CommError(os.str());
  } catch (const flashgen::Error& err) {
    shutdown_all();
    std::ostringstream os;
    os << "dist: recv from rank " << peer << " failed: " << err.what();
    throw CommError(os.str());
  }
  if (!got) {
    shutdown_all();
    std::ostringstream os;
    os << "dist: peer rank " << peer << " closed the connection";
    throw CommError(os.str());
  }
  bytes_received.add(payload.size() + 4);
}

void Comm::exchange(int peer, const std::vector<std::uint8_t>& out,
                    std::vector<std::uint8_t>& in) {
  if (rank_ < peer) {
    send_to(peer, out);
    recv_from(peer, in);
  } else {
    recv_from(peer, in);
    send_to(peer, out);
  }
}

void Comm::barrier() {
  if (world_ == 1) return;
  FG_TRACE_SPAN("dist.barrier", "dist");
  static stats::Counter& barriers = stats::counter("dist.barriers");
  // Dissemination barrier: in round k, notify rank + 2^k and wait for
  // rank - 2^k. The frames are tiny (kernel-buffered), so the unconditional
  // send-then-receive order cannot deadlock.
  const std::vector<std::uint8_t> token{0xB7};
  std::vector<std::uint8_t> in;
  for (int k = 1; k < world_; k <<= 1) {
    const int up = (rank_ + k) % world_;
    const int down = (rank_ - k + world_) % world_;
    send_to(up, token);
    recv_from(down, in);
  }
  barriers.add();
}

void Comm::broadcast(std::vector<std::uint8_t>& data, int root) {
  FG_CHECK(root >= 0 && root < world_, "dist: broadcast root " << root << " out of range");
  if (world_ == 1) return;
  FG_TRACE_SPAN("dist.broadcast", "dist");
  if (rank_ == root) {
    for (int p = 0; p < world_; ++p) {
      if (p != root) send_to(p, data);
    }
  } else {
    recv_from(root, data);
  }
}

std::vector<std::vector<std::uint8_t>> Comm::all_gather(
    const std::vector<std::uint8_t>& mine) {
  FG_TRACE_SPAN("dist.all_gather", "dist");
  std::vector<std::vector<std::uint8_t>> out(static_cast<std::size_t>(world_));
  out[static_cast<std::size_t>(rank_)] = mine;
  if (world_ == 1) return out;
  const int next = (rank_ + 1) % world_;
  const int prev = (rank_ - 1 + world_) % world_;
  // Ring: in round i, forward the block that originated at rank - i and
  // receive the block that originated at rank - i - 1. Parity order (even
  // ranks send first) keeps a cycle of blocking sockets impossible.
  for (int i = 0; i < world_ - 1; ++i) {
    const int send_origin = (rank_ - i + world_) % world_;
    const int recv_origin = (rank_ - i - 1 + world_) % world_;
    auto& incoming = out[static_cast<std::size_t>(recv_origin)];
    if (rank_ % 2 == 0) {
      send_to(next, out[static_cast<std::size_t>(send_origin)]);
      recv_from(prev, incoming);
    } else {
      recv_from(prev, incoming);
      send_to(next, out[static_cast<std::size_t>(send_origin)]);
    }
  }
  return out;
}

void Comm::all_reduce_sum(std::vector<float>& data) {
  if (world_ == 1) return;
  FG_TRACE_SPAN("dist.all_reduce", "dist");
  static stats::Counter& allreduces = stats::counter("dist.allreduces");
  const int next = (rank_ + 1) % world_;
  const int prev = (rank_ - 1 + world_) % world_;
  const std::size_t n = data.size();
  auto chunk_span = [&](int c) {
    const auto cc = static_cast<std::size_t>(((c % world_) + world_) % world_);
    const auto w = static_cast<std::size_t>(world_);
    const std::size_t b = n * cc / w;
    return std::pair<std::size_t, std::size_t>(b, n * (cc + 1) / w - b);
  };
  std::vector<std::uint8_t> in;
  // Reduce-scatter: after world-1 rounds, rank r owns the full sum of chunk
  // (r + 1) % world.
  for (int i = 0; i < world_ - 1; ++i) {
    const auto [sb, sc] = chunk_span(rank_ - i);
    const auto [rb, rc] = chunk_span(rank_ - i - 1);
    const auto payload = floats_to_bytes(data.data() + sb, sc);
    if (rank_ % 2 == 0) {
      send_to(next, payload);
      recv_from(prev, in);
    } else {
      recv_from(prev, in);
      send_to(next, payload);
    }
    std::vector<float> tmp(rc);
    bytes_to_floats(in, tmp.data(), rc);
    for (std::size_t j = 0; j < rc; ++j) data[rb + j] += tmp[j];
  }
  // All-gather of the reduced chunks.
  for (int i = 0; i < world_ - 1; ++i) {
    const auto [sb, sc] = chunk_span(rank_ + 1 - i);
    const auto [rb, rc] = chunk_span(rank_ - i);
    const auto payload = floats_to_bytes(data.data() + sb, sc);
    if (rank_ % 2 == 0) {
      send_to(next, payload);
      recv_from(prev, in);
    } else {
      recv_from(prev, in);
      send_to(next, payload);
    }
    bytes_to_floats(in, data.data() + rb, rc);
  }
  allreduces.add();
}

void Comm::all_reduce_tree_sum(std::vector<float>& data) {
  if (world_ == 1) return;
  FG_CHECK((world_ & (world_ - 1)) == 0,
           "dist: tree all-reduce needs a power-of-two world, got " << world_);
  FG_TRACE_SPAN("dist.all_reduce", "dist");
  static stats::Counter& allreduces = stats::counter("dist.allreduces");
  std::vector<std::uint8_t> in;
  std::vector<float> remote(data.size());
  for (int k = 1; k < world_; k <<= 1) {
    const int partner = rank_ ^ k;
    exchange(partner, floats_to_bytes(data.data(), data.size()), in);
    bytes_to_floats(in, remote.data(), remote.size());
    // Elementwise a + b: float addition is commutative, so both partners
    // compute bit-identical sums regardless of which side "sends first".
    for (std::size_t j = 0; j < data.size(); ++j) data[j] += remote[j];
  }
  allreduces.add();
}

std::vector<Comm> make_local_mesh(int world, const CommConfig& config) {
  FG_CHECK(world >= 1, "dist: world must be >= 1");
  std::vector<std::vector<int>> fds(static_cast<std::size_t>(world),
                                    std::vector<int>(static_cast<std::size_t>(world), -1));
  for (int i = 0; i < world; ++i) {
    for (int j = i + 1; j < world; ++j) {
      int pair[2];
      FG_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) == 0,
               "dist: socketpair failed: " << std::strerror(errno));
      fds[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = pair[0];
      fds[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = pair[1];
    }
  }
  std::vector<Comm> comms;
  comms.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) comms.emplace_back(r, world, std::move(fds[r]), config);
  return comms;
}

Comm connect_tcp(int rank, int world, std::uint16_t base_port, const CommConfig& config) {
  FG_CHECK(world >= 1 && rank >= 0 && rank < world,
           "dist: bad rank " << rank << " for world " << world);
  std::vector<int> fds(static_cast<std::size_t>(world), -1);
  if (world == 1) return Comm(rank, world, std::move(fds), config);

  auto make_addr = [&](int r) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(base_port + r));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return addr;
  };

  // Listen for the higher ranks that will dial in.
  int listen_fd = -1;
  if (rank < world - 1) {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    FG_CHECK(listen_fd >= 0, "dist: socket failed: " << std::strerror(errno));
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = make_addr(rank);
    FG_CHECK(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
             "dist: bind to port " << base_port + rank << " failed: " << std::strerror(errno));
    FG_CHECK(::listen(listen_fd, world) == 0,
             "dist: listen failed: " << std::strerror(errno));
    // SO_RCVTIMEO on a listening socket bounds accept(), so a rank that
    // never shows up surfaces as a CommTimeout instead of a hang.
    framing::set_socket_timeout(listen_fd, config.timeout_ms);
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config.timeout_ms > 0 ? config.timeout_ms
                                                                        : 30000);
  // Transient connect failures happen whenever workers start out of order:
  // the listener's bind/listen simply has not run yet. Those are retried
  // with bounded exponential backoff (1ms doubling to a 250ms cap) until
  // the rendezvous deadline. Anything else — EADDRNOTAVAIL, EACCES, bad
  // address family, fd exhaustion surfacing as ECONNREFUSED never does —
  // is a configuration error that retrying cannot fix, so it fails fast.
  const auto transient_connect_errno = [](int err) {
    switch (err) {
      case ECONNREFUSED:
      case ECONNRESET:
      case ECONNABORTED:
      case ETIMEDOUT:
      case EINTR:
      case EAGAIN:
      case ENETUNREACH:
      case EHOSTUNREACH:
        return true;
      default:
        return false;
    }
  };
  // Dial every lower rank, retrying until its listener is up.
  for (int p = rank - 1; p >= 0; --p) {
    int fd = -1;
    std::chrono::milliseconds backoff(1);
    for (;;) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      FG_CHECK(fd >= 0, "dist: socket failed: " << std::strerror(errno));
      sockaddr_in addr = make_addr(p);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) break;
      const int err = errno;
      ::close(fd);
      fd = -1;
      if (!transient_connect_errno(err)) {
        if (listen_fd >= 0) ::close(listen_fd);
        for (int f : fds) {
          if (f >= 0) ::close(f);
        }
        std::ostringstream os;
        os << "dist: rendezvous connect to rank " << p << " (port " << base_port + p
           << ") failed: " << std::strerror(err);
        throw CommError(os.str());
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        if (listen_fd >= 0) ::close(listen_fd);
        for (int f : fds) {
          if (f >= 0) ::close(f);
        }
        std::ostringstream os;
        os << "dist: rendezvous with rank " << p << " timed out (port " << base_port + p
           << ", last error: " << std::strerror(err) << ")";
        throw CommTimeout(os.str());
      }
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, std::chrono::milliseconds(250));
    }
    // Identify ourselves so the listener can slot this connection by rank.
    framing::write_frame(fd, {static_cast<std::uint8_t>(rank)});
    fds[static_cast<std::size_t>(p)] = fd;
  }
  // Accept every higher rank and slot it by its handshake frame.
  for (int need = world - 1 - rank; need > 0; --need) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int err = errno;
      ::close(listen_fd);
      for (int f : fds) {
        if (f >= 0) ::close(f);
      }
      std::ostringstream os;
      os << "dist: rendezvous accept timed out with " << need << " ranks missing: "
         << std::strerror(err);
      throw CommTimeout(os.str());
    }
    FG_CHECK(fd >= 0, "dist: accept failed: " << std::strerror(errno));
    std::vector<std::uint8_t> hello;
    FG_CHECK(framing::read_frame(fd, hello) && hello.size() == 1,
             "dist: bad rendezvous handshake");
    const int peer = hello[0];
    FG_CHECK(peer > rank && peer < world && fds[static_cast<std::size_t>(peer)] < 0,
             "dist: duplicate or out-of-range rendezvous rank " << peer);
    fds[static_cast<std::size_t>(peer)] = fd;
  }
  if (listen_fd >= 0) ::close(listen_fd);
  return Comm(rank, world, std::move(fds), config);
}

}  // namespace flashgen::dist
