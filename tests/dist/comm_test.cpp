// Collective correctness and failure semantics of dist::Comm over an
// in-process socketpair mesh (one std::thread per rank).
#include "dist/comm.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/faultinject.h"

namespace flashgen::dist {
namespace {

// Runs `body(comm)` on one thread per rank and joins them all.
void run_ranks(int world, const std::function<void(Comm&)>& body,
               const CommConfig& config = {}) {
  auto comms = make_local_mesh(world, config);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&comms, &body, r] { body(comms[static_cast<std::size_t>(r)]); });
  }
  for (auto& t : threads) t.join();
}

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

TEST(CommTest, SendRecvRoundTrip) {
  run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_to(1, bytes_of({1, 2, 3}));
      std::vector<std::uint8_t> got;
      comm.recv_from(1, got);
      EXPECT_EQ(got, bytes_of({4, 5}));
    } else {
      std::vector<std::uint8_t> got;
      comm.recv_from(0, got);
      EXPECT_EQ(got, bytes_of({1, 2, 3}));
      comm.send_to(0, bytes_of({4, 5}));
    }
  });
}

TEST(CommTest, BarrierReleasesAllRanks) {
  for (int world : {2, 3, 4}) {
    std::atomic<int> arrived{0};
    run_ranks(world, [&](Comm& comm) {
      arrived.fetch_add(1);
      comm.barrier();
      // Every rank must have arrived before any rank leaves the barrier.
      EXPECT_EQ(arrived.load(), comm.world());
      comm.barrier();  // a second barrier must not deadlock
    });
  }
}

TEST(CommTest, BroadcastCopiesRootPayload) {
  for (int root : {0, 2}) {
    run_ranks(3, [root](Comm& comm) {
      std::vector<std::uint8_t> data;
      if (comm.rank() == root) data = bytes_of({9, 8, 7, 6});
      comm.broadcast(data, root);
      EXPECT_EQ(data, bytes_of({9, 8, 7, 6}));
    });
  }
}

TEST(CommTest, AllGatherCollectsVariableSizedBlobs) {
  for (int world : {1, 2, 4}) {
    run_ranks(world, [](Comm& comm) {
      // Rank r contributes r+1 bytes of value r.
      std::vector<std::uint8_t> mine(static_cast<std::size_t>(comm.rank() + 1),
                                     static_cast<std::uint8_t>(comm.rank()));
      auto all = comm.all_gather(mine);
      ASSERT_EQ(all.size(), static_cast<std::size_t>(comm.world()));
      for (int r = 0; r < comm.world(); ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)],
                  std::vector<std::uint8_t>(static_cast<std::size_t>(r + 1),
                                            static_cast<std::uint8_t>(r)));
      }
    });
  }
}

TEST(CommTest, RingAllReduceSumsAcrossRanks) {
  // Includes a vector shorter than the world size (empty chunks) and a
  // non-power-of-two world (the ring variant has no power-of-two demand).
  for (int world : {2, 3, 4}) {
    for (int n : {1, 2, 7, 64}) {
      run_ranks(world, [n](Comm& comm) {
        std::vector<float> data(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
          data[static_cast<std::size_t>(i)] = static_cast<float>(comm.rank() * 100 + i);
        }
        comm.all_reduce_sum(data);
        const int w = comm.world();
        for (int i = 0; i < n; ++i) {
          const float want = static_cast<float>(100 * (w * (w - 1)) / 2 + w * i);
          EXPECT_FLOAT_EQ(data[static_cast<std::size_t>(i)], want)
              << "world " << w << " n " << n << " i " << i;
        }
      });
    }
  }
}

TEST(CommTest, TreeSumMatchesAcrossWorldSizes) {
  // The keystone property: with 4 leaves assigned to ranks in contiguous
  // blocks and pre-summed as balanced subtrees, the butterfly must produce
  // bit-identical results for world 1, 2 and 4. Values are chosen so float
  // addition order matters (naive left-to-right differs in the last bit).
  const std::vector<std::vector<float>> leaves = {
      {1.0e8f, 3.14159f}, {-1.0f, 2.71828f}, {1.0e-8f, -1.61803f}, {7.5f, 1.41421f}};
  auto pair_sum = [](const std::vector<float>& a, const std::vector<float>& b) {
    std::vector<float> out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
    return out;
  };
  std::vector<std::vector<float>> results;
  for (int world : {1, 2, 4}) {
    std::vector<std::vector<float>> per_rank(static_cast<std::size_t>(world));
    run_ranks(world, [&](Comm& comm) {
      const int per = 4 / comm.world();
      const std::size_t base = static_cast<std::size_t>(comm.rank() * per);
      // Local balanced tree over this rank's contiguous block of leaves.
      std::vector<float> acc = leaves[base];
      if (per == 2) acc = pair_sum(acc, leaves[base + 1]);
      if (per == 4) {
        acc = pair_sum(pair_sum(leaves[0], leaves[1]), pair_sum(leaves[2], leaves[3]));
      }
      comm.all_reduce_tree_sum(acc);
      per_rank[static_cast<std::size_t>(comm.rank())] = acc;
    });
    for (const auto& r : per_rank) EXPECT_EQ(r, per_rank[0]);
    results.push_back(per_rank[0]);
  }
  EXPECT_EQ(results[1], results[0]);  // bitwise: EXPECT_EQ on float vectors
  EXPECT_EQ(results[2], results[0]);
}

TEST(CommTest, TreeSumRejectsNonPowerOfTwoWorld) {
  run_ranks(3, [](Comm& comm) {
    std::vector<float> data{1.0f};
    EXPECT_THROW(comm.all_reduce_tree_sum(data), flashgen::Error);
  });
}

TEST(CommTest, RecvTimeoutThrowsCommTimeoutWithinBound) {
  // Rank 0 never sends; rank 1's recv must fail as CommTimeout in roughly
  // timeout_ms, not hang.
  run_ranks(
      2,
      [](Comm& comm) {
        if (comm.rank() != 1) return;  // rank 0 just idles until rank 1 gives up
        const auto start = std::chrono::steady_clock::now();
        std::vector<std::uint8_t> got;
        EXPECT_THROW(comm.recv_from(0, got), CommTimeout);
        const auto elapsed = std::chrono::steady_clock::now() - start;
        EXPECT_LT(elapsed, std::chrono::seconds(5));
      },
      CommConfig{.timeout_ms = 200});
}

TEST(CommTest, PeerDeathSurfacesAsCommError) {
  run_ranks(
      2,
      [](Comm& comm) {
        if (comm.rank() == 0) {
          // Destroying rank 0's sockets makes rank 1 observe EOF.
          Comm dead = std::move(comm);
        } else {
          std::vector<std::uint8_t> got;
          EXPECT_THROW(comm.recv_from(0, got), CommError);
        }
      },
      CommConfig{.timeout_ms = 2000});
}

TEST(CommTest, InjectedSendFaultThrowsTypedError) {
  faultinject::configure("dist_send:@0", 0);
  run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      // Whichever thread draws the first send call fails with CommError; the
      // peer then observes the shutdown as EOF (also CommError).
      EXPECT_THROW(comm.send_to(1, bytes_of({1})), CommError);
    } else {
      std::vector<std::uint8_t> got;
      EXPECT_THROW(comm.recv_from(0, got), CommError);
    }
  });
  EXPECT_EQ(faultinject::fired("dist_send"), 1u);
  faultinject::clear();
}

TEST(CommTest, InjectedRecvFaultThrowsTypedError) {
  faultinject::configure("dist_recv:@0", 0);
  run_ranks(
      2,
      [](Comm& comm) {
        std::vector<std::uint8_t> got;
        if (comm.rank() == 0) {
          EXPECT_THROW(comm.recv_from(1, got), CommError);
        } else {
          // Rank 1 only sends, so rank 0's receive is the first (and only)
          // evaluation of the fault point. Rank 0 shuts its sockets down
          // after the fault; depending on timing this send lands in the
          // socket buffer first or fails with CommError.
          try {
            comm.send_to(0, bytes_of({1}));
          } catch (const CommError&) {
          }
        }
      },
      CommConfig{.timeout_ms = 2000});
  EXPECT_EQ(faultinject::fired("dist_recv"), 1u);
  faultinject::clear();
}

TEST(CommTest, TcpRendezvousConnectsAndReduces) {
  // Loopback rendezvous on an ephemeral-ish port; retry a few ports in case
  // one is taken.
  for (std::uint16_t base_port : {38471, 38511, 38551}) {
    std::vector<std::thread> threads;
    std::vector<int> sums(2, 0);
    std::atomic<bool> failed{false};
    for (int r = 0; r < 2; ++r) {
      threads.emplace_back([&, r] {
        try {
          Comm comm = connect_tcp(r, 2, base_port, CommConfig{.timeout_ms = 5000});
          std::vector<float> data{static_cast<float>(comm.rank() + 1)};
          comm.all_reduce_tree_sum(data);
          sums[static_cast<std::size_t>(r)] = static_cast<int>(data[0]);
        } catch (const CommError&) {
          failed.store(true);
        }
      });
    }
    for (auto& t : threads) t.join();
    if (failed.load()) continue;  // port collision; try the next base port
    EXPECT_EQ(sums[0], 3);
    EXPECT_EQ(sums[1], 3);
    return;
  }
  GTEST_SKIP() << "no free loopback port triplet found";
}

TEST(CommTest, TcpRendezvousToleratesOutOfOrderStarts) {
  // The dialing rank comes up well before any listener exists: every early
  // connect is refused and must be retried with backoff, not surfaced.
  for (std::uint16_t base_port : {38611, 38651, 38691}) {
    std::vector<int> sums(2, 0);
    std::atomic<bool> failed{false};
    std::thread dialer([&] {
      try {
        Comm comm = connect_tcp(1, 2, base_port, CommConfig{.timeout_ms = 10000});
        std::vector<float> data{2.0f};
        comm.all_reduce_tree_sum(data);
        sums[1] = static_cast<int>(data[0]);
      } catch (const CommError&) {
        failed.store(true);
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    std::thread listener([&] {
      try {
        Comm comm = connect_tcp(0, 2, base_port, CommConfig{.timeout_ms = 10000});
        std::vector<float> data{1.0f};
        comm.all_reduce_tree_sum(data);
        sums[0] = static_cast<int>(data[0]);
      } catch (const CommError&) {
        failed.store(true);
      }
    });
    dialer.join();
    listener.join();
    if (failed.load()) continue;  // port collision; try the next base port
    EXPECT_EQ(sums[0], 3);
    EXPECT_EQ(sums[1], 3);
    return;
  }
  GTEST_SKIP() << "no free loopback port triplet found";
}

TEST(CommTest, TcpRendezvousConnectTimeoutReportsLastError) {
  // Rank 1 dials a rank-0 listener that never binds: refused connects are
  // retried until the deadline, then surface as CommTimeout naming the errno.
  const auto start = std::chrono::steady_clock::now();
  try {
    connect_tcp(1, 2, 39771, CommConfig{.timeout_ms = 300});
    FAIL() << "rendezvous unexpectedly succeeded";
  } catch (const CommTimeout& e) {
    EXPECT_NE(std::string(e.what()).find("last error"), std::string::npos) << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
}

TEST(CommTest, TcpRendezvousTimesOutOnMissingRank) {
  // Rank 0 of a world of 2 waits for rank 1, which never arrives.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(connect_tcp(0, 2, 39871, CommConfig{.timeout_ms = 300}), CommTimeout);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
}

}  // namespace
}  // namespace flashgen::dist
