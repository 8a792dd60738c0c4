// ThresholdService: wear-aware read-threshold optimization behind the serve
// front end.
//
// A cold kThresholdQuery generates waves x batch_rows rows, handed to the
// fleet in one sampler call — far too heavy for the epoll loop thread. Each
// condition-aware model gets one ThresholdService: a worker thread that pops
// queries from a bounded queue, runs the ThresholdOptimizer (sampling
// THROUGH the model's ReplicaDispatcher, so the heavy lifting lands on the
// replica executor threads and obeys their admission bounds), and hands the
// report to a completion callback. The epoll server re-enters its loop
// through the same completion-queue + eventfd path as generate requests.
//
// Determinism: DispatcherSampler submits each sampling row with its own
// counter-derived stream, and replies carry no per-query entropy — a
// response is a pure function of (checkpoint, condition, optimizer config),
// bit-identical across FLASHGEN_THREADS, replica counts, and cache state
// (from_cache is the only field that reflects the cache).
//
// Admission: submit_async throws Overloaded when the service queue is at its
// bound or the service is closed; per-tenant token buckets run in the server
// ahead of this queue, exactly as for generates. A cold query then submits
// all waves x batch_rows rows to the dispatcher at once, so it needs that
// many free replica admission slots at the same time (healthy replicas x
// BatchPolicy::max_queue_depth is the fleet's total). When a row is shed the
// query fails with a typed Overloaded reply; it never waits for capacity.
#pragma once

#include <cstddef>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

#include "serve/dispatcher.h"
#include "serve/protocol.h"
#include "thresholds/optimizer.h"

namespace flashgen::serve {

/// ChannelSampler over the replica fleet: each row becomes one conditioned
/// least-loaded submit carrying the row's own RNG stream, all submitted
/// before any is awaited; results are collected in request order, so reports
/// match the in-process ModelSampler bit-for-bit at any replica count or
/// batching.
class DispatcherSampler : public thresholds::ChannelSampler {
 public:
  /// `dispatcher` must outlive the sampler.
  explicit DispatcherSampler(ReplicaDispatcher& dispatcher) : dispatcher_(dispatcher) {}

  std::vector<std::vector<float>> sample(std::span<const thresholds::RowRequest> rows,
                                         std::uint64_t seed,
                                         const data::Condition& condition) override;

 private:
  ReplicaDispatcher& dispatcher_;
};

struct ThresholdServiceOptions {
  thresholds::OptimizerConfig optimizer;
  /// Queued + in-flight queries beyond this are shed with Overloaded;
  /// 0 = unbounded.
  std::size_t max_queue = 64;
};

class ThresholdService {
 public:
  /// Exactly one of `report` / `error` is meaningful. Invoked on the service
  /// worker thread — keep it cheap and non-blocking.
  using Completion =
      std::function<void(thresholds::ThresholdReport report, std::exception_ptr error)>;

  /// `dispatcher` must outlive the service and stay open while queries are
  /// in flight (the server drains services before closing dispatchers).
  ThresholdService(ReplicaDispatcher& dispatcher, ThresholdServiceOptions options);
  ~ThresholdService();

  ThresholdService(const ThresholdService&) = delete;
  ThresholdService& operator=(const ThresholdService&) = delete;

  /// Enqueues one query. Throws Overloaded when closed or at max_queue.
  void submit_async(const data::Condition& condition, Completion done);

  /// Stops admitting (submits throw Overloaded); queued work still runs.
  void close();
  /// Blocks until every admitted query has completed.
  void drain();

  /// Drops cached reports (e.g. after a checkpoint reload).
  void invalidate() { optimizer_.invalidate(); }

  const thresholds::ThresholdOptimizer& optimizer() const { return optimizer_; }
  std::size_t outstanding() const;

 private:
  struct Pending {
    data::Condition condition;
    Completion done;
  };

  void run();

  DispatcherSampler sampler_;
  thresholds::ThresholdOptimizer optimizer_;
  ThresholdServiceOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;       // worker: work available or stopping
  std::condition_variable idle_cv_;  // drain(): queue empty + nothing in flight
  std::deque<Pending> queue_;
  bool closed_ = false;
  bool stop_ = false;
  int in_flight_ = 0;
  std::thread worker_;
};

/// Wire mirror of a ThresholdReport.
ThresholdResponse to_response(const thresholds::ThresholdReport& report);

}  // namespace flashgen::serve
