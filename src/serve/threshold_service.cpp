#include "serve/threshold_service.h"

#include <sstream>
#include <utility>

#include "common/error.h"

namespace flashgen::serve {

std::vector<std::vector<float>> DispatcherSampler::sample(
    std::span<const thresholds::RowRequest> rows, std::uint64_t seed,
    const data::Condition& condition) {
  // Fan every row out across the fleet, then collect in request order. Each
  // row's voltages depend only on (weights, PL row, seed, stream, condition),
  // so the routing decisions are invisible in the result. A row shed at
  // admission throws Overloaded from submit(), a failed row throws out of
  // get(); either fails the whole query, typed. Rows already admitted still
  // run; their completions land in promises nobody waits on.
  std::vector<ResponseFuture> futures;
  futures.reserve(rows.size());
  for (const auto& row : rows) {
    futures.push_back(dispatcher_.submit(row.program_levels, seed, row.stream,
                                         /*deadline_micros=*/0, condition));
  }
  std::vector<std::vector<float>> out;
  out.reserve(rows.size());
  for (auto& future : futures) out.push_back(future.get());
  return out;
}

ThresholdService::ThresholdService(ReplicaDispatcher& dispatcher, ThresholdServiceOptions options)
    : sampler_(dispatcher), optimizer_(sampler_, options.optimizer), options_(std::move(options)) {
  worker_ = std::thread([this] { run(); });
}

ThresholdService::~ThresholdService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void ThresholdService::submit_async(const data::Condition& condition, Completion done) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) throw Overloaded("threshold service draining");
    const std::size_t outstanding = queue_.size() + static_cast<std::size_t>(in_flight_);
    if (options_.max_queue > 0 && outstanding >= options_.max_queue) {
      std::ostringstream os;
      os << "threshold admission queue full (" << outstanding << "/" << options_.max_queue << ")";
      throw Overloaded(os.str());
    }
    queue_.push_back(Pending{condition, std::move(done)});
  }
  cv_.notify_one();
}

void ThresholdService::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
}

void ThresholdService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

std::size_t ThresholdService::outstanding() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size() + static_cast<std::size_t>(in_flight_);
}

void ThresholdService::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    // Admitted queries are always answered: even after stop_, the queue
    // drains through completions before the worker exits.
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    Pending pending = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    lock.unlock();

    thresholds::ThresholdReport report;
    std::exception_ptr error;
    try {
      report = optimizer_.optimize(pending.condition);
    } catch (...) {
      error = std::current_exception();
    }
    pending.done(std::move(report), error);

    lock.lock();
    --in_flight_;
    idle_cv_.notify_all();
  }
}

ThresholdResponse to_response(const thresholds::ThresholdReport& report) {
  ThresholdResponse response;
  for (std::size_t k = 0; k < report.thresholds.size(); ++k)
    response.thresholds[k] = report.thresholds[k];
  for (std::size_t p = 0; p < report.page_ber.size(); ++p)
    response.page_ber[p] = report.page_ber[p];
  response.level_error_rate = report.level_error_rate;
  response.mutual_information_bits = report.mutual_information_bits;
  response.sample_cells = report.sample_cells;
  response.from_cache = report.from_cache;
  return response;
}

}  // namespace flashgen::serve
