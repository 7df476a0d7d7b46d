#include "engine/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <utility>

#include "support/faultpoint.hpp"
#include "support/telemetry.hpp"

namespace lclgrid::engine {

int defaultThreads() {
  // Read once: hardware_concurrency() costs microseconds per call, and
  // PoolHandle asks for every request that sets a lane count.
  static const int lanes = [] {
    if (const char* env = std::getenv("LCLGRID_THREADS")) {
      const int parsed = std::atoi(env);
      if (parsed >= 1) return parsed;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
  }();
  return lanes;
}

/// One posted parallelFor call. `body` belongs to the caller's frame and is
/// read only through a claimed chunk index (< chunks); the caller does not
/// return before every claimed chunk is done, so it outlives every read.
struct ThreadPool::Batch {
  Batch(const std::function<void(std::int64_t, std::int64_t)>& body,
        std::int64_t begin, std::int64_t end, std::int64_t grain)
      : body(&body), begin(begin), end(end), grain(grain),
        chunks((end - begin + grain - 1) / grain), unfinished(chunks) {}

  bool claimable() const { return next.load() < chunks; }

  const std::function<void(std::int64_t, std::int64_t)>* const body;
  const std::int64_t begin;
  const std::int64_t end;
  const std::int64_t grain;
  const std::int64_t chunks;
  std::atomic<std::int64_t> next{0};  // the chunk cursor
  std::atomic<std::int64_t> unfinished;
  std::mutex mutex;
  std::exception_ptr error;  // guarded by mutex: the first body exception
  bool done = false;         // guarded by mutex: the last chunk finished
  std::condition_variable finished;
};

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = defaultThreads();
  threads_.reserve(static_cast<std::size_t>(threads - 1));
  try {
    for (int i = 1; i < threads; ++i) {
      threads_.emplace_back([this] { workerLoop(); });
    }
  } catch (...) {
    stop();  // a worker that did start must not outlive a failed pool
    throw;
  }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  posted_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::runChunks(Batch& batch) {
  for (;;) {
    const std::int64_t chunk = batch.next.fetch_add(1);
    if (chunk >= batch.chunks) return;
    const std::int64_t chunkBegin = batch.begin + chunk * batch.grain;
    const std::int64_t chunkEnd =
        std::min(chunkBegin + batch.grain, batch.end);
    try {
      // Injected scheduling jitter (delay) for chaos runs; a slow lane
      // must never change counts, only latency.
      (void)FAULT_POINT("pool.task");
      // One span per chunk: with tracing on, the per-thread rows of the
      // Chrome trace show how the batch's chunks spread over the lanes.
      telemetry::ScopedSpan span("pool/chunk");
      (*batch.body)(chunkBegin, chunkEnd);
    } catch (...) {
      std::lock_guard<std::mutex> lock(batch.mutex);
      if (!batch.error) batch.error = std::current_exception();
    }
    if (batch.unfinished.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lock(batch.mutex);
      batch.done = true;
      batch.finished.notify_one();
    }
  }
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    posted_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    // No call is in flight once the destructor runs, so every batch still
    // queued then has had all its chunks claimed.
    if (stopping_) return;
    std::shared_ptr<Batch> batch = queue_.front();
    if (!batch->claimable()) {
      queue_.pop_front();
      continue;
    }
    lock.unlock();
    runChunks(*batch);
    lock.lock();
  }
}

std::int64_t ThreadPool::resolveGrain(std::int64_t items, std::int64_t grain,
                                      int lanes) {
  if (grain > 0) return grain;
  // A few chunks per lane for load balance; note the auto grain depends on
  // the lane count, which is fine for associative reductions (the verifier's
  // integer counts) -- callers needing cross-thread-count bit-identity for
  // non-associative types pass an explicit grain.
  const std::int64_t target = static_cast<std::int64_t>(lanes) * 4;
  const std::int64_t g = (items + target - 1) / target;
  return g >= 1 ? g : 1;
}

void ThreadPool::parallelFor(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  const std::int64_t items = end - begin;
  if (items <= 0) return;
  grain = resolveGrain(items, grain, lanes());

  if (threads_.empty() || items <= grain) {
    // Serial fast path: no batch machinery at all.
    for (std::int64_t b = begin; b < end; b += grain) {
      telemetry::ScopedSpan span("pool/chunk");
      body(b, std::min(b + grain, end));
    }
    return;
  }

  static const telemetry::Counter tasksSubmitted =
      telemetry::counter("pool.tasks_submitted");
  const auto batch = std::make_shared<Batch>(body, begin, end, grain);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(batch);
  }
  tasksSubmitted.add(batch->chunks);
  // Wake no more workers than there are chunks beyond the caller's first.
  const std::int64_t helpers = std::min(
      batch->chunks - 1, static_cast<std::int64_t>(threads_.size()));
  for (std::int64_t i = 0; i < helpers; ++i) posted_.notify_one();

  runChunks(*batch);
  std::unique_lock<std::mutex> lock(batch->mutex);
  batch->finished.wait(lock, [&] { return batch->done; });
  // Take the error out of the batch: a worker may drop the batch last, and
  // the exception must be released on this thread, where it is handled.
  if (std::exception_ptr error = std::exchange(batch->error, nullptr)) {
    std::rethrow_exception(error);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(defaultThreads());
  return pool;
}

PoolHandle::PoolHandle(const EngineOptions& options) {
  if (options.pool != nullptr) {
    pool_ = options.pool;
    return;
  }
  // Compare against defaultThreads() rather than global().lanes() so a
  // request for a non-default lane count never instantiates the global
  // pool's worker threads as a side effect of the comparison.
  const int want = options.threads > 0 ? options.threads : defaultThreads();
  if (want == defaultThreads()) {
    pool_ = &ThreadPool::global();
    return;
  }
  owned_ = std::make_unique<ThreadPool>(want);
  pool_ = owned_.get();
}

}  // namespace lclgrid::engine
