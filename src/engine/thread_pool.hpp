// The parallel execution runtime: a shared-batch thread pool plus
// deterministic data-parallel loops on top of it. This is the substrate for
// the sharded verifier (verify(VerifyRequest), engine/verify_api.cpp) and
// the concurrent family sweep driver (engine/family_sweep.hpp).
//
// Design:
//  * every parallelFor posts one batch -- the range, the grain and the body
//    -- to a first-in, first-out queue guarded by one mutex. Every lane, the
//    caller included, claims the batch's chunks through one atomic cursor,
//    in chunk order, so a slow chunk never holds up the chunks after it:
//    the other lanes keep claiming around it. Idle workers sleep on one
//    condition variable and serve the oldest batch that still has unclaimed
//    chunks;
//  * the thread that calls parallelFor/parallelReduce participates: it
//    claims chunks of its own batch until the cursor passes the end, then
//    sleeps until the batch's last chunk is done. A pool constructed with
//    `threads == 1` starts no thread at all and runs serially on the
//    caller -- the degenerate case is exactly the serial code path;
//  * a worker can still hold a batch after its caller has returned (it
//    took the batch but lost the race for the last chunk), so batches are
//    shared-owned, and nothing reads the caller's body once the cursor has
//    passed the end;
//  * reductions are deterministic by construction: partial results are
//    combined on the caller in ascending chunk order, never in completion
//    order, so the result is independent of scheduling. With an explicit
//    grain the chunk boundaries depend only on (range, grain) and the
//    result is bit-identical across thread counts even for non-associative
//    (e.g. floating-point) combines; the auto grain (0) scales with the
//    lane count, which still yields identical results for associative
//    combines such as the verifier's integer counts.
//
// Thread-safety contract: ThreadPool itself is safe to share -- concurrent
// callers each post their own batch and each get their own results and
// errors back; the loop bodies handed to parallelFor/parallelReduce run
// concurrently and must not mutate shared state without their own
// synchronisation. Exceptions thrown by a body are caught, the first one is
// rethrown on the calling thread after the batch drains (remaining chunks
// still run). The destructor joins the workers; no call may be in flight.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/engine_options.hpp"

namespace lclgrid::engine {

class ThreadPool {
 public:
  /// Starts threads-1 workers (the caller is the remaining lane);
  /// threads == 0 means defaultThreads().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes, counting the thread that calls parallelFor.
  int lanes() const { return static_cast<int>(threads_.size()) + 1; }

  /// Runs body(chunkBegin, chunkEnd) over [begin, end) split into chunks of
  /// `grain` (0 = auto); returns when every chunk has run. The caller
  /// participates. Rethrows the first body exception after the batch drains.
  void parallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                   const std::function<void(std::int64_t, std::int64_t)>& body);

  /// Deterministic map-reduce: partial results are produced per chunk and
  /// combined on the calling thread in ascending chunk order, so the result
  /// is independent of scheduling; with an explicit grain it is also
  /// bit-identical across thread counts for non-associative combines (see
  /// the header comment).
  template <typename T, typename Map, typename Combine>
  T parallelReduce(std::int64_t begin, std::int64_t end, std::int64_t grain,
                   T identity, Map&& map, Combine&& combine) {
    const std::int64_t items = end - begin;
    if (items <= 0) return identity;
    grain = resolveGrain(items, grain, lanes());
    const std::int64_t chunks = (items + grain - 1) / grain;
    std::vector<T> partial(static_cast<std::size_t>(chunks), identity);
    parallelFor(begin, end, grain,
                [&](std::int64_t chunkBegin, std::int64_t chunkEnd) {
                  partial[static_cast<std::size_t>((chunkBegin - begin) /
                                                   grain)] =
                      map(chunkBegin, chunkEnd);
                });
    T result = std::move(identity);
    for (T& p : partial) result = combine(std::move(result), std::move(p));
    return result;
  }

  /// The process-global pool (defaultThreads() lanes, built on first use).
  static ThreadPool& global();

  /// Chunk size actually used for (items, grain, lanes); exposed so tests
  /// can pin down the deterministic chunking.
  static std::int64_t resolveGrain(std::int64_t items, std::int64_t grain,
                                   int lanes);

 private:
  struct Batch;

  void workerLoop();
  /// Claims and runs chunks of `batch` until its cursor passes the end.
  static void runChunks(Batch& batch);
  /// Stops and joins the workers.
  void stop();

  std::mutex mutex_;
  std::deque<std::shared_ptr<Batch>> queue_;  // guarded by mutex_
  bool stopping_ = false;                     // guarded by mutex_
  std::condition_variable posted_;  // a batch was posted, or stopping_
  std::vector<std::thread> threads_;
};

/// Resolves EngineOptions to a runnable pool: options.pool if set, the
/// global pool when the requested lane count matches it (or threads == 0),
/// otherwise a private pool owned by the returned holder.
class PoolHandle {
 public:
  explicit PoolHandle(const EngineOptions& options);
  ThreadPool& pool() { return *pool_; }

 private:
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_;
};

}  // namespace lclgrid::engine
