// The knob struct shared by every threaded entry point in the library.
// Deliberately free of <thread>-family includes: lcl/verify_api.hpp
// includes this (not the pool itself) to declare the verification entry
// points, so headers under src/lcl stay lean and the engine -> lcl library
// dependency has no include cycle back. The definitions live in
// lclgrid_engine (src/engine/verify_api.cpp); link that library (or the
// umbrella `lclgrid` target) to call them.
#pragma once

#include <cstdint>

namespace lclgrid::engine {

class ThreadPool;

/// Worker lanes used when EngineOptions::threads == 0: the LCLGRID_THREADS
/// environment variable if set to a positive integer, otherwise
/// std::thread::hardware_concurrency() (at least 1). Computed once per
/// process, on the first call: a later change to LCLGRID_THREADS has no
/// effect.
int defaultThreads();

struct EngineOptions {
  /// Total lanes (including the calling thread); 0 means defaultThreads(),
  /// 1 means run serially on the caller. A non-default count with a null
  /// `pool` spins up (and joins) a private pool *per call* -- fine for a
  /// one-off, but hot loops wanting a non-default count should construct a
  /// ThreadPool once and pass it via `pool` (as the benches do).
  int threads = 0;
  /// Work items per chunk: grid rows for single-labelling verification (on
  /// every code path -- the node-indexed fallback scales the row grain
  /// internally), labellings for batch requests. FamilySweep
  /// always runs one problem per chunk regardless (a slow classification
  /// must not serialise chunk-mates).
  /// 0 picks a size that yields a few chunks per lane -- that auto size
  /// depends on the lane count, which is harmless for the verifier's
  /// associative integer counts (identical for every chunking). Pass an
  /// explicit grain to fix the chunk boundaries themselves, which makes
  /// even non-associative reductions bit-identical across thread counts.
  std::int64_t grain = 0;
  /// Optional existing pool to run on (non-owning). When null, `threads`
  /// selects the process-global pool or a temporary one.
  ThreadPool* pool = nullptr;
};

}  // namespace lclgrid::engine
