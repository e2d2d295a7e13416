/// \file thread_pool.hpp
/// \brief Shared thread pool and deterministic parallel-for.
///
/// The sweep engines (design-space grids, calibration plans) and the math
/// kernels (SpMV, vector ops) dispatch onto one process-wide pool. Two
/// properties are guaranteed:
///
///  1. **Determinism.** `parallel_for` always partitions the index range
///     into the same chunks for a given (range, grain) pair, independent of
///     how many threads execute them. Element-wise kernels write disjoint
///     ranges, and reductions accumulate per-chunk partials that are summed
///     in chunk order, so every result is bit-identical at 1, 2 or N
///     threads (and identical to the serial code path).
///  2. **No nested oversubscription.** A `parallel_for` issued from inside
///     a pool worker (e.g. an SpMV inside a parallel sweep task) runs
///     inline on the calling worker instead of re-entering the pool.
///  3. **One budget.** No region takes a thread count of its own: every
///     region runs on at most `concurrency()` executors, the caller
///     included, so `set_concurrency(n)` bounds all of them.
///
/// The pool is work-stealing-free by design: chunks are handed out from a
/// single atomic cursor, which is cheap at the grain sizes used here and
/// keeps the scheduler trivially auditable.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace photherm::util {

/// Hard ceiling on pool workers. Requests beyond it (a typo'd
/// `PHOTHERM_THREADS=100000`, a huge `set_concurrency` argument) are
/// clamped instead of spawning OS threads until creation fails.
inline constexpr std::size_t kMaxThreads = 256;

/// The process-wide thread budget every parallel region sizes itself
/// from. Resolution order: the value set by `set_concurrency` (if
/// non-zero), else the `PHOTHERM_THREADS` environment variable (if it is a
/// whole positive integer; anything else is ignored), else
/// `std::thread::hardware_concurrency`. Always at least 1, at most
/// `kMaxThreads`. The default is resolved on first use and again after
/// `set_concurrency(0)`, and kept, so a call costs one atomic load.
std::size_t concurrency();

/// Set the thread budget for this process (0 restores the
/// environment/hardware default). Thread counts above the hardware level
/// are honoured up to `kMaxThreads` (useful for oversubscription tests).
void set_concurrency(std::size_t threads);

/// Fixed-size pool of persistent workers. Most callers should use the free
/// function `parallel_for` on the shared pool instead of instantiating one.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t thread_count);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads owned by the pool (the caller of `run` participates as
  /// one extra executor, so effective parallelism is `size() + 1`).
  std::size_t size() const;

  /// Execute `chunk_fn(0) .. chunk_fn(chunk_count - 1)`, each exactly once,
  /// across at most `min(concurrency(), chunk_count)` executors (including
  /// the caller), growing the pool to fit. Blocks until every chunk
  /// finished. The first exception thrown by a chunk is rethrown on the
  /// caller after all chunks complete or drain. Calls from inside a pool
  /// worker run inline (serially) on that worker.
  ///
  /// Progress contract: executors claim chunks from one cursor in index
  /// order, a claimed chunk runs to completion on its executor, and inline
  /// execution (one thread, one chunk, or nested) also runs the chunks in
  /// index order. So a chunk may block until a lower-indexed chunk of the
  /// same region has made progress — that chunk is already claimed and
  /// running, or has finished — and the region still always completes. A
  /// chunk must never wait on a higher-indexed one, which may not be
  /// claimed until the waiter returns.
  ///
  /// The region lives on this call's stack, and every worker has left it
  /// before `run` returns, so the rethrown error is the caller's alone.
  /// The pool holds a single region slot: results stay correct if two
  /// application threads issue top-level regions concurrently (each caller
  /// always drains its own region's cursor), but the later region takes the
  /// workers and the earlier one degrades towards serial. Issue concurrent
  /// regions from one thread at a time — parallelism belongs inside a
  /// region, not across regions.
  void run(std::size_t chunk_count, const std::function<void(std::size_t)>& chunk_fn);

  /// The process-wide pool used by `parallel_for`. Created on first use
  /// with `concurrency() - 1` workers and grown on demand, never shrunk.
  static ThreadPool& shared();

  /// Grow the pool to at least `thread_count` workers (no-op if smaller).
  void ensure_size(std::size_t thread_count);

 private:
  struct Impl;
  Impl* impl_;
};

/// Deterministic chunked parallel loop over `[0, count)` on the shared
/// pool. `body(begin, end)` is invoked once per chunk of at most `grain`
/// consecutive indices; chunk boundaries depend only on `count` and
/// `grain`, never on the thread budget, so per-chunk reductions are
/// reproducible across thread counts. Runs serially without touching the
/// pool (same chunk boundaries) for a single chunk, inside a pool worker,
/// or when `concurrency() <= 1`. Chunks follow ThreadPool::run's progress
/// contract: chunk c may wait on chunks below c, never above.
void parallel_for(std::size_t count, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Executors a parallel region issued from the calling thread would get:
/// 1 inside a pool worker, where regions run inline, else `concurrency()`.
/// For kernels whose work split, not their result, follows the executor
/// count.
std::size_t region_executors();

/// Deterministic chunked reduction over `[0, count)`: `chunk_fn(begin, end)`
/// produces one partial per chunk (chunk boundaries as in `parallel_for`),
/// and the partials are folded with `combine` in chunk order starting from
/// `init`. Because neither the chunking nor the combine order depends on the
/// thread count, the result is bit-identical at 1, 2 or N threads. This is
/// the one place the chunk-index bookkeeping lives; the reductions in the
/// math kernels and calibration plans all go through it.
template <typename T, typename ChunkFn, typename CombineFn>
T parallel_reduce(std::size_t count, std::size_t grain, T init, const ChunkFn& chunk_fn,
                  const CombineFn& combine) {
  if (count == 0) {
    return init;
  }
  std::vector<T> partial((count + grain - 1) / grain);
  parallel_for(count, grain, [&](std::size_t begin, std::size_t end) {
    partial[begin / grain] = chunk_fn(begin, end);
  });
  T acc = init;
  for (const T& p : partial) {
    acc = combine(acc, p);
  }
  return acc;
}

/// Below this many elements the math kernels (SpMV, dot, axpy) stay on the
/// straight serial code path: small meshes must not pay scheduling
/// overhead. Chunked reductions switch on at the same size so the summation
/// order is a function of problem size only.
inline constexpr std::size_t kSerialCutoff = 16384;

/// Elements per chunk for the math kernels once they go parallel.
inline constexpr std::size_t kKernelGrain = 8192;

/// The math kernels' one threading decision: `body(0, count)` inline below
/// kSerialCutoff elements, else `parallel_for(count, kKernelGrain, body)`.
template <typename Body>
inline void kernel_for(std::size_t count, const Body& body) {
  if (count < kSerialCutoff) {
    body(0, count);
    return;
  }
  parallel_for(count, kKernelGrain, body);
}

/// kernel_for's reduction: below kSerialCutoff the one partial
/// `chunk_fn(0, count)` is the result as it stands, never folded into
/// `init` (0.0 + -0.0 would turn a -0.0 sum into +0.0), else
/// `parallel_reduce(count, kKernelGrain, init, chunk_fn, combine)`.
template <typename T, typename ChunkFn, typename CombineFn>
inline T kernel_reduce(std::size_t count, T init, const ChunkFn& chunk_fn,
                       const CombineFn& combine) {
  if (count < kSerialCutoff) {
    return chunk_fn(0, count);
  }
  return parallel_reduce(count, kKernelGrain, init, chunk_fn, combine);
}

}  // namespace photherm::util
