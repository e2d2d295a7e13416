#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/telemetry.hpp"

namespace photherm::util {

namespace {

/// The thread budget, already clamped to kMaxThreads; 0 until the default
/// is resolved. Holding the resolved default here keeps getenv and
/// hardware_concurrency off the kernels' path.
std::atomic<std::size_t> g_concurrency{0};

std::size_t default_concurrency() {
  if (const char* env = std::getenv("PHOTHERM_THREADS")) {
    // Only a whole positive integer counts: "2 threads" or "3.9" is as
    // malformed as "not-a-number". An overflowing value reads as LONG_MAX
    // and is clamped like any other oversized count.
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<std::size_t>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<std::size_t>(hw) : 1;
}

/// Set while a thread is executing pool work; nested parallel regions run
/// inline on it instead of waiting on the pool (which could deadlock).
thread_local bool t_in_pool_worker = false;

}  // namespace

std::size_t concurrency() {
  std::size_t budget = g_concurrency.load(std::memory_order_relaxed);
  if (budget == 0) {
    // Store the default only while the budget is still unresolved, so a
    // racing set_concurrency wins (and a failed exchange loads its value).
    const std::size_t resolved = std::min(default_concurrency(), kMaxThreads);
    if (g_concurrency.compare_exchange_strong(budget, resolved, std::memory_order_relaxed)) {
      budget = resolved;
    }
  }
  return budget;
}

void set_concurrency(std::size_t threads) {
  g_concurrency.store(std::min(threads, kMaxThreads), std::memory_order_relaxed);
}

struct ThreadPool::Impl {
  /// One parallel region. It lives on the stack of the `run()` call that
  /// opens it and refers to the caller's callable. Executors pull chunk
  /// indices from `next` until it passes `count`. `seats` and `active` are
  /// guarded by the pool mutex: workers join while a seat is free, and the
  /// caller returns only after `active` is back to 0, so no worker touches
  /// the region once `run()` has returned.
  struct Region {
    Region(const std::function<void(std::size_t)>& chunk_fn, std::size_t chunk_count,
           std::size_t extra_workers)
        : fn(chunk_fn), count(chunk_count), seats(extra_workers) {}

    const std::function<void(std::size_t)>& fn;
    const std::size_t count;
    /// Workers that may still join: executors - 1 at open, 0 once any
    /// worker has found the cursor exhausted.
    std::size_t seats;
    /// Workers inside the region.
    std::size_t active = 0;
    /// Telemetry publish stamp (detail::now_ns at open); -1 while
    /// telemetry is disabled so workers read no clock.
    std::int64_t publish_ns = -1;
    std::atomic<std::size_t> next{0};
    /// The first error a chunk threw; written under the pool mutex.
    std::exception_ptr error;
  };

  std::mutex mutex;
  std::condition_variable open_cv;  ///< a region opened, or the pool stops
  std::condition_variable idle_cv;  ///< a region's last worker left it
  std::vector<std::thread> workers;
  Region* region = nullptr;  ///< the open region, null when idle
  bool stop = false;

  void drain(Region& open) {
    for (;;) {
      const std::size_t i = open.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= open.count) {
        return;
      }
      try {
        open.fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!open.error) {
          open.error = std::current_exception();
        }
      }
    }
  }

  void worker_loop(std::size_t worker_index) {
    // The label is kept across enable/disable cycles, so traces recorded
    // later still attribute spans to "pool-worker-N".
    telemetry::set_thread_label("pool-worker-" + std::to_string(worker_index + 1));
    // A worker only runs chunks, and a region issued from a chunk runs
    // inline.
    t_in_pool_worker = true;
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      open_cv.wait(lock, [&] { return stop || (region != nullptr && region->seats > 0); });
      if (stop) {
        return;
      }
      Region& joined = *region;
      --joined.seats;
      ++joined.active;
      lock.unlock();
      if (joined.publish_ns >= 0 && telemetry::enabled()) {
        // Wake-up latency between the region opening and this worker joining.
        telemetry::timer_add(
            telemetry::Timer::kPoolQueueWait,
            static_cast<std::uint64_t>(telemetry::detail::now_ns() - joined.publish_ns));
      }
      drain(joined);
      lock.lock();
      // The cursor is exhausted: a worker joining now would find no chunk.
      joined.seats = 0;
      if (--joined.active == 0) {
        idle_cv.notify_all();
      }
    }
  }

  void spawn_locked(std::size_t how_many) {
    for (std::size_t i = 0; i < how_many; ++i) {
      workers.emplace_back([this, index = workers.size()] { worker_loop(index); });
    }
  }
};

ThreadPool::ThreadPool(std::size_t thread_count) : impl_(new Impl) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->spawn_locked(thread_count);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->open_cv.notify_all();
  for (std::thread& worker : impl_->workers) {
    worker.join();
  }
  delete impl_;
}

std::size_t ThreadPool::size() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->workers.size();
}

void ThreadPool::ensure_size(std::size_t thread_count) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (thread_count > impl_->workers.size()) {
    impl_->spawn_locked(thread_count - impl_->workers.size());
  }
}

void ThreadPool::run(std::size_t chunk_count, const std::function<void(std::size_t)>& chunk_fn) {
  if (chunk_count == 0) {
    return;
  }
  // More executors than chunks would spawn persistent workers (the pool
  // never shrinks) that can never receive work.
  const std::size_t executors = std::min(concurrency(), chunk_count);
  // Serial paths: a single chunk, a budget of one, or a nested call from a
  // worker (re-entering the pool from a worker could deadlock).
  if (executors <= 1 || t_in_pool_worker) {
    for (std::size_t i = 0; i < chunk_count; ++i) {
      chunk_fn(i);
    }
    return;
  }

  ensure_size(executors - 1);
  Impl::Region region(chunk_fn, chunk_count, executors - 1);
  if (telemetry::enabled()) {
    region.publish_ns = telemetry::detail::now_ns();
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->region = &region;
  }
  impl_->open_cv.notify_all();

  // The caller is an executor too, and counts as a pool worker while it
  // drains chunks: a nested parallel region issued from its chunk must run
  // inline (like it would on any other worker) instead of re-entering the
  // pool and displacing this region from the pool's single slot.
  t_in_pool_worker = true;
  impl_->drain(region);
  t_in_pool_worker = false;

  {
    // Close the region, then wait for the workers inside it to leave:
    // after that the caller alone owns the region and its error.
    std::unique_lock<std::mutex> lock(impl_->mutex);
    if (impl_->region == &region) {
      impl_->region = nullptr;
    }
    impl_->idle_cv.wait(lock, [&] { return region.active == 0; });
  }
  if (region.error) {
    std::rethrow_exception(region.error);
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(concurrency() > 0 ? concurrency() - 1 : 0);
  return pool;
}

std::size_t region_executors() { return t_in_pool_worker ? 1 : concurrency(); }

void parallel_for(std::size_t count, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) {
    return;
  }
  PH_REQUIRE(grain > 0, "parallel_for: grain must be positive");
  const std::size_t chunks = (count + grain - 1) / grain;
  auto run_chunk = [&](std::size_t chunk) {
    const std::size_t begin = chunk * grain;
    const std::size_t end = begin + grain < count ? begin + grain : count;
    body(begin, end);
  };
  if (chunks == 1 || region_executors() <= 1) {
    // Same chunk boundaries as the parallel path so reductions that key off
    // chunk indices stay bit-identical across thread counts.
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      run_chunk(chunk);
    }
    return;
  }
  // By reference: a std::function holding a reference_wrapper stores it
  // inline, so a region that reaches the pool allocates nothing.
  ThreadPool::shared().run(chunks, std::ref(run_chunk));
}

}  // namespace photherm::util
