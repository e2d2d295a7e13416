#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "math/csr_matrix.hpp"
#include "math/vector_ops.hpp"
#include "support/fixtures.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace photherm::util {
namespace {

using fixtures::ScopedConcurrency;

TEST(Concurrency, DefaultsToAtLeastOne) {
  ScopedConcurrency budget(0);
  EXPECT_GE(concurrency(), 1u);
}

TEST(Concurrency, SetOverrideWins) {
  ScopedConcurrency budget(3);
  EXPECT_EQ(concurrency(), 3u);
  set_concurrency(0);
  EXPECT_GE(concurrency(), 1u);
}

TEST(Concurrency, EnvVariableOverridesDefault) {
  ScopedConcurrency budget(0);
  ASSERT_EQ(unsetenv("PHOTHERM_THREADS"), 0);
  const std::size_t unset = concurrency();
  // The default is resolved on the first call after set_concurrency(0).
  set_concurrency(0);
  ASSERT_EQ(setenv("PHOTHERM_THREADS", "5", 1), 0);
  EXPECT_EQ(concurrency(), 5u);
  // Only a whole positive integer counts: malformed values, numeric
  // prefixes included, fall back to hardware.
  for (const char* malformed : {"not-a-number", "37 threads", "37x", "3.7"}) {
    set_concurrency(0);
    ASSERT_EQ(setenv("PHOTHERM_THREADS", malformed, 1), 0);
    EXPECT_EQ(concurrency(), unset) << "PHOTHERM_THREADS=" << malformed;
  }
  ASSERT_EQ(unsetenv("PHOTHERM_THREADS"), 0);
  // An explicit set_concurrency beats the environment.
  ASSERT_EQ(setenv("PHOTHERM_THREADS", "7", 1), 0);
  set_concurrency(2);
  EXPECT_EQ(concurrency(), 2u);
  ASSERT_EQ(unsetenv("PHOTHERM_THREADS"), 0);
}

TEST(Concurrency, AbsurdRequestsAreClampedNotSpawned) {
  ScopedConcurrency budget(100'000);
  EXPECT_EQ(concurrency(), kMaxThreads);
  ASSERT_EQ(setenv("PHOTHERM_THREADS", "100000", 1), 0);
  set_concurrency(0);
  EXPECT_EQ(concurrency(), kMaxThreads);
  ASSERT_EQ(unsetenv("PHOTHERM_THREADS"), 0);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ScopedConcurrency budget(threads);
    const std::size_t n = 10'007;  // prime: exercises the ragged last chunk
    std::vector<std::atomic<int>> hits(n);
    parallel_for(n, 64, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        hits[i].fetch_add(1);
      }
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads << " threads";
    }
  }
}

TEST(ParallelFor, ChunkBoundariesIndependentOfThreadCount) {
  const std::size_t n = 1000;
  const std::size_t grain = 96;
  auto boundaries_at = [&](std::size_t threads) {
    ScopedConcurrency budget(threads);
    std::vector<std::pair<std::size_t, std::size_t>> chunks((n + grain - 1) / grain);
    parallel_for(n, grain,
                 [&](std::size_t begin, std::size_t end) { chunks[begin / grain] = {begin, end}; });
    return chunks;
  };
  const auto serial = boundaries_at(1);
  EXPECT_EQ(serial, boundaries_at(2));
  EXPECT_EQ(serial, boundaries_at(16));
  EXPECT_EQ(serial.back().second, n);
}

TEST(ParallelFor, ZeroCountIsANoop) {
  ScopedConcurrency budget(4);
  bool called = false;
  parallel_for(0, 16, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesExceptions) {
  ScopedConcurrency budget(4);
  const auto throw_past_500 = [](std::size_t begin, std::size_t) {
    if (begin >= 500) {
      throw std::runtime_error("boom");
    }
  };
  EXPECT_THROW(parallel_for(1000, 10, throw_past_500), std::runtime_error);
  // The pool must stay usable after a failed region.
  std::atomic<int> count{0};
  parallel_for(100, 10, [&](std::size_t b, std::size_t e) { count += static_cast<int>(e - b); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelFor, NestedCallsRunInline) {
  ScopedConcurrency budget(4);
  std::atomic<int> total{0};
  parallel_for(8, 1, [&](std::size_t, std::size_t) {
    // Nested region: must complete inline without deadlocking the pool.
    parallel_for(16, 4, [&](std::size_t b, std::size_t e) { total += static_cast<int>(e - b); });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ParallelFor, NeverUsesMoreExecutorsThanTheBudget) {
  // More workers than any budget below, so only the budget can cap the
  // executors a region gets. Each chunk sleeps so that every idle worker
  // has time to join the region if it is allowed to.
  ThreadPool::shared().ensure_size(7);
  for (const std::size_t threads : {1u, 2u, 3u}) {
    ScopedConcurrency budget(threads);
    std::mutex ids_mutex;
    std::set<std::thread::id> ids;
    parallel_for(64, 1, [&](std::size_t, std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      std::lock_guard<std::mutex> lock(ids_mutex);
      ids.insert(std::this_thread::get_id());
    });
    EXPECT_LE(ids.size(), threads) << "budget of " << threads << " threads";
  }
}

TEST(ParallelFor, ChunkMayWaitOnEarlierChunk) {
  // Chunk c spins until chunk c - 1 has finished: the progress contract
  // says that always completes. One shared deadline bounds every wait, so
  // a broken contract fails the test instead of hanging it.
  constexpr std::size_t kChunks = 16;
  const auto chain_completes = [] {
    std::array<std::atomic<bool>, kChunks> finished{};
    std::atomic<bool> timed_out{false};
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    parallel_for(kChunks, 1, [&](std::size_t c, std::size_t) {
      while (c > 0 && !finished[c - 1].load(std::memory_order_acquire)) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out.store(true);
          break;
        }
        std::this_thread::yield();
      }
      finished[c].store(true, std::memory_order_release);
    });
    return !timed_out.load();
  };
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ScopedConcurrency budget(threads);
    EXPECT_TRUE(chain_completes()) << threads << " threads";
  }
  // Nested inside a worker the chunks run inline, still in index order.
  ScopedConcurrency budget(4);
  std::array<std::atomic<bool>, 4> nested{};
  parallel_for(nested.size(), 1,
               [&](std::size_t b, std::size_t) { nested[b] = chain_completes(); });
  for (const std::atomic<bool>& completed : nested) {
    EXPECT_TRUE(completed.load()) << "nested inside a pool worker";
  }
}

TEST(ThreadPool, RunExecutesAllChunksAndRethrows) {
  ScopedConcurrency budget(4);
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::vector<std::atomic<int>> hits(64);
  pool.run(64, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
  EXPECT_THROW(pool.run(8, [](std::size_t i) {
    if (i == 3) {
      throw Error("chunk failed");
    }
  }),
               Error);
}

TEST(ThreadPool, ChunkErrorsStayOwnedByTheCaller) {
  // Every chunk throws, so the error each region rethrows may come from a
  // worker. Once run() returns no worker may still own that error: one
  // that did could destroy the exception while the caller's catch reads
  // it, which ThreadSanitizer reports as a race on the message.
  ScopedConcurrency budget(4);
  for (int region = 0; region < 10'000; ++region) {
    try {
      parallel_for(8, 1, [](std::size_t begin, std::size_t) {
        throw Error("chunk " + std::to_string(begin) + " failed");
      });
      FAIL() << "region " << region << " did not rethrow";
    } catch (const Error& e) {
      ASSERT_NE(std::string(e.what()).find(" failed"), std::string::npos) << e.what();
    }
  }
}

TEST(ThreadPool, ConcurrentCallersEachCompleteTheirOwnRegions) {
  // Two application threads open regions at once, so each keeps displacing
  // the other's region from the pool's single slot. Every region must still
  // run each of its chunks exactly once and return.
  ScopedConcurrency budget(4);
  constexpr int kRegions = 1'000;
  constexpr std::size_t kChunks = 16;
  const auto issue_regions = [](std::size_t& exactly_once) {
    for (int region = 0; region < kRegions; ++region) {
      std::array<std::atomic<int>, kChunks> hits{};
      parallel_for(kChunks, 1, [&](std::size_t b, std::size_t) { hits[b].fetch_add(1); });
      for (const std::atomic<int>& h : hits) {
        exactly_once += h.load() == 1 ? 1 : 0;
      }
    }
  };
  std::size_t other_count = 0;
  std::size_t own_count = 0;
  std::thread other(issue_regions, std::ref(other_count));
  issue_regions(own_count);
  other.join();
  EXPECT_EQ(other_count, kRegions * kChunks);
  EXPECT_EQ(own_count, kRegions * kChunks);
}

TEST(ThreadPool, DoesNotSpawnMoreWorkersThanChunks) {
  ScopedConcurrency budget(8);
  ThreadPool pool(0);
  std::atomic<int> count{0};
  pool.run(2, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 2);
  // 2 chunks need at most 1 extra executor beyond the caller; the other 6
  // threads of the budget must not be spawned (the pool never shrinks).
  EXPECT_LE(pool.size(), 1u);
}

TEST(ThreadPool, EnsureSizeGrowsButNeverShrinks) {
  ThreadPool pool(1);
  pool.ensure_size(4);
  EXPECT_EQ(pool.size(), 4u);
  pool.ensure_size(2);
  EXPECT_EQ(pool.size(), 4u);
}

/// The determinism contract of the reductions: bit-identical results at
/// any thread count, including the serial path.
TEST(DeterministicKernels, DotIsBitIdenticalAcrossThreadCounts) {
  const std::size_t n = 3 * kSerialCutoff + 1234;  // well into the parallel regime
  math::Vector a(n), b(n);
  Rng rng(123);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.uniform(-1.0, 1.0);
    b[i] = rng.uniform(-1.0, 1.0);
  }
  const auto dot_at = [&](std::size_t threads) {
    ScopedConcurrency budget(threads);
    return math::dot(a, b);
  };
  const double d1 = dot_at(1);
  EXPECT_EQ(d1, dot_at(2));
  EXPECT_EQ(d1, dot_at(8));
  const auto norm2_at = [&](std::size_t threads) {
    ScopedConcurrency budget(threads);
    return math::norm2(a);
  };
  EXPECT_EQ(norm2_at(1), norm2_at(4));
}

TEST(DeterministicKernels, AxpyAndXpbyAreBitIdenticalAcrossThreadCounts) {
  const std::size_t n = 2 * kSerialCutoff;
  math::Vector x(n), y0(n);
  Rng rng(321);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(-1.0, 1.0);
    y0[i] = rng.uniform(-1.0, 1.0);
  }
  const auto axpy_then_xpby_at = [&](std::size_t threads) {
    ScopedConcurrency budget(threads);
    math::Vector y = y0;
    math::axpy(0.37, x, y);
    const math::Vector after_axpy = y;
    math::xpby(x, -0.61, y);
    return std::make_pair(after_axpy, y);
  };
  const auto serial = axpy_then_xpby_at(1);
  const auto threaded = axpy_then_xpby_at(4);
  EXPECT_EQ(serial.first, threaded.first);
  EXPECT_EQ(serial.second, threaded.second);
}

TEST(DeterministicKernels, SpmvIsBitIdenticalAcrossThreadCounts) {
  const std::size_t n = kSerialCutoff + 777;
  math::CsrBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, 4.0);
    if (i > 0) {
      builder.add(i, i - 1, -1.0);
    }
    if (i + 1 < n) {
      builder.add(i, i + 1, -1.0);
    }
  }
  const math::CsrMatrix a = builder.build();
  math::Vector x(n);
  Rng rng(99);
  for (double& v : x) {
    v = rng.uniform(-1.0, 1.0);
  }
  const auto multiply_at = [&](std::size_t threads) {
    ScopedConcurrency budget(threads);
    math::Vector y;
    a.multiply(x, y);
    return y;
  };
  const math::Vector y1 = multiply_at(1);
  EXPECT_EQ(y1, multiply_at(2));
  EXPECT_EQ(y1, multiply_at(8));
}

}  // namespace
}  // namespace photherm::util
