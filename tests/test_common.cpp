// Unit tests for src/common: strings, stats, rng, thread pool, table.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "telemetry/metrics.hpp"

namespace isaac {
namespace {

// ---------------------------------------------------------------- strings --
TEST(Strings, ToLowerUpper) {
  EXPECT_EQ(strings::to_lower("GeMM f32"), "gemm f32");
  EXPECT_EQ(strings::to_upper("conv"), "CONV");
}

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = strings::split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitSingleToken) {
  const auto parts = strings::split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim) {
  EXPECT_EQ(strings::trim("  x y \t\n"), "x y");
  EXPECT_EQ(strings::trim("   "), "");
  EXPECT_EQ(strings::trim(""), "");
}

TEST(Strings, Join) {
  EXPECT_EQ(strings::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(strings::join({}, ","), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(strings::starts_with("bench_fig6", "bench_"));
  EXPECT_FALSE(strings::starts_with("x", "bench_"));
  EXPECT_TRUE(strings::ends_with("kernel.ptx", ".ptx"));
  EXPECT_FALSE(strings::ends_with("ptx", "kernel.ptx"));
}

TEST(Strings, Format) {
  EXPECT_EQ(strings::format("%d x %d", 64, 32), "64 x 32");
  EXPECT_EQ(strings::format("%.2f", 3.14159), "3.14");
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(strings::with_commas(0), "0");
  EXPECT_EQ(strings::with_commas(999), "999");
  EXPECT_EQ(strings::with_commas(1000), "1,000");
  EXPECT_EQ(strings::with_commas(1234567), "1,234,567");
  EXPECT_EQ(strings::with_commas(-1234567), "-1,234,567");
}

// ------------------------------------------------------------------ stats --
TEST(Stats, MeanVarStd) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 2.5);
  EXPECT_NEAR(stats::variance(xs), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats::stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, MedianAndPercentile) {
  EXPECT_DOUBLE_EQ(stats::median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(stats::median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(stats::percentile({1, 2, 3, 4, 5}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::percentile({1, 2, 3, 4, 5}, 1.0), 5.0);
}

TEST(Stats, Geomean) {
  EXPECT_NEAR(stats::geomean({2, 8}), 4.0, 1e-12);
  EXPECT_THROW(stats::geomean({1, 0}), std::invalid_argument);
}

TEST(Stats, Mse) {
  EXPECT_DOUBLE_EQ(stats::mse({1, 2}, {1, 4}), 2.0);
  EXPECT_THROW(stats::mse({1}, {1, 2}), std::invalid_argument);
}

TEST(Stats, PearsonPerfectCorrelation) {
  EXPECT_NEAR(stats::pearson({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(stats::pearson({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
}

TEST(Stats, EmptyInputThrows) {
  EXPECT_THROW(stats::mean({}), std::invalid_argument);
  EXPECT_THROW(stats::percentile({}, 0.5), std::invalid_argument);
}

// -------------------------------------------------------------------- rng --
TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng base(7);
  Rng s0 = base.fork(0);
  Rng s1 = base.fork(1);
  EXPECT_NE(s0.next_u64(), s1.next_u64());
}

TEST(Rng, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(5);
  std::vector<double> w{0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.categorical(w), 1u);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.categorical({-1.0, 2.0}), std::invalid_argument);
}

TEST(Rng, CategoricalFrequencies) {
  Rng rng(11);
  std::vector<double> w{1.0, 3.0};
  int count1 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) count1 += rng.categorical(w) == 1 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.02);
}

TEST(Rng, LognormalFactorPositive) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_GT(rng.lognormal_factor(0.1), 0.0);
}

// ------------------------------------------------------------ thread pool --
TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_each(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_each(100,
                                      [&](std::size_t i) {
                                        if (i == 57) throw std::runtime_error("boom");
                                      }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexError) {
  // First-error-wins is deterministic by *index order*, not by which worker
  // happened to fault first: with every chunk throwing, the caller must see
  // chunk 0's exception on every run.
  ThreadPool pool(4);
  for (int trial = 0; trial < 16; ++trial) {
    try {
      pool.parallel_for(1024, [](std::size_t begin, std::size_t) -> void {
        throw std::runtime_error("chunk@" + std::to_string(begin));
      });
      FAIL() << "parallel_for swallowed the exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk@0");
    }
  }
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<long> sum{0};
  pool.parallel_for_each(100, [&](std::size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for_each(4, [&](std::size_t) {
    ThreadPool::global().parallel_for_each(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, GrainBoundsEveryChunkButTheLast) {
  ThreadPool pool(4);
  for (const std::size_t grain : {std::size_t{1}, std::size_t{64}, std::size_t{300}}) {
    std::mutex mutex;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallel_for(
        1000,
        [&](std::size_t begin, std::size_t end) {
          std::lock_guard<std::mutex> lock(mutex);
          chunks.emplace_back(begin, end);
        },
        grain);
    std::sort(chunks.begin(), chunks.end());
    std::size_t next = 0;
    for (const auto& [begin, end] : chunks) {
      EXPECT_EQ(begin, next) << "grain " << grain;
      if (end != 1000) {
        EXPECT_GE(end - begin, grain) << "grain " << grain;
      }
      next = end;
    }
    EXPECT_EQ(next, 1000u) << "grain " << grain;
  }
}

TEST(ThreadPool, NoChunkBelowGrain) {
  // The last chunk is no exception: a grid just over the grain runs as one
  // chunk, not a full chunk plus a tiny tail.
  ThreadPool pool(4);
  const auto chunks_of = [&](std::size_t n, std::size_t grain) {
    std::mutex mutex;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallel_for(
        n,
        [&](std::size_t begin, std::size_t end) {
          std::lock_guard<std::mutex> lock(mutex);
          chunks.emplace_back(begin, end);
        },
        grain);
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  for (const std::size_t grain : {1, 2, 3, 7, 64, 300, 1000, 1001, 5000}) {
    for (const std::size_t n : {1, 5, 63, 64, 65, 127, 301, 999, 1000, 1023, 2002}) {
      const auto chunks = chunks_of(n, grain);
      std::size_t next = 0;
      for (const auto& [begin, end] : chunks) {
        EXPECT_EQ(begin, next) << "n " << n << " grain " << grain;
        EXPECT_GE(end - begin, std::min(n, grain)) << "n " << n << " grain " << grain;
        next = end;
      }
      EXPECT_EQ(next, n) << "n " << n << " grain " << grain;
      if (n < 2 * grain) {
        EXPECT_EQ(chunks.size(), 1u) << "n " << n << " grain " << grain;
      }
    }
  }
}

TEST(ThreadPool, SingleChunkRunsOnCallingThread) {
  // A grain that leaves one chunk runs it inline: nothing is queued.
  ThreadPool pool(4);
  telemetry::set_enabled(true);
  telemetry::Counter& submitted = telemetry::counter("pool.submitted");
  const std::uint64_t before = submitted.value();
  std::thread::id ran_on;
  std::size_t calls = 0;
  pool.parallel_for(
      100,
      [&](std::size_t begin, std::size_t end) {
        ran_on = std::this_thread::get_id();
        ++calls;
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 100u);
      },
      100);
  EXPECT_EQ(submitted.value(), before);
  telemetry::set_enabled(false);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, GrainKeepsLowestIndexError) {
  ThreadPool pool(4);
  for (const std::size_t grain : {std::size_t{100}, std::size_t{2000}}) {
    for (int trial = 0; trial < 8; ++trial) {
      try {
        pool.parallel_for(
            1024,
            [](std::size_t begin, std::size_t) -> void {
              throw std::runtime_error("chunk@" + std::to_string(begin));
            },
            grain);
        FAIL() << "parallel_for swallowed the exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "chunk@0") << "grain " << grain;
      }
    }
  }
}

// ------------------------------------------------------------------ table --
TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "tflops"});
  t.add_row({"isaac", "3.73"});
  t.add_row({"cublas", "2.56"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("cublas"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, CsvQuoting) {
  Table t({"a", "b"});
  t.add_row({"x,y", "he said \"hi\""});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
  EXPECT_NE(os.str().find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only-one"});
  std::ostringstream os;
  t.print(os);
  EXPECT_EQ(t.num_cols(), 3u);
}

TEST(Table, FmtDouble) {
  EXPECT_EQ(Table::fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt_double(2.0, 0), "2");
}

}  // namespace
}  // namespace isaac
