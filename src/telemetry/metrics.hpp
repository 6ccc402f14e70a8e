// Process-wide metrics registry: lock-free counters, gauges and fixed-bucket
// latency histograms, registered by name and aggregated on demand.
//
// Overhead contract (see DESIGN.md, "Runtime telemetry"):
//
//  * Counters always count: each event is one relaxed fetch_add on a
//    cache-line-padded per-thread stripe (a slot other threads rarely touch),
//    whether or not telemetry is enabled, so every runtime event has exactly
//    one count and it is always live.
//  * Histograms and gauges record only while telemetry is enabled. Disabled
//    (the default), their record path is one relaxed atomic load and a
//    predictable branch — no clock reads, no registry lookups, no atomic
//    RMW, and ISAAC_TM_RECORD skips its one-time registry lookup. Enabled, a
//    histogram sample is one relaxed fetch_add on a fixed bucket plus min/max
//    CAS loops. Nothing on any record path allocates, locks, or formats text.
//
// Registration is by name ("dispatch.select_us"): the first call creates the
// instrument under a mutex, later calls return the same address, and
// addresses stay stable for the process lifetime — call sites cache a
// reference in a function-local static. reset_for_testing() zeroes values in
// place and never invalidates those references.
//
// Histograms are fixed-bucket log-linear (HdrHistogram-style): integer values
// 0..15 are exact, larger values land in one of 8 sub-buckets per power of
// two, so any recorded value is reconstructed with ≤ 1/16 relative error.
// Percentile extraction (p50/p99/p999) is exact rank selection over the
// recorded distribution with that bounded value error.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace isaac::telemetry {

/// Global on/off for histograms, gauges and the clock reads behind them
/// (counters always count). Off (default) makes each of those record calls a
/// relaxed load + branch. Enabled automatically when ISAAC_TELEMETRY is set
/// (see telemetry.hpp) or explicitly by benches/tests.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

namespace detail {
extern std::atomic<bool> g_enabled;
/// Small dense per-thread index (0, 1, 2, …) for counter striping.
std::size_t thread_index() noexcept;
}  // namespace detail

inline bool enabled() noexcept { return detail::g_enabled.load(std::memory_order_relaxed); }
inline void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Monotonically increasing count, striped across cache-line-padded slots so
/// concurrent increments from different threads do not share a cache line.
/// Counts whether or not telemetry is enabled. value() sums the stripes
/// (racing increments may or may not be included — the usual relaxed-snapshot
/// semantics; nothing is ever lost).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    stripes_[detail::thread_index() & (kStripes - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : stripes_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() noexcept {
    for (auto& s : stripes_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kStripes = 16;  // power of two (mask above)
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Stripe, kStripes> stripes_{};
};

/// Last-writer-wins instantaneous value (pool sizes, pending-work depth).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    if (!enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket log-linear histogram over non-negative values (latencies in
/// microseconds by convention: name them *_us). Supports exact-rank
/// percentile extraction with ≤ 1/16 relative value error per sample.
class Histogram {
 public:
  static constexpr std::size_t kSubBits = 3;  // 8 sub-buckets per octave
  static constexpr std::size_t kBuckets = ((64 - kSubBits) << kSubBits) + (1u << (kSubBits + 1));

  void record(double value) noexcept {
    if (!enabled()) return;
    const std::uint64_t u = value <= 0.0 ? 0 : static_cast<std::uint64_t>(value + 0.5);
    buckets_[bucket_index(u)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(u, std::memory_order_relaxed);
    update_min(u);
    update_max(u);
  }

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t min() const noexcept;  // 0 when empty
  std::uint64_t max() const noexcept;  // 0 when empty

  /// q in [0, 1]: the value at order-statistic position q·(n−1), linearly
  /// interpolated between bucket representatives — the histogram analogue of
  /// stats::percentile on the raw samples.
  double percentile(double q) const noexcept;

  void reset() noexcept;

  /// Bucket index for an integer value: 0..2^(kSubBits+1)−1 map exactly,
  /// larger values keep the top kSubBits+1 significant bits.
  static std::size_t bucket_index(std::uint64_t u) noexcept {
    if (u < (std::uint64_t{1} << (kSubBits + 1))) return static_cast<std::size_t>(u);
    std::size_t top = 63;
    while (!(u >> top)) --top;  // index of highest set bit
    const std::size_t shift = top - kSubBits;
    return ((shift + 1) << kSubBits) +
           static_cast<std::size_t>((u >> shift) & ((1u << kSubBits) - 1));
  }

  /// Midpoint of the bucket's value range — what percentile() interpolates.
  static double bucket_representative(std::size_t idx) noexcept {
    if (idx < (std::size_t{1} << (kSubBits + 1))) return static_cast<double>(idx);
    const std::size_t shift = (idx >> kSubBits) - 1;
    const std::uint64_t base =
        (std::uint64_t{(1u << kSubBits)} + (idx & ((1u << kSubBits) - 1))) << shift;
    const std::uint64_t width = std::uint64_t{1} << shift;
    return static_cast<double>(base) + static_cast<double>(width - 1) / 2.0;
  }

  /// Lower bound of the bucket's value range — exposed for exposition.
  static std::uint64_t bucket_lower_bound(std::size_t idx) noexcept {
    if (idx < (std::size_t{1} << (kSubBits + 1))) return idx;
    const std::size_t shift = (idx >> kSubBits) - 1;
    return (std::uint64_t{(1u << kSubBits)} + (idx & ((1u << kSubBits) - 1))) << shift;
  }

  std::uint64_t bucket_count(std::size_t idx) const noexcept {
    return buckets_[idx].load(std::memory_order_relaxed);
  }

 private:
  void update_min(std::uint64_t u) noexcept {
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (u < cur && !min_.compare_exchange_weak(cur, u, std::memory_order_relaxed)) {
    }
  }
  void update_max(std::uint64_t u) noexcept {
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (u > cur && !max_.compare_exchange_weak(cur, u, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// Registry lookup: creates on first use, returns a stable reference.
/// Lock-taking — call once and cache (or use the ISAAC_TM_* macros).
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

/// Zero every registered instrument in place (addresses stay valid) and clear
/// the trace ring. For tests and bench isolation only.
void reset_for_testing();

}  // namespace isaac::telemetry

// Hot-path macros: the registry lookup happens once per call site, on its
// first pass (for ISAAC_TM_RECORD, its first enabled pass). A count is then
// one striped relaxed add; a disabled record is one relaxed load + branch.
#define ISAAC_TM_COUNT(name) ISAAC_TM_COUNT_N(name, 1)

#define ISAAC_TM_COUNT_N(name, n)                                           \
  do {                                                                      \
    static ::isaac::telemetry::Counter& isaac_tm_c =                        \
        ::isaac::telemetry::counter(name);                                  \
    isaac_tm_c.add(n);                                                      \
  } while (0)

#define ISAAC_TM_RECORD(name, value)                                        \
  do {                                                                      \
    if (::isaac::telemetry::enabled()) {                                    \
      static ::isaac::telemetry::Histogram& isaac_tm_h =                    \
          ::isaac::telemetry::histogram(name);                              \
      isaac_tm_h.record(value);                                             \
    }                                                                       \
  } while (0)
