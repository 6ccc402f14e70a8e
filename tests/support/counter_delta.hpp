// How far one telemetry counter moved since a baseline. Runtime events are
// counted once, process-wide, in their telemetry counters, so a test reads an
// event count as the counter's delta across the code it drives. Construct it
// after any telemetry::reset_for_testing(), which would zero the counter
// under the baseline.
#pragma once

#include <cstdint>
#include <string_view>

#include "telemetry/metrics.hpp"

namespace isaac::test {

class CounterDelta {
 public:
  explicit CounterDelta(std::string_view name)
      : counter_(telemetry::counter(name)), base_(counter_.value()) {}

  /// Increments since construction.
  std::uint64_t value() const noexcept { return counter_.value() - base_; }

 private:
  const telemetry::Counter& counter_;
  std::uint64_t base_;
};

}  // namespace isaac::test
