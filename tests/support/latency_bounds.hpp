// Whether wall-clock latency bounds are checked in this build. Sanitizer
// instrumentation slows the timed paths by different amounts (a cold
// select() and a full search, an idle and a contended hot select), so a
// sanitized build still runs every timing-gated case for its code paths
// but does not assert its latency bounds. tests/CMakeLists.txt defines
// ISAAC_SANITIZED_BUILD when CMAKE_CXX_FLAGS carry -fsanitize=.
#pragma once

namespace isaac::test {

#ifdef ISAAC_SANITIZED_BUILD
inline constexpr bool kLatencyBoundsChecked = false;
#else
inline constexpr bool kLatencyBoundsChecked = true;
#endif

}  // namespace isaac::test
