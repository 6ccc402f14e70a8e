// Failpoints: named fault-injection sites compiled into the runtime
// permanently and armed only for chaos testing (DESIGN.md, "Failure
// domains").
//
// A failpoint is a *site* (a stable dotted name like "measure.throw" baked
// into the code it guards) plus a *trigger* (armed at runtime): one-shot,
// first-N-hits, or per-hit probability. Disarmed sites cost one relaxed
// atomic load and a predictable branch — the same discipline as the
// ISAAC_TM_* telemetry macros — so production binaries keep every site live.
//
// Arming is programmatic (failpoint::arm) or environmental:
//
//   ISAAC_FAILPOINTS="measure.throw=prob:0.1:42,cache.write_fail=count:3"
//
// comma-separated name=spec items, where spec is one of
//
//   off          disarm the site
//   once         fire on the first evaluation only
//   count:N      fire on the first N evaluations
//   prob:P       fire each evaluation with probability P in [0, 1]
//   prob:P:SEED  same, with an explicit hash seed
//
// Determinism: the fire decision for hit index i is a pure function of
// (spec, seed, i) — a counting hash, not a shared RNG stream — so the same
// spec + seed reproduces the same injected-fault *sequence* run to run, and
// concurrent threads draw consistent decisions for whatever hit indices they
// happen to claim. Re-arming resets the hit counter, restarting the sequence.
//
// Each fire increments the telemetry counters `fault.injected` and
// `fault.injected.<name>`, plus a per-site fires() odometer that works with
// telemetry disabled (tests assert on it).
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace isaac::failpoint {

/// Trigger spec for one site. Inactive (Mode::off) by default.
struct Spec {
  enum class Mode { off, once, count, prob };
  Mode mode = Mode::off;
  std::uint64_t count = 0;  // fire on hits [0, count) for Mode::count/once
  double probability = 0.0;  // per-hit fire probability for Mode::prob
  std::uint64_t seed = 0;    // hash seed for Mode::prob (0 = derive from name)

  /// Parse the textual grammar above ("off", "once", "count:N", "prob:P",
  /// "prob:P:SEED"). Throws std::invalid_argument with the offending token.
  static Spec parse(std::string_view text);
};

/// The error ISAAC_FAILPOINT throws when its site fires.
class FailpointError : public std::runtime_error {
 public:
  explicit FailpointError(std::string_view name)
      : std::runtime_error("failpoint fired: " + std::string(name)), name_(name) {}
  const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
};

namespace detail {
extern std::atomic<int> g_armed_count;  // sites currently armed, process-wide
}

/// True when any site is armed — the macros' cheap first-level gate.
inline bool any_armed() noexcept {
  return detail::g_armed_count.load(std::memory_order_relaxed) > 0;
}

/// One registered site. Stable address for the whole process (registry nodes
/// are never erased), so macro call sites may cache the reference.
class Failpoint {
 public:
  explicit Failpoint(std::string name) : name_(std::move(name)) {}

  /// Evaluate the site once: claims the next hit index and returns whether
  /// the armed trigger fires on it. Disarmed sites return false without
  /// consuming an index, so arming mid-run starts a fresh sequence.
  bool should_fire() noexcept;

  const std::string& name() const noexcept { return name_; }
  std::uint64_t hits() const noexcept { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t fires() const noexcept { return fires_.load(std::memory_order_relaxed); }

 private:
  friend void arm(const std::string&, Spec);
  friend void disarm(const std::string&);
  friend void disarm_all();

  void arm_locked(Spec spec);
  void disarm_locked();

  std::string name_;
  // The spec is published field-by-field through these atomics; a should_fire
  // racing an arm/disarm sees either the old or the new trigger, never a torn
  // one that matters (mode gates which other fields are read).
  std::atomic<Spec::Mode> mode_{Spec::Mode::off};
  std::atomic<std::uint64_t> limit_{0};
  std::atomic<double> probability_{0.0};
  std::atomic<std::uint64_t> seed_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> fires_{0};
};

/// Look up (creating on first use) the site named `name`. The returned
/// reference is valid for the process lifetime.
Failpoint& site(std::string_view name);

/// Arm `name` with `spec` (or its textual form). Resets the hit counter so
/// the injected sequence restarts deterministically. The string overload
/// throws std::invalid_argument on a malformed spec.
void arm(const std::string& name, Spec spec);
void arm(const std::string& name, const std::string& spec);

/// Disarm one site / every site. Hit and fire odometers are preserved.
void disarm(const std::string& name);
void disarm_all();

/// Odometers for a site (0 for a never-evaluated name).
std::uint64_t hits(std::string_view name);
std::uint64_t fires(std::string_view name);

/// Apply ISAAC_FAILPOINTS from the environment (idempotent; malformed items
/// are skipped with a warning rather than aborting startup).
void init_from_env();

/// Slow-path helper for the expression macro: registry lookup + evaluation.
/// Only called once any_armed() passed.
bool fired_slow(std::string_view name);

}  // namespace isaac::failpoint

/// Throw-style failpoint: when armed and firing, throws FailpointError. The
/// static reference caches the registry lookup after the first armed pass
/// (mirrors ISAAC_TM_RECORD); disarmed cost is one relaxed load + branch.
#define ISAAC_FAILPOINT(name)                                       \
  do {                                                              \
    if (::isaac::failpoint::any_armed()) {                          \
      static ::isaac::failpoint::Failpoint& isaac_fp =              \
          ::isaac::failpoint::site(name);                           \
      if (isaac_fp.should_fire())                                   \
        throw ::isaac::failpoint::FailpointError(name);             \
    }                                                               \
  } while (0)

/// Expression-style failpoint for sites whose failure mode is not a throw
/// (failed write, hang, invalid result): evaluates to true when the site
/// fires. Registry lookup only happens once any site is armed.
#define ISAAC_FAILPOINT_FIRED(name) \
  (::isaac::failpoint::any_armed() && ::isaac::failpoint::fired_slow(name))
