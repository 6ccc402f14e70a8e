// The SearchStrategy<Op> contract — the pluggable heart of runtime tuning.
//
// A strategy walks the op's possible space X̂ through per-parameter choice
// indices (tuning/search_space.hpp) and is driven by search::drive()
// (search/driver.hpp) in propose/observe rounds:
//
//   1. propose(n)   — up to n *new, legality-checked* candidates. Proposals
//                     are constraint-aware by construction: a strategy
//                     consults SearchProblem::legal (codegen::validate) before
//                     handing a candidate over, so the driver never spends a
//                     unit of measurement budget on an illegal point.
//   2. observe(c,y) — the measured GFLOPS of an earlier proposal, fed back so
//                     adaptive strategies (genetic, annealing) can steer.
//   3. repeat until the budget is exhausted or propose() returns empty
//                     (space exhausted / strategy converged).
//
// Anytime semantics: the driver keeps every measured candidate, so stopping
// after any prefix of the budget yields the best-so-far. Determinism: all
// randomness flows from the Rng seeded by SearchConfig::seed, and strategies
// are driven single-threaded, so equal (config, shape, device) runs produce
// identical trajectories.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/operation.hpp"
#include "gpusim/device.hpp"
#include "mlp/regressor.hpp"
#include "search/config.hpp"

namespace isaac::search {

/// Per-parameter value indices into the search space's domains.
using Choice = std::vector<std::size_t>;

/// Advance `c` one step in the lexicographic (odometer) enumeration of the
/// domains' cartesian product; false when the odometer wraps around, i.e.
/// every point has been visited. Shared by every strategy that enumerates X̂
/// so they agree on visit order (the determinism and tie-break guarantees
/// lean on it).
inline bool advance_choice(Choice& c, const std::vector<tuning::ParameterDomain>& domains) {
  for (std::size_t d = 0; d < domains.size(); ++d) {
    if (++c[d] < domains[d].values.size()) return true;
    c[d] = 0;
  }
  return false;
}

/// Strict "earlier in flat (odometer) order" over choice vectors of equal
/// arity — dimension D-1 is most significant. Comparing index vectors instead
/// of flat integers keeps the order exact even when |X̂| saturates size()
/// (no 64-bit flat index exists to compare).
inline bool choice_flat_less(const Choice& a, const Choice& b) {
  for (std::size_t d = a.size(); d-- > 0;) {
    if (a[d] != b[d]) return a[d] < b[d];
  }
  return false;
}

/// The op's prefix-constraint layer for a problem instance — empty when the
/// traits don't declare the optional prefix_constraints hook (enumeration
/// then degenerates to generate-and-test; exactly as correct, just slower).
template <typename Op>
tuning::ConstraintSet prefix_constraints_for(
    const typename core::OperationTraits<Op>::Shape& shape,
    const gpusim::DeviceDescriptor& dev,
    const typename core::OperationTraits<Op>::SearchSpace& space) {
  using Traits = core::OperationTraits<Op>;
  if constexpr (requires { Traits::prefix_constraints(shape, dev, space); }) {
    return Traits::prefix_constraints(shape, dev, space);
  } else {
    return {};
  }
}

/// Everything a strategy may consult about the problem instance. Non-owning:
/// the caller keeps shape/device/space/model alive for the search's duration.
template <typename Op>
struct SearchProblem {
  using Traits = core::OperationTraits<Op>;
  using Shape = typename Traits::Shape;
  using Tuning = typename Traits::Tuning;
  using Space = typename Traits::SearchSpace;

  const Shape* shape = nullptr;
  const gpusim::DeviceDescriptor* device = nullptr;
  const Space* space = nullptr;
  /// Optional: model-guided strategies require it, measurement-driven ones
  /// (random/genetic/annealing/exhaustive) ignore it. Non-owning: the model
  /// must outlive the search — callers dispatching against a hot-swappable
  /// Context pin one model_snapshot() for the whole search and pass its
  /// regressor here, so the ranking is internally consistent across swaps.
  const mlp::Regressor* model = nullptr;

  Tuning decode(const Choice& c) const { return space->decode(c); }
  bool legal(const Choice& c) const { return legal(space->decode(c)); }
  /// Legality of an already-decoded point, for callers that reuse the one
  /// decode for featurization too.
  bool legal(const Tuning& t) const { return Traits::validate(*shape, t, *device); }
  std::vector<double> featurize(const Tuning& t) const { return Traits::featurize(*shape, t); }

  /// In-place featurization for the allocation-free ranking pipeline. Ops
  /// whose traits lack the featurize_into hook fall back to an adapter over
  /// the allocating featurize (same values, one transient vector).
  void featurize_into(const Tuning& t, double* out) const {
    if constexpr (requires { Traits::featurize_into(*shape, t, out); }) {
      Traits::featurize_into(*shape, t, out);
    } else {
      const std::vector<double> row = Traits::featurize(*shape, t);
      std::copy(row.begin(), row.end(), out);
    }
  }
};

/// One candidate handed from a strategy to the driver. `predicted_gflops` is
/// nonzero only for model-guided strategies.
template <typename Tuning>
struct Proposal {
  Choice choice;
  Tuning tuning{};
  double predicted_gflops = 0.0;
};

template <typename Op>
class SearchStrategy {
 public:
  using Traits = core::OperationTraits<Op>;
  using Tuning = typename Traits::Tuning;

  /// X̂ traffic: `visited` counts legality checks (points of X̂ touched),
  /// `legal` the subset that passed codegen::validate.
  struct Stats {
    std::size_t visited = 0;
    std::size_t legal = 0;
  };

  SearchStrategy(const SearchProblem<Op>& problem, const SearchConfig& config)
      : problem_(problem), config_(config), rng_(config.seed) {}
  virtual ~SearchStrategy() = default;

  SearchStrategy(const SearchStrategy&) = delete;
  SearchStrategy& operator=(const SearchStrategy&) = delete;

  virtual const char* name() const = 0;

  /// Up to `max_batch` new legal proposals; empty means the strategy is done.
  virtual std::vector<Proposal<Tuning>> propose(std::size_t max_batch) = 0;

  /// Measured feedback for a proposal returned earlier. Default: ignore
  /// (non-adaptive strategies).
  virtual void observe(const Choice& choice, double measured_gflops) {
    (void)choice;
    (void)measured_gflops;
  }

  const Stats& stats() const noexcept { return stats_; }

  /// |X̂| — the number of distinct points the strategy could ever propose.
  /// The driver clamps the evaluation budget to it so "unlimited" budgets
  /// terminate even for strategies that never stop proposing (the GA's
  /// fallback re-proposals, the annealer's restarts).
  std::size_t space_points() const { return problem_.space->size(); }

  /// The evaluation budget the driver will actually spend — config_.budget
  /// clamped to |X̂|. The driver threads it in before the first proposal
  /// round so schedule-dependent strategies (the annealer's temperature
  /// decay) pace themselves against the real run length, not a raw SIZE_MAX
  /// "unlimited" request that would freeze their schedule at t = 0.
  void set_effective_budget(std::size_t budget) noexcept { effective_budget_ = budget; }
  std::size_t effective_budget() const noexcept {
    return effective_budget_ != 0 ? effective_budget_ : config_.budget;
  }

 protected:
  /// Counted legality check — every strategy funnels X̂ probes through here
  /// so TuneResult::enumerated/legal stay meaningful across strategies.
  bool check(const Choice& c) {
    ++stats_.visited;
    if (!problem_.legal(c)) return false;
    ++stats_.legal;
    return true;
  }

  Proposal<Tuning> make_proposal(Choice c, double predicted = 0.0) const {
    Proposal<Tuning> p;
    p.tuning = problem_.decode(c);
    p.choice = std::move(c);
    p.predicted_gflops = predicted;
    return p;
  }

  /// Uniform draw of a choice vector from X̂ (not legality-checked).
  Choice random_choice() {
    const auto& domains = problem_.space->domains();
    Choice c(domains.size());
    for (std::size_t d = 0; d < domains.size(); ++d) {
      c[d] = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(domains[d].values.size()) - 1));
    }
    return c;
  }

  /// The op's prefix-constraint layer for this problem, built lazily on the
  /// first repair scan (most runs never need one). Only the guaranteed-repair
  /// paths consult it: the rejection samplers stay validate-checked and
  /// distribution-identical, so RNG trajectories are unchanged — the scans
  /// just stopped costing O(|X̂|).
  const tuning::ConstraintSet& constraints() {
    if (!constraints_built_) {
      constraints_ =
          prefix_constraints_for<Op>(*problem_.shape, *problem_.device, *problem_.space);
      constraints_built_ = true;
    }
    return constraints_;
  }

  /// Guaranteed legal-point finder for sparse legal spaces where rejection
  /// sampling runs dry (legal fractions of 1e-4 and below exist): the first
  /// legal point at-or-after `start` in flat (odometer) order, wrapping
  /// around to the first legal point overall — the same answer the old
  /// point-by-point scan gave, now found through the constraint-propagating
  /// pruned walk so the cost scales with the plausible space, not |X̂|.
  /// Points for which `skip(c)` holds are passed over (random search skips
  /// what it already proposed). Visited stats account covered subtrees in
  /// bulk (a fruitless full wrap still counts all of |X̂|, matching the scan
  /// it replaced). Returns nullopt only when no unskipped legal point exists.
  std::optional<Choice> scan_for_legal(
      Choice start, const std::function<bool(const Choice&)>& skip = nullptr) {
    const auto& domains = problem_.space->domains();
    if (start.size() != domains.size()) start.assign(domains.size(), 0);
    const tuning::ConstraintSet& cs = constraints();
    std::optional<Choice> found;  // first legal at-or-after start
    std::optional<Choice> wrap;   // first legal overall (the wrap-around answer)
    const auto wanted = [&](const Choice& c) { return !(skip && skip(c)) && problem_.legal(c); };
    tuning::WalkStats ws;
    tuning::walk_legal(
        domains, cs.empty() ? nullptr : &cs,
        [&](const Choice& c, std::uint64_t) {
          if (choice_flat_less(c, start)) {
            if (!wrap && wanted(c)) wrap = c;
            return true;  // keep walking: a hit at-or-after start still wins
          }
          if (!wanted(c)) return true;
          found = c;
          return false;  // ascending walk: first hit at-or-after start
        },
        &ws);
    stats_.visited += static_cast<std::size_t>(ws.emitted + ws.pruned);
    if (!found && !wrap) return std::nullopt;
    ++stats_.legal;
    return found ? found : wrap;
  }

  SearchProblem<Op> problem_;
  SearchConfig config_;
  Rng rng_;
  Stats stats_;

 private:
  std::size_t effective_budget_ = 0;  // 0 = not told yet, fall back to config
  tuning::ConstraintSet constraints_;
  bool constraints_built_ = false;
};

}  // namespace isaac::search
