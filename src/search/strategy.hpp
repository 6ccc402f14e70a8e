// The SearchStrategy<Op> contract: the seam between the measured search
// loop, search::drive() (search/driver.hpp), and what it measures.
//
// A strategy walks the op's possible space X̂ through per-parameter choice
// indices (tuning/search_space.hpp). The driver asks it for proposals —
// propose(n) returns up to n *new, legality-checked* candidates, and an empty
// batch means the strategy is done — and spends one unit of measurement
// budget on each. Proposals are constraint-aware by construction: a strategy
// consults SearchProblem::legal (codegen::validate) before handing a
// candidate over, so the driver never measures an illegal point.
//
// The runtime has one strategy, ModelGuidedTopK (search/model_topk.hpp), the
// paper's rank-then-re-time recipe; core::tune<Op>() constructs it directly.
// The seam stays virtual so tests can drive an exhaustive sweep
// (tests/support/exhaustive_search.hpp) through the same loop as ground
// truth. Strategies are driven single-threaded and hold no randomness, so
// equal (config, shape, device) runs produce identical trajectories.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/operation.hpp"
#include "gpusim/device.hpp"
#include "mlp/regressor.hpp"
#include "search/config.hpp"

namespace isaac::search {

/// Per-parameter value indices into the search space's domains.
using Choice = std::vector<std::size_t>;

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
  /// Required by ModelGuidedTopK; the test-side exhaustive sweep ignores it.
  /// Non-owning: the model must outlive the search — callers dispatching
  /// against a hot-swappable Context pin one model_snapshot() for the whole
  /// search and pass its regressor here, so the ranking is internally
  /// consistent across swaps.
  const mlp::Regressor* model = nullptr;

  Tuning decode(const Choice& c) const { return space->decode(c); }
  bool legal(const Choice& c) const { return legal(space->decode(c)); }
  /// Legality of an already-decoded point, for callers that reuse the one
  /// decode for featurization too.
  bool legal(const Tuning& t) const { return Traits::validate(*shape, t, *device); }
  /// In-place featurization (tuning::kNumFeatures doubles) for the
  /// allocation-free ranking pipeline.
  void featurize_into(const Tuning& t, double* out) const {
    Traits::featurize_into(*shape, t, out);
  }
};

/// One candidate handed from a strategy to the driver, with the model's
/// predicted GFLOPS (0 when no model scored it).
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
      : problem_(problem), config_(config) {}
  virtual ~SearchStrategy() = default;

  SearchStrategy(const SearchStrategy&) = delete;
  SearchStrategy& operator=(const SearchStrategy&) = delete;

  virtual const char* name() const = 0;

  /// Up to `max_batch` new legal proposals; empty means the strategy is done.
  virtual std::vector<Proposal<Tuning>> propose(std::size_t max_batch) = 0;

  const Stats& stats() const noexcept { return stats_; }

  /// |X̂| — the number of distinct points the strategy could ever propose.
  /// The driver clamps the evaluation budget to it.
  std::size_t space_points() const { return problem_.space->size(); }

 protected:
  Proposal<Tuning> make_proposal(Choice c, double predicted = 0.0) const {
    Proposal<Tuning> p;
    p.tuning = problem_.decode(c);
    p.choice = std::move(c);
    p.predicted_gflops = predicted;
    return p;
  }

  SearchProblem<Op> problem_;
  SearchConfig config_;
  Stats stats_;
};

}  // namespace isaac::search
