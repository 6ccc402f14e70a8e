// What a tuning search reads about its problem instance, and what it hands
// the measured loop.
//
// A search addresses the op's possible space X̂ through per-parameter choice
// indices (tuning/search_space.hpp). SearchProblem bundles the shape,
// device, space and model one search reads; the ranking
// (search/model_topk.hpp) consults SearchProblem::legal (codegen::validate)
// on every point it keeps, so the ranked list it produces, and therefore
// everything search::drive() (search/driver.hpp) measures, lies in the legal
// space X.
#pragma once

#include <cstddef>
#include <vector>

#include "core/operation.hpp"
#include "gpusim/device.hpp"
#include "mlp/regressor.hpp"

namespace isaac::search {

/// Per-parameter value indices into the search space's domains.
using Choice = std::vector<std::size_t>;

/// Everything a search may consult about the problem instance. Non-owning:
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
  /// Required by the ranking; the test-side exhaustive list ignores it.
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

/// One entry of the list search::drive() re-times: a legal tuning and the
/// model's predicted GFLOPS (0 when no model scored it).
template <typename Tuning>
struct RankedTuning {
  Tuning tuning{};
  double predicted_gflops = 0.0;
};

}  // namespace isaac::search
