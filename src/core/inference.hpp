// Runtime kernel inference (paper §6), on top of src/search/.
//
// With the input parameters fixed by the user, tune<Op>() optimizes over the
// tuning parameters under an explicit measurement budget, always with the
// paper's recipe in two straight-line steps: rank the legal space with the
// trained regression model (search::rank_legal_space — "guaranteed to find
// the global optimum within the specified search range", "highly
// parallelizable", batched through the MLP), then re-time only the best
// predictions on the device (search::drive) to "smooth out the inherent
// noise of our predictive model".
//
// The whole pipeline is one templated tune<Op>() over OperationTraits<Op>
// (core/operation.hpp), with predict<Op>() as its zero-measurement sibling.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/operation.hpp"
#include "gpusim/simulator.hpp"
#include "mlp/regressor.hpp"
#include "search/config.hpp"

namespace isaac::core {

template <typename Tuning>
struct Candidate {
  Tuning tuning{};
  double predicted_gflops = 0.0;  // the model's score at ranking time
  double measured_gflops = 0.0;
};

template <typename Tuning>
struct TuneResult {
  Candidate<Tuning> best{};
  std::vector<Candidate<Tuning>> top;  // distinct measured candidates, best first
  std::size_t enumerated = 0;          // points of X̂ the ranking visited
  std::size_t legal = 0;               // subset that passed validation
  std::size_t measured = 0;            // device evaluations spent (≤ budget)
  std::size_t budget = 0;              // resolved evaluation budget
  bool stopped_early = false;          // deadline/cancellation cut the drive
                                       // loop; best is the anytime result
};

/// The name tune<Op>()'s search records as cache provenance
/// (`strategy=model_topk`) and reports in its errors.
inline constexpr char kTuneSearchName[] = "model_topk";

/// What tune<Op>() throws when SearchConfig::cancel stopped its search
/// before a single candidate was measured: a cancelled search, not a shape
/// without legal configurations.
struct TuneCancelled : std::runtime_error {
  using std::runtime_error::runtime_error;
};

using GemmTuneResult = TuneResult<codegen::GemmTuning>;
using ConvTuneResult = TuneResult<codegen::ConvTuning>;
using BatchedGemmTuneResult = TuneResult<codegen::GemmTuning>;

/// A zero-measurement model decision (the dispatch fast path's tier 1).
template <typename Tuning>
struct PredictResult {
  Tuning tuning{};                // the model's argmax over the probed legal set
  double predicted_gflops = 0.0;
  std::size_t enumerated = 0;     // X̂ points legality-checked
  std::size_t legal = 0;          // subset that passed validation
  bool dense_fallback = false;    // strided probe found nothing legal; swept X̂
};

using GemmPredictResult = PredictResult<codegen::GemmTuning>;
using ConvPredictResult = PredictResult<codegen::ConvTuning>;
using BatchedGemmPredictResult = PredictResult<codegen::GemmTuning>;

/// Optimize the model over Op's tuning parameters for `shape` with the
/// configured budget (zero-valued SearchConfig fields resolve against
/// OperationTraits<Op>::default_search()). Throws std::runtime_error when no
/// legal configuration exists, TuneCancelled when SearchConfig::cancel cut
/// the search before its first measurement (a flag already set when tune is
/// called stops it before ranking), and std::invalid_argument for
/// an invalid config. Thread-safe: shares only const state and the global
/// thread pool. `model` is borrowed for the whole call — a caller whose
/// model can be hot-swapped (Context) pins one VersionedModel snapshot per
/// tune and passes its regressor, so the returned ranking (TuneResult::top,
/// the search's measured set, which the online lifecycle folds into the
/// observation log) is attributable to exactly one model version.
template <typename Op>
TuneResult<typename OperationTraits<Op>::Tuning> tune(
    const typename OperationTraits<Op>::Shape& shape, const mlp::Regressor& model,
    const gpusim::Simulator& sim, const search::SearchConfig& config = {});

/// The model's argmax over a bounded probe of the legal space — tune<Op>()'s
/// tier-1 sibling, on the same ranking core (search/model_topk.hpp). Spends
/// *zero* device measurements: at most SearchConfig::max_candidates legality
/// checks (deterministic flat-index striding of X̂, seed grid always
/// re-appended) plus one batched model pass, so a cold dispatch answers in
/// ranking time instead of search time. Degenerate shapes whose sparse legal
/// set the stride misses fall back to a dense legality sweep (still
/// measurement-free); throws std::runtime_error only when no legal
/// configuration exists at all. Thread-safe like tune<Op>().
template <typename Op>
PredictResult<typename OperationTraits<Op>::Tuning> predict(
    const typename OperationTraits<Op>::Shape& shape, const mlp::Regressor& model,
    const gpusim::DeviceDescriptor& device, const search::SearchConfig& config = {});

extern template GemmTuneResult tune<GemmOp>(const codegen::GemmShape&, const mlp::Regressor&,
                                            const gpusim::Simulator&,
                                            const search::SearchConfig&);
extern template ConvTuneResult tune<ConvOp>(const codegen::ConvShape&, const mlp::Regressor&,
                                            const gpusim::Simulator&,
                                            const search::SearchConfig&);
extern template BatchedGemmTuneResult tune<BatchedGemmOp>(const codegen::BatchedGemmShape&,
                                                          const mlp::Regressor&,
                                                          const gpusim::Simulator&,
                                                          const search::SearchConfig&);
extern template GemmPredictResult predict<GemmOp>(const codegen::GemmShape&,
                                                  const mlp::Regressor&,
                                                  const gpusim::DeviceDescriptor&,
                                                  const search::SearchConfig&);
extern template ConvPredictResult predict<ConvOp>(const codegen::ConvShape&,
                                                  const mlp::Regressor&,
                                                  const gpusim::DeviceDescriptor&,
                                                  const search::SearchConfig&);
extern template BatchedGemmPredictResult predict<BatchedGemmOp>(
    const codegen::BatchedGemmShape&, const mlp::Regressor&, const gpusim::DeviceDescriptor&,
    const search::SearchConfig&);

}  // namespace isaac::core
