#include "core/inference.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/failpoint.hpp"
#include "common/logging.hpp"
#include "search/driver.hpp"
#include "search/model_topk.hpp"
#include "telemetry/telemetry.hpp"

namespace isaac::core {

namespace {

/// Zero-valued fields fall back to the op's defaults.
template <typename Op>
search::SearchConfig resolve_config(const search::SearchConfig& config) {
  const search::SearchConfig defaults = OperationTraits<Op>::default_search();
  search::SearchConfig resolved = config;
  if (resolved.budget == 0) resolved.budget = defaults.budget;
  if (resolved.max_candidates == 0) resolved.max_candidates = defaults.max_candidates;
  if (resolved.batch == 0) resolved.batch = defaults.batch;
  if (resolved.keep_top == 0) resolved.keep_top = defaults.keep_top;
  if (resolved.reeval_reps <= 0) resolved.reeval_reps = defaults.reeval_reps;
  // Reject nonsense (NaN deadlines, negative retries) before any of it can
  // reach the drive loop; zero-valued size fields were just resolved away.
  resolved.validate(/*resolved=*/true);
  return resolved;
}

}  // namespace

/// One implementation for every operation: resolve the config, rank the
/// op's legal space with the model, and spend the measurement budget
/// re-timing the best predictions on the device. All op-specific behavior
/// comes from OperationTraits<Op> — adding an operation adds no code here.
template <typename Op>
TuneResult<typename OperationTraits<Op>::Tuning> tune(
    const typename OperationTraits<Op>::Shape& shape, const mlp::Regressor& model,
    const gpusim::Simulator& sim, const search::SearchConfig& config) {
  using Traits = OperationTraits<Op>;
  using Tuning = typename Traits::Tuning;

  telemetry::Span span("tune");
  ISAAC_TM_COUNT("search.tune_runs");
  const std::uint64_t t0 = telemetry::enabled() ? telemetry::now_us() : 0;
  const search::SearchConfig resolved = resolve_config<Op>(config);
  const auto cancelled_error = [&] {
    return TuneCancelled(std::string("tune: ") + Traits::kind() + " search for shape " +
                         shape.to_string() + " cancelled before its first measurement");
  };
  // A search cancelled before it starts (a refinement still queued at
  // ~Context) must not pay for a ranking.
  if (resolved.cancelled()) {
    ISAAC_TM_COUNT("search.cancelled");
    throw cancelled_error();
  }
  const auto& dev = sim.device();
  const typename Traits::SearchSpace space;

  search::SearchProblem<Op> problem;
  problem.shape = &shape;
  problem.device = &dev;
  problem.space = &space;
  problem.model = &model;
  // Only the first `budget` ranks can ever be re-timed.
  const auto ranked =
      search::rank_legal_space(problem, resolved, std::max<std::size_t>(resolved.budget, 1));

  TuneResult<Tuning> result;
  result.budget = resolved.budget;
  result.enumerated = ranked.visited;
  result.legal = ranked.legal;
  const auto measure = [&](const Tuning& t) {
    const auto profile = Traits::analyze(shape, t, dev);
    const auto timed = sim.launch_median(profile, resolved.reeval_reps);
    return timed.valid ? timed.tflops * 1000.0 : 0.0;
  };
  // The ranking lists each legal point at most once, so result.top holds
  // distinct candidates.
  result.measured = search::drive(
      search::ranked_tunings(problem, ranked), resolved, measure,
      [&](const search::RankedTuning<Tuning>& r, double gflops) {
        result.top.push_back({r.tuning, r.predicted_gflops, gflops});
      },
      &result.stopped_early);

  if (result.top.empty() && resolved.cancelled()) throw cancelled_error();
  if (result.top.empty()) {
    // The ranking found nothing measurable (every candidate illegal for
    // this degenerate shape, or the space empty): without this check the
    // caller would receive a value-initialized "best". Fail loudly and say
    // what was tried.
    throw std::runtime_error(std::string("tune: no legal ") + Traits::kind() +
                             " configuration for shape " + shape.to_string() + " (strategy " +
                             kTuneSearchName + ", " + std::to_string(result.legal) +
                             " legal of " + std::to_string(result.enumerated) +
                             " visited points)");
  }

  // Deterministic tie-break, so equal-measuring winners agree across runs:
  // a strict total order over distinct tunings.
  std::sort(result.top.begin(), result.top.end(),
            [](const Candidate<Tuning>& a, const Candidate<Tuning>& b) {
              if (a.measured_gflops != b.measured_gflops) {
                return a.measured_gflops > b.measured_gflops;
              }
              return Traits::encode_tuning(a.tuning) < Traits::encode_tuning(b.tuning);
            });
  if (result.top.size() > resolved.keep_top) result.top.resize(resolved.keep_top);
  result.best = result.top.front();
  if (t0) ISAAC_TM_RECORD("search.tune_us", telemetry::now_us() - t0);

  ISAAC_LOG_INFO() << "tuned " << Traits::kind() << " [" << kTuneSearchName << ", budget "
                   << resolved.budget << "]: " << result.measured << " measured, "
                   << result.legal << " legal of " << result.enumerated
                   << " visited; best measured " << result.best.measured_gflops
                   << " GFLOPS (predicted " << result.best.predicted_gflops << ")";
  return result;
}

/// Tier-1 dispatch: the model's argmax over a bounded, measurement-free probe
/// of the legal space. Reuses tune<Op>()'s ranking core with k = 1; the
/// strided probe bounds the work, the seed-grid re-append guarantees a sane
/// candidate whenever any seed is legal, and the dense sweep is the last
/// resort before declaring the shape untunable.
template <typename Op>
PredictResult<typename OperationTraits<Op>::Tuning> predict(
    const typename OperationTraits<Op>::Shape& shape, const mlp::Regressor& model,
    const gpusim::DeviceDescriptor& device, const search::SearchConfig& config) {
  using Traits = OperationTraits<Op>;

  telemetry::Span span("predict");
  ISAAC_TM_COUNT("dispatch.predict");
  // Chaos site for the tier-1 leader path (a production ranking can fail on
  // NaN weights or a poisoned model file); Context degrades to the
  // seed-grid fallback through its circuit breaker.
  ISAAC_FAILPOINT("predict.throw");
  const std::uint64_t t0 = telemetry::enabled() ? telemetry::now_us() : 0;
  search::SearchConfig resolved = resolve_config<Op>(config);
  // Ops that rank densely resolve max_candidates to 0, which would make the
  // probe sweep all of X̂ — the full search's fixed cost. Tier-1 latency
  // requires bounded work, so cap the probe regardless.
  constexpr std::size_t kDefaultProbeCap = 8192;
  if (resolved.max_candidates == 0) resolved.max_candidates = kDefaultProbeCap;
  const typename Traits::SearchSpace space;
  search::SearchProblem<Op> problem;
  problem.shape = &shape;
  problem.device = &device;
  problem.space = &space;
  problem.model = &model;

  PredictResult<typename Traits::Tuning> result;
  auto ranked = search::rank_strided_probe(problem, resolved, /*top_k=*/1);
  if (ranked.order.empty()) {
    // Sparse legal set the stride (and every seed) missed: sweep X̂ densely —
    // still zero measurements — before giving up.
    ranked = search::rank_legal_space(problem, resolved, /*top_k=*/1);
    result.dense_fallback = true;
    ISAAC_TM_COUNT("dispatch.predict_dense_fallback");
  }
  result.enumerated = ranked.visited;
  result.legal = ranked.legal;
  if (ranked.order.empty()) {
    throw std::runtime_error(std::string("predict: no legal ") + Traits::kind() +
                             " configuration for shape " + shape.to_string() + " (" +
                             std::to_string(ranked.visited) + " points checked)");
  }
  const std::size_t i = ranked.order.front();
  result.tuning = space.decode(ranked.candidates[i]);
  result.predicted_gflops = ranked.scores[i];
  if (t0) ISAAC_TM_RECORD("dispatch.predict_us", telemetry::now_us() - t0);
  return result;
}

template GemmTuneResult tune<GemmOp>(const codegen::GemmShape&, const mlp::Regressor&,
                                     const gpusim::Simulator&, const search::SearchConfig&);
template ConvTuneResult tune<ConvOp>(const codegen::ConvShape&, const mlp::Regressor&,
                                     const gpusim::Simulator&, const search::SearchConfig&);
template BatchedGemmTuneResult tune<BatchedGemmOp>(const codegen::BatchedGemmShape&,
                                                   const mlp::Regressor&,
                                                   const gpusim::Simulator&,
                                                   const search::SearchConfig&);
template GemmPredictResult predict<GemmOp>(const codegen::GemmShape&, const mlp::Regressor&,
                                           const gpusim::DeviceDescriptor&,
                                           const search::SearchConfig&);
template ConvPredictResult predict<ConvOp>(const codegen::ConvShape&, const mlp::Regressor&,
                                           const gpusim::DeviceDescriptor&,
                                           const search::SearchConfig&);
template BatchedGemmPredictResult predict<BatchedGemmOp>(const codegen::BatchedGemmShape&,
                                                         const mlp::Regressor&,
                                                         const gpusim::DeviceDescriptor&,
                                                         const search::SearchConfig&);

}  // namespace isaac::core
