// Tests for the search subsystem (src/search/): legal ranked lists, exact
// budget semantics and the drive loop's failure handling (over both the
// runtime's model-ranked list and the test-side exhaustive list), the model
// top-k ↔ exhaustive agreement criterion, cancellation inside the ranking,
// and the rankings' bit-for-bit parity with the generate-and-test
// references.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/inference.hpp"
#include "gpusim/device.hpp"
#include "gpusim/simulator.hpp"
#include "mlp/regressor.hpp"
#include "search/driver.hpp"
#include "search/model_topk.hpp"
#include "support/exhaustive_search.hpp"
#include "support/reference_rank.hpp"
#include "tuning/collector.hpp"

namespace isaac {
namespace {

constexpr std::size_t kUnlimited = std::numeric_limits<std::size_t>::max();

codegen::GemmShape gemm_shape(std::int64_t m, std::int64_t n, std::int64_t k) {
  codegen::GemmShape s;
  s.m = m;
  s.n = n;
  s.k = k;
  return s;
}

/// The shape grid the agreement test (and the shared model's workload-aware
/// training) spans: square LINPACK blocks, skinny DeepBench panels, deep ICA
/// reductions — the regimes the paper's evaluation covers.
const std::vector<codegen::GemmShape>& gemm_grid() {
  static const std::vector<codegen::GemmShape> grid = {
      gemm_shape(512, 512, 512),  gemm_shape(1024, 1024, 1024), gemm_shape(2560, 64, 2560),
      gemm_shape(2560, 32, 2560), gemm_shape(2560, 16, 2560),   gemm_shape(32, 32, 60000),
      gemm_shape(64, 64, 8192),   gemm_shape(896, 896, 896),    gemm_shape(4096, 128, 1024),
      gemm_shape(128, 2048, 1152), gemm_shape(48, 48, 20000),   gemm_shape(256, 256, 4096),
  };
  return grid;
}

const std::vector<codegen::ConvShape>& conv_grid() {
  static const std::vector<codegen::ConvShape> grid = {
      codegen::ConvShape::from_npq(8, 54, 54, 64, 64, 3, 3),
      codegen::ConvShape::from_npq(4, 28, 28, 128, 96, 3, 3),
      codegen::ConvShape::from_npq(16, 14, 14, 256, 128, 1, 1),
      codegen::ConvShape::from_npq(8, 7, 7, 512, 256, 3, 3),
  };
  return grid;
}

codegen::BatchedGemmShape batched_shape(std::int64_t batch, std::int64_t m, std::int64_t n,
                                        std::int64_t k) {
  codegen::BatchedGemmShape s;
  s.batch = batch;
  s.gemm = gemm_shape(m, n, k);
  return s;
}

/// Attention/RNN-style batched products for the ranking parity grid.
const std::vector<codegen::BatchedGemmShape>& batched_grid() {
  static const std::vector<codegen::BatchedGemmShape> grid = {
      batched_shape(16, 512, 64, 512),
      batched_shape(32, 128, 128, 128),
      batched_shape(8, 896, 896, 896),
      batched_shape(64, 64, 64, 1024),
  };
  return grid;
}

/// One trained model shared by every test in this binary (training dominates
/// the suite's runtime). Trained like a production deployment would be: the
/// paper's generic collection, augmented with samples at the workload's own
/// shape grid — the model the agreement test leans on.
const mlp::Regressor& shared_model() {
  static const mlp::Regressor model = [] {
    gpusim::Simulator sim(gpusim::tesla_p100(), 0.03, 123);
    const auto& dev = sim.device();
    tuning::CollectorConfig cfg;
    cfg.num_samples = 4000;
    cfg.seed = 31337;
    auto report = tuning::collect_gemm(sim, cfg);

    // Workload-informed augmentation: uniform legal tunings at the grid
    // shapes, measured with the usual noisy median-of-3.
    Rng rng(777);
    const tuning::GemmSearchSpace gemm_space;
    const tuning::ConvSearchSpace conv_space;
    constexpr std::size_t kPerShape = 200;
    const auto add = [&](const auto& shape, const auto& tuning) {
      const auto timed = sim.launch_median(codegen::analyze(shape, tuning, dev), 3);
      if (!timed.valid) return false;
      tuning::Sample s;
      s.x = tuning::features(shape, tuning);
      s.y = timed.tflops * 1000.0;
      report.dataset.add(std::move(s));
      return true;
    };
    for (const auto& shape : gemm_grid()) {
      std::size_t got = 0, guard = 0;
      while (got < kPerShape && ++guard < kPerShape * 2000) {
        const auto t = gemm_space.sample_uniform(rng);
        if (codegen::validate(shape, t, dev) && add(shape, t)) ++got;
      }
    }
    for (const auto& shape : conv_grid()) {
      std::size_t got = 0, guard = 0;
      while (got < kPerShape && ++guard < kPerShape * 2000) {
        const auto t = conv_space.sample_uniform(rng);
        if (codegen::validate(shape, t, dev) && add(shape, t)) ++got;
      }
    }

    mlp::TrainConfig tc;
    tc.net.hidden = {64, 96, 64};
    tc.epochs = 12;
    return mlp::train(report.dataset, tc);
  }();
  return model;
}

/// An untrained network, so these tests need no training run. `constant`
/// zeroes every weight and bias: all candidates then score the same, and
/// the order falls entirely to the choice tie-break.
mlp::Regressor untrained_model(bool constant) {
  mlp::MlpConfig net;
  net.inputs = static_cast<int>(tuning::kNumFeatures);
  net.hidden = {16, 8};
  net.seed = 7;
  mlp::Mlp mlp(net);
  if (constant) {
    for (auto& w : mlp.weights()) w.set_zero();
    for (auto& b : mlp.biases()) b.set_zero();
  }
  mlp::Scaler scaler;
  scaler.mean.assign(tuning::kNumFeatures, 0.0);
  scaler.stddev.assign(tuning::kNumFeatures, 1.0);
  return mlp::Regressor(std::move(mlp), std::move(scaler), 3.0, 1.0, /*log_features=*/true);
}

search::SearchConfig search_config(std::size_t budget) {
  search::SearchConfig cfg;
  cfg.budget = budget;
  cfg.reeval_reps = 1;
  cfg.max_candidates = 20000;
  return cfg;
}

/// The coarse always-good region every hand-tuned library lives in (the
/// OperationTraits seed grids), expressed as restricted search spaces. This
/// is the comparison universe for the agreement criterion: exhaustive
/// measurement of all of it is tractable, so the exhaustive list provides exact
/// ground truth, and a 64-evaluation budget is a genuine fraction (~30-60%)
/// of its legal space rather than a rounding error of the 10^7-point X̂ —
/// where no regression model could pin down the single global argmax.
struct SeedCoreGemmSpace : tuning::GemmSearchSpace {
  SeedCoreGemmSpace() {
    domains_ = {{"ms", {4, 8}},  {"ns", {4, 8}},      {"ml", {32, 64}},
                {"nl", {16, 32, 64}}, {"u", {8}},     {"ks", {1}},
                {"kl", {1, 4}},  {"kg", {1, 4, 16}},  {"vec", {4}}};
  }
};

struct SeedCoreConvSpace : tuning::ConvSearchSpace {
  SeedCoreConvSpace() {
    domains_ = {{"tk", {4, 8}}, {"tp", {1, 2}}, {"tq", {4}},     {"tn", {4}},
                {"bk", {32, 64}}, {"bp", {1, 2}}, {"bq", {4}},   {"bn", {8, 16}},
                {"u", {8, 16}}, {"cl", {1}},    {"cg", {1, 4, 16}}};
  }
};

template <typename Op>
using RankedList = std::vector<search::RankedTuning<typename core::OperationTraits<Op>::Tuning>>;

/// The model's ranked winners for `config`'s budget, best first: the list
/// core::tune<Op>() re-times.
template <typename Op>
RankedList<Op> model_topk(const search::SearchProblem<Op>& problem,
                          const search::SearchConfig& config) {
  return search::ranked_tunings(
      problem, search::rank_legal_space(problem, config, std::max<std::size_t>(config.budget, 1)));
}

/// The lists the loop-level tests drive: the runtime's model top-k and the
/// test-side exhaustive list.
template <typename Op>
std::vector<std::pair<std::string, RankedList<Op>>> every_list(
    const search::SearchProblem<Op>& problem, const search::SearchConfig& config) {
  std::vector<std::pair<std::string, RankedList<Op>>> out;
  out.emplace_back("model_topk", model_topk(problem, config));
  out.emplace_back("exhaustive", search::exhaustive_legal(problem));
  return out;
}

TEST(RankLegalSpace, RequiresModel) {
  const gpusim::DeviceDescriptor& dev = gpusim::tesla_p100();
  const auto shape = gemm_shape(512, 512, 512);
  const tuning::GemmSearchSpace space;
  search::SearchProblem<core::GemmOp> problem;  // no model attached
  problem.shape = &shape;
  problem.device = &dev;
  problem.space = &space;
  EXPECT_THROW(search::rank_legal_space(problem, search_config(8), 8), std::invalid_argument);
  // The exhaustive reference is model-free.
  const SeedCoreGemmSpace seed_space;
  problem.space = &seed_space;
  EXPECT_FALSE(search::exhaustive_legal(problem).empty());
}

// ------------------------------------------------------- constraint-aware ----
TEST(SearchDriver, ListsAreLegalBeforeAnyBudgetIsSpent) {
  // The ranking consults codegen::validate on every point it keeps, so
  // everything the driver is handed is already inside the legal space X.
  const gpusim::DeviceDescriptor& dev = gpusim::tesla_p100();
  const auto shape = gemm_shape(2560, 16, 2560);
  const SeedCoreGemmSpace space;  // small enough for the exhaustive list
  search::SearchProblem<core::GemmOp> problem;
  problem.shape = &shape;
  problem.device = &dev;
  problem.space = &space;
  problem.model = &shared_model();

  const auto ranked = search::rank_legal_space(problem, search_config(16), 16);
  EXPECT_GE(ranked.visited, ranked.legal);  // everything legal was first visited
  EXPECT_GE(ranked.legal, ranked.order.size());
  for (const auto& [name, list] : every_list(problem, search_config(16))) {
    ASSERT_FALSE(list.empty()) << name;
    EXPECT_LE(list.size(), ranked.legal) << name;
    for (const auto& entry : list) {
      EXPECT_TRUE(codegen::validate(shape, entry.tuning, dev)) << name;
    }
  }
}

// ----------------------------------------------------------------- budgets ----
TEST(SearchDriver, EveryListRespectsTheBudgetExactly) {
  gpusim::Simulator sim(gpusim::tesla_p100(), 0.03, 7);
  const auto shape = gemm_shape(512, 512, 512);  // legal space ≫ budget
  constexpr std::size_t kBudget = 24;
  const auto result =
      core::tune<core::GemmOp>(shape, shared_model(), sim, search_config(kBudget));
  EXPECT_EQ(result.measured, kBudget);
  EXPECT_EQ(result.top.size(), kBudget);  // each ranked point is measured once
  EXPECT_EQ(result.budget, kBudget);
  EXPECT_GT(result.best.measured_gflops, 0.0);

  // The same loop spends exactly the budget for every list.
  const SeedCoreGemmSpace space;  // legal space > budget, small enough to list
  search::SearchProblem<core::GemmOp> problem;
  problem.shape = &shape;
  problem.device = &sim.device();
  problem.space = &space;
  problem.model = &shared_model();
  for (const auto& [name, list] : every_list(problem, search_config(kBudget))) {
    ASSERT_GT(list.size(), kBudget - 1) << name;
    std::size_t sunk = 0;
    const std::size_t measured = search::drive(
        list, search_config(kBudget), [](const codegen::GemmTuning&) { return 1.0; },
        [&](const auto&, double) { ++sunk; });
    EXPECT_EQ(measured, kBudget) << name;
    EXPECT_EQ(sunk, kBudget) << name;
  }
}

TEST(SearchDriver, AnytimeBestIsBestOfMeasuredPrefix) {
  // Doubling the budget can only improve (or tie) the best — the measured
  // prefix of the ranking is itself a valid run.
  gpusim::Simulator sim(gpusim::tesla_p100(), 0.03, 7);
  const auto shape = gemm_shape(2560, 32, 2560);
  const auto small = core::tune<core::GemmOp>(shape, shared_model(), sim, search_config(16));
  const auto large = core::tune<core::GemmOp>(shape, shared_model(), sim, search_config(64));
  EXPECT_GE(large.best.measured_gflops, small.best.measured_gflops);
}

// ------------------------------------------- the paper's recipe, budgeted ----

/// Drive one list over an explicit problem (mirrors core/inference.cpp's
/// loop, including its deterministic tie-break) and return the winner.
template <typename Op>
std::pair<typename core::OperationTraits<Op>::Tuning, std::size_t> run_list(
    const RankedList<Op>& list, const search::SearchProblem<Op>& problem,
    const gpusim::Simulator& sim, const search::SearchConfig& config) {
  using Traits = core::OperationTraits<Op>;
  using Tuning = typename Traits::Tuning;
  Tuning best{};
  double best_gflops = -1.0;
  const std::size_t measured = search::drive(
      list, config,
      [&](const Tuning& t) {
        const auto timed =
            sim.launch_median(Traits::analyze(*problem.shape, t, sim.device()), 1);
        return timed.valid ? timed.tflops * 1000.0 : 0.0;
      },
      [&](const auto& entry, double gflops) {
        if (gflops > best_gflops ||
            (gflops == best_gflops &&
             Traits::encode_tuning(entry.tuning) < Traits::encode_tuning(best))) {
          best = entry.tuning;
          best_gflops = gflops;
        }
      });
  EXPECT_GT(measured, 0u);
  return {best, measured};
}

TEST(SearchDriver, UnlimitedBudgetMeasuresTheWholeList) {
  // budget = SIZE_MAX means "unlimited": the model ranks every legal point,
  // and the driver re-times each list once, all of X.
  gpusim::Simulator sim(gpusim::tesla_p100(), 0.0, 7);
  const gpusim::DeviceDescriptor& dev = sim.device();
  const auto shape = gemm_shape(512, 512, 512);
  const SeedCoreGemmSpace space;  // |X̂| = a few hundred: cheap to saturate
  search::SearchProblem<core::GemmOp> problem;
  problem.shape = &shape;
  problem.device = &dev;
  problem.space = &space;
  problem.model = &shared_model();
  const auto cfg = search_config(kUnlimited);
  const std::size_t legal = search::rank_legal_space(problem, cfg, kUnlimited).legal;
  for (const auto& [name, list] : every_list(problem, cfg)) {
    const auto [best, measured] = run_list<core::GemmOp>(list, problem, sim, cfg);
    EXPECT_LE(measured, space.size()) << name;
    EXPECT_EQ(measured, legal) << name;  // all of X, once
    EXPECT_TRUE(codegen::validate(shape, best, dev)) << name;
  }
}

TEST(SearchDriver, EmptyLegalSpaceMeasuresNothing) {
  // A degenerate shape with no legal configuration: both lists are empty and
  // the driver returns 0 measured instead of measuring illegal points or
  // spinning. (Over the small seed-core space so the exhaustive list stays
  // cheap; the full-space behavior is identical.)
  const gpusim::DeviceDescriptor& dev = gpusim::tesla_p100();
  const auto shape = gemm_shape(64, 64, 2);  // below the smallest prefetch depth
  const SeedCoreGemmSpace space;
  search::SearchProblem<core::GemmOp> problem;
  problem.shape = &shape;
  problem.device = &dev;
  problem.space = &space;
  problem.model = &shared_model();

  EXPECT_EQ(search::rank_legal_space(problem, search_config(8), 8).legal, 0u);
  for (const auto& [name, list] : every_list(problem, search_config(8))) {
    EXPECT_TRUE(list.empty()) << name;
    std::size_t sunk = 0;
    const std::size_t measured = search::drive(
        list, search_config(8), [](const codegen::GemmTuning&) { return 1.0; },
        [&](const auto&, double) { ++sunk; });
    EXPECT_EQ(measured, 0u) << name;
    EXPECT_EQ(sunk, 0u) << name;
  }
}

TEST(SearchDriver, EmptyLegalSpaceThrowsDescriptively) {
  // …and tune<Op>() turns that empty drive into a loud, descriptive error —
  // not a value-initialized "best".
  gpusim::Simulator sim(gpusim::tesla_p100(), 0.03, 7);
  const auto shape = gemm_shape(64, 64, 2);
  try {
    core::tune<core::GemmOp>(shape, shared_model(), sim, search_config(8));
    FAIL() << "tune did not throw on an empty legal space";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no legal gemm"), std::string::npos) << what;
    EXPECT_NE(what.find("model_topk"), std::string::npos) << what;
    EXPECT_NE(what.find(shape.to_string()), std::string::npos) << what;
  }
}

TEST(SearchDriver, MeasureExceptionPropagatesToCaller) {
  // A measure() throw inside the driver's parallel measurement must reach
  // the caller (not terminate, not get scored as 0.0), and nothing from the
  // failed batch may leak into the sink. The test needs only a ranked list,
  // so an untrained model serves and keeps this suite free of a training
  // run.
  const gpusim::DeviceDescriptor& dev = gpusim::tesla_p100();
  const auto shape = gemm_shape(512, 512, 512);
  const SeedCoreGemmSpace space;
  const mlp::Regressor model = untrained_model(/*constant=*/false);
  search::SearchProblem<core::GemmOp> problem;
  problem.shape = &shape;
  problem.device = &dev;
  problem.space = &space;
  problem.model = &model;

  auto cfg = search_config(32);
  cfg.retry_backoff_ms = 0.0;  // the default retries run, without sleeping
  for (const auto& [name, list] : every_list(problem, cfg)) {
    ASSERT_GT(list.size(), 1u) << name;  // a parallel batch
    std::size_t sunk = 0;
    EXPECT_THROW(
        search::drive(
            list, cfg,
            [](const codegen::GemmTuning&) -> double {
              throw std::runtime_error("device fault");
            },
            [&](const auto&, double) { ++sunk; }),
        std::runtime_error)
        << name;
    EXPECT_EQ(sunk, 0u) << name;
  }
}

TEST(SearchDriver, HugeRetryCountKeepsBackoffDefined) {
  // measure_retries has no upper bound. The backoff doubles per attempt, so
  // past 31 attempts an int shift would be undefined (and at 31 it already
  // flips the sign); the loop must still retry exactly measure_retries
  // times and then rethrow.
  const gpusim::DeviceDescriptor& dev = gpusim::tesla_p100();
  const auto shape = gemm_shape(512, 512, 512);
  const SeedCoreGemmSpace space;
  search::SearchProblem<core::GemmOp> problem;
  problem.shape = &shape;
  problem.device = &dev;
  problem.space = &space;

  auto cfg = search_config(1);  // one measurement: every attempt is its retry
  cfg.measure_retries = 40;
  cfg.retry_backoff_ms = 0.0;
  cfg.retry_backoff_cap_ms = 0.0;
  std::atomic<int> attempts{0};
  std::size_t sunk = 0;
  EXPECT_THROW(search::drive(
                   search::exhaustive_legal(problem), cfg,
                   [&](const codegen::GemmTuning&) -> double {
                     ++attempts;
                     throw std::runtime_error("device fault");
                   },
                   [&](const auto&, double) { ++sunk; }),
               std::runtime_error);
  EXPECT_EQ(attempts.load(), 41);
  EXPECT_EQ(sunk, 0u);
}

TEST(SearchDriver, CancelStopsBeforeTheFirstBatch) {
  // Cancellation is polled before every batch: a preset flag measures
  // nothing and reports the early stop.
  const gpusim::DeviceDescriptor& dev = gpusim::tesla_p100();
  const auto shape = gemm_shape(512, 512, 512);
  const SeedCoreGemmSpace space;
  search::SearchProblem<core::GemmOp> problem;
  problem.shape = &shape;
  problem.device = &dev;
  problem.space = &space;
  const std::atomic<bool> cancel{true};
  auto cfg = search_config(8);
  cfg.cancel = &cancel;
  bool stopped_early = false;
  std::size_t sunk = 0;
  EXPECT_EQ(search::drive(
                search::exhaustive_legal(problem), cfg,
                [](const codegen::GemmTuning&) { return 1.0; },
                [&](const auto&, double) { ++sunk; }, &stopped_early),
            0u);
  EXPECT_EQ(sunk, 0u);
  EXPECT_TRUE(stopped_early);
}

TEST(ModelTopK, MatchesExhaustiveOnSeedShapeGrid) {
  // Acceptance criterion: with a budget of 64 measured evaluations per shape,
  // the model top-k must select the same tuning as re-timing the whole
  // exhaustive list on ≥ 80% of the GEMM/conv shape grid, over the
  // seed-grid core spaces above. Noise-free simulator: ground truth is the
  // device model's exact argmax, not a lottery over measurement noise.
  gpusim::Simulator sim(gpusim::tesla_p100(), /*noise_sigma=*/0.0, 7);
  const auto& dev = sim.device();

  search::SearchConfig exhaustive;
  exhaustive.budget = kUnlimited;  // measure all of X: the ground truth

  search::SearchConfig topk;
  topk.budget = 64;

  const SeedCoreGemmSpace gemm_space;
  const SeedCoreConvSpace conv_space;

  std::size_t total = 0, matched = 0;
  std::string mismatches;
  const auto compare = [&](auto op_tag, const auto& space, const auto& shape) {
    using Op = std::decay_t<decltype(op_tag)>;
    search::SearchProblem<Op> problem;
    problem.shape = &shape;
    problem.device = &dev;
    problem.space = &space;
    problem.model = &shared_model();
    const auto [truth, truth_measured] =
        run_list<Op>(search::exhaustive_legal(problem), problem, sim, exhaustive);
    const auto [fast, fast_measured] = run_list<Op>(model_topk(problem, topk), problem, sim, topk);
    EXPECT_LE(fast_measured, 64u) << shape.to_string();
    EXPECT_GE(truth_measured, fast_measured) << shape.to_string();  // full sweep ⊇ top-k
    ++total;
    if (truth == fast) {
      ++matched;
    } else {
      mismatches += "  " + shape.to_string() + ": truth " + truth.to_string() + " vs topk " +
                    fast.to_string() + "\n";
    }
  };

  for (const auto& shape : gemm_grid()) compare(core::GemmOp{}, gemm_space, shape);
  for (const auto& shape : conv_grid()) compare(core::ConvOp{}, conv_space, shape);

  EXPECT_GE(static_cast<double>(matched), 0.8 * static_cast<double>(total))
      << matched << "/" << total << " shapes agreed; mismatches:\n"
      << mismatches;
}

// ----------------------------------------- ranking-rewrite determinism ----

/// A ranking's best-first sequence, each choice paired with its score's bit
/// pattern: sequences compare exactly, not within ASSERT_DOUBLE_EQ's 4 ULPs.
using RankedSequence = std::vector<std::pair<search::Choice, std::uint64_t>>;

template <typename Op>
RankedSequence best_first(const search::RankedCandidates<Op>& r) {
  RankedSequence seq;
  for (const std::size_t at : r.order) {
    seq.emplace_back(r.candidates[at], std::bit_cast<std::uint64_t>(r.scores[at]));
  }
  return seq;
}

/// Index of the first rank where `got` departs from `expected`'s prefix
/// (got.size() when it is a prefix).
std::size_t first_difference(const RankedSequence& got, const RankedSequence& expected) {
  std::size_t i = 0;
  while (i < got.size() && i < expected.size() && got[i] == expected[i]) ++i;
  return i;
}

/// rank_legal_space's contract against a reference that ranked every point
/// it scored: at k = 64 the winners are the reference's best-first prefix, at
/// k = all its whole sequence — bit for bit, with `candidates`/`scores`
/// already best-first (`order` = 0..k-1) and the same X̂ accounting.
template <typename Op>
void expect_ranking_matches(const search::SearchProblem<Op>& problem,
                            const search::SearchConfig& cfg,
                            const search::RankedCandidates<Op>& truth, const std::string& label) {
  ASSERT_EQ(truth.order.size(), truth.candidates.size()) << label;  // reference ranked all
  const RankedSequence expected = best_first(truth);
  for (const std::size_t k : {std::size_t{64}, kUnlimited}) {
    const auto fast = search::rank_legal_space(problem, cfg, k);
    const std::string at = label + " k=" + (k == kUnlimited ? "all" : std::to_string(k));
    const std::size_t n = std::min(k, expected.size());
    ASSERT_EQ(fast.candidates.size(), n) << at;
    ASSERT_EQ(fast.scores.size(), n) << at;
    ASSERT_EQ(fast.order.size(), n) << at;
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(fast.order[i], i) << at;
    const RankedSequence got = best_first(fast);
    ASSERT_EQ(first_difference(got, expected), n) << at;
    EXPECT_EQ(fast.visited, truth.visited) << at;
    EXPECT_EQ(fast.legal, truth.legal) << at;
    EXPECT_EQ(fast.scored, truth.candidates.size()) << at;
  }
}

TEST(RankLegalSpace, OrderingUnchangedByAllocationFreeRewrite) {
  // Acceptance criterion for the scoring pipeline, the constraint-propagating
  // enumeration and the streaming top-k: over the agreement test's shape grid
  // plus a batched-GEMM panel (20 shapes across all three op classes), the
  // rank_legal_space winners must be the generate-and-test reference's
  // (tests/support/reference_rank.hpp) best-first sequence bit for bit —
  // its prefix at k = 64 and all of it at k = all, which covers every legal
  // point and every seed-grid point scored. Each shape ranks capped
  // (max_candidates = 20000: strided, seed grid re-appended where the legal
  // space exceeds it); the batched shapes, whose legal spaces are ~7·10^4
  // points, also rank dense (max_candidates = 0: the fused walk),
  // reusing the sweep.
  const gpusim::DeviceDescriptor& dev = gpusim::tesla_p100();
  const tuning::GemmSearchSpace gemm_space;
  const tuning::ConvSearchSpace conv_space;
  const tuning::BatchedGemmSearchSpace batched_space;

  const auto compare = [&](auto op_tag, const auto& space, const auto& shape, bool dense) {
    using Op = std::decay_t<decltype(op_tag)>;
    search::SearchProblem<Op> problem;
    problem.shape = &shape;
    problem.device = &dev;
    problem.space = &space;
    problem.model = &shared_model();
    const std::vector<std::uint64_t> legal = reference::sweep_legal(problem);
    for (const std::size_t cap : {std::size_t{20000}, std::size_t{0}}) {
      if (cap == 0 && !dense) continue;
      search::SearchConfig cfg;
      cfg.max_candidates = cap;
      const auto truth = reference::reference_rank(problem, cfg, kUnlimited, legal);
      expect_ranking_matches(problem, cfg, truth,
                             shape.to_string() + " cap " + std::to_string(cap));
    }
  };

  for (const auto& shape : gemm_grid()) compare(core::GemmOp{}, gemm_space, shape, false);
  for (const auto& shape : conv_grid()) compare(core::ConvOp{}, conv_space, shape, false);
  for (const auto& shape : batched_grid()) {
    compare(core::BatchedGemmOp{}, batched_space, shape, true);
  }
}

// ------------------------------------------------------- streaming top-k ----

/// A GEMM space of a few thousand points: enough walk chunks and scoring
/// blocks to cross every boundary, small enough to sweep under sanitizers.
struct MidGemmSpace : tuning::GemmSearchSpace {
  MidGemmSpace() {
    domains_ = {{"ms", {2, 4, 8}}, {"ns", {2, 4, 8}}, {"ml", {16, 32, 64}},
                {"nl", {16, 32, 64}}, {"u", {4, 8}},   {"ks", {1, 2}},
                {"kl", {1, 2, 4}},   {"kg", {1, 4, 16}}, {"vec", {1, 2, 4}}};
  }
};

/// A conv space of ~31k points holding every value of the op's seed grid.
struct MidConvSpace : tuning::ConvSearchSpace {
  MidConvSpace() {
    domains_ = {{"tk", {4, 8}},     {"tp", {1, 2}},    {"tq", {1, 2, 4}}, {"tn", {2, 4}},
                {"bk", {16, 32, 64, 128}}, {"bp", {1, 2, 4}}, {"bq", {1, 2, 4}},
                {"bn", {4, 8, 16}}, {"u", {4, 8}},     {"cl", {1, 4}},    {"cg", {1, 4, 16}}};
  }
};

TEST(StreamingRank, ConstantScoreTiesFollowChoiceOrderAcrossChunks) {
  // The fused walk keeps a bounded top-k per pool chunk and merges them.
  // With every score tied, each decision — inside a block, across 7-row
  // blocks, across walk chunks and in the merge — is the choice tie-break,
  // so the winners must be exactly the smallest legal choices in order.
  const gpusim::DeviceDescriptor& dev = gpusim::tesla_p100();
  const MidGemmSpace space;
  const auto shape = gemm_shape(512, 512, 512);
  ASSERT_GT(search::plan_legal_walk(space.domains(), nullptr).prefixes.size(), 1u);
  for (const bool constant : {true, false}) {
    const mlp::Regressor model = untrained_model(constant);
    search::SearchProblem<core::GemmOp> problem;
    problem.shape = &shape;
    problem.device = &dev;
    problem.space = &space;
    problem.model = &model;
    search::SearchConfig cfg;
    cfg.batch = 7;
    const auto truth = reference::reference_rank(problem, cfg, kUnlimited);
    ASSERT_GT(truth.candidates.size(), 100u);
    if (constant) {
      const RankedSequence seq = best_first(truth);
      for (std::size_t i = 1; i < seq.size(); ++i) {
        ASSERT_EQ(seq[i].second, seq[0].second) << i;  // every score tied
        ASSERT_LT(seq[i - 1].first, seq[i].first) << i;  // choice order decides
      }
    }
    expect_ranking_matches(problem, cfg, truth, constant ? "constant" : "untrained");
  }
}

TEST(StreamingRank, CappedConvKeepsSeedGridWinners) {
  // A capped ranking strides the legal space down to max_candidates and
  // re-appends the seed grid, de-duplicated against the picks. With 5 picks
  // and k = 8, at least 3 winners must come from the seed grid, and the
  // whole sequence must match the reference's hash-de-duplicated one.
  const gpusim::DeviceDescriptor& dev = gpusim::tesla_p100();
  const MidConvSpace space;
  const auto& shape = conv_grid()[0];
  std::set<search::Choice> seeds;
  for (const auto& t : core::OperationTraits<core::ConvOp>::seed_grid()) {
    search::Choice c;
    if (space.encode(t, c)) seeds.insert(c);
  }
  for (const bool constant : {true, false}) {
    const mlp::Regressor model = untrained_model(constant);
    search::SearchProblem<core::ConvOp> problem;
    problem.shape = &shape;
    problem.device = &dev;
    problem.space = &space;
    problem.model = &model;
    search::SearchConfig cfg;
    cfg.max_candidates = 5;
    cfg.batch = 3;
    const auto truth = reference::reference_rank(problem, cfg, kUnlimited);
    ASSERT_GT(truth.legal, cfg.max_candidates);
    ASSERT_GT(truth.candidates.size(), 8u);
    expect_ranking_matches(problem, cfg, truth, constant ? "constant" : "untrained");

    const auto top = search::rank_legal_space(problem, cfg, 8);
    ASSERT_EQ(top.candidates.size(), 8u);
    const auto from_seeds = std::count_if(top.candidates.begin(), top.candidates.end(),
                                          [&](const search::Choice& c) { return seeds.contains(c); });
    EXPECT_GE(from_seeds, 3);
  }
}

// --------------------------------------- constraint-propagating walk ----

TEST(PrunedWalk, ForEachLegalMatchesGenerateAndTest) {
  // Space-level tentpole invariant: for_each_legal must visit exactly the
  // points the generate-and-test sweep (for_each + validate) keeps, in
  // exactly for_each order — including a shape whose legal space is empty.
  const gpusim::DeviceDescriptor& dev = gpusim::tesla_p100();
  const SeedCoreGemmSpace seed_gemm;
  const SeedCoreConvSpace seed_conv;

  auto gemm_shapes = gemm_grid();
  gemm_shapes.push_back(gemm_shape(64, 64, 2));  // empty legal space
  for (const auto& shape : gemm_shapes) {
    std::vector<codegen::GemmTuning> sweep, pruned;
    seed_gemm.for_each([&](const codegen::GemmTuning& t) {
      if (codegen::validate(shape, t, dev)) sweep.push_back(t);
      return true;
    });
    seed_gemm.for_each_legal(shape, dev, [&](const codegen::GemmTuning& t) {
      pruned.push_back(t);
      return true;
    });
    EXPECT_EQ(pruned, sweep) << shape.to_string();
  }

  // One full-space GEMM shape: the production domains, ~20M points swept by
  // the pool-parallel generate-and-test sweep (reference::sweep_legal, in
  // for_each order; the spaces above check for_each itself).
  {
    const tuning::GemmSearchSpace full;
    const auto shape = gemm_shape(2560, 32, 2560);
    search::SearchProblem<core::GemmOp> problem;
    problem.shape = &shape;
    problem.device = &dev;
    problem.space = &full;
    std::vector<codegen::GemmTuning> sweep, pruned;
    for (const std::uint64_t flat : reference::sweep_legal(problem)) {
      sweep.push_back(full.decode(search::choice_from_flat(flat, full.domains())));
    }
    full.for_each_legal(shape, dev, [&](const codegen::GemmTuning& t) {
      pruned.push_back(t);
      return true;
    });
    EXPECT_EQ(pruned, sweep) << shape.to_string();
    EXPECT_FALSE(pruned.empty());
  }

  for (const auto& shape : conv_grid()) {
    std::vector<codegen::ConvTuning> sweep, pruned;
    seed_conv.for_each([&](const codegen::ConvTuning& t) {
      if (codegen::validate(shape, t, dev)) sweep.push_back(t);
      return true;
    });
    seed_conv.for_each_legal(shape, dev, [&](const codegen::ConvTuning& t) {
      pruned.push_back(t);
      return true;
    });
    EXPECT_EQ(pruned, sweep) << shape.to_string();
  }
}

/// Concatenating run_walk_chunk over every prefix of plan_legal_walk must
/// reproduce the serial walk_legal exactly — same points, same flat indices,
/// same order. Chunks run serially here: the property is about the split,
/// and the pool only changes who runs each chunk.
void expect_chunks_reproduce_walk(const std::vector<tuning::ParameterDomain>& domains,
                                  const tuning::ConstraintSet& cs, const std::string& label) {
  const tuning::ConstraintSet* csp = cs.empty() ? nullptr : &cs;
  std::vector<search::Choice> choices;
  std::vector<std::uint64_t> flats;
  tuning::walk_legal(domains, csp, [&](const search::Choice& c, std::uint64_t flat) {
    choices.push_back(c);
    flats.push_back(flat);
    return true;
  });
  const search::WalkChunkPlan plan = search::plan_legal_walk(domains, csp);
  std::size_t next = 0;
  std::size_t first_mismatch = std::numeric_limits<std::size_t>::max();
  for (std::size_t ci = 0; ci < plan.prefixes.size(); ++ci) {
    search::run_walk_chunk(domains, csp, plan, ci,
                           [&](const search::Choice& c, std::uint64_t flat) {
                             if (first_mismatch == std::numeric_limits<std::size_t>::max() &&
                                 (next >= choices.size() || choices[next] != c ||
                                  flats[next] != flat)) {
                               first_mismatch = next;
                             }
                             ++next;
                             return true;
                           });
  }
  EXPECT_EQ(first_mismatch, std::numeric_limits<std::size_t>::max()) << label;
  EXPECT_EQ(next, choices.size()) << label;
}

TEST(PrunedWalk, ChunkPlanReproducesSerialWalk) {
  // plan_legal_walk + run_walk_chunk is the only dense enumeration engine
  // behind rank_legal_space; its output must be the serial walk, verbatim.
  const gpusim::DeviceDescriptor& dev = gpusim::tesla_p100();
  const tuning::GemmSearchSpace gemm_space;
  const tuning::ConvSearchSpace conv_space;
  const tuning::BatchedGemmSearchSpace batched_space;
  for (const auto& shape : {gemm_shape(2560, 32, 2560), gemm_shape(512, 512, 512),
                            gemm_shape(64, 64, 2) /* empty legal space */}) {
    expect_chunks_reproduce_walk(gemm_space.domains(), gemm_space.prefix_constraints(shape, dev),
                                 "gemm " + shape.to_string());
  }
  for (const auto& shape : {conv_grid()[0], conv_grid()[3]}) {
    expect_chunks_reproduce_walk(conv_space.domains(), conv_space.prefix_constraints(shape, dev),
                                 "conv " + shape.to_string());
  }
  for (const auto& shape : {batched_grid()[0], batched_shape(0, 64, 64, 64) /* empty */}) {
    expect_chunks_reproduce_walk(
        batched_space.domains(),
        core::OperationTraits<core::BatchedGemmOp>::prefix_constraints(shape, dev, batched_space),
        "bgemm " + shape.to_string());
  }

  // Degenerate domain lists: one dimension (with and without a predicate),
  // and a domain with no values (X̂ itself is empty).
  const std::vector<tuning::ParameterDomain> one_dim = {{"x", {1, 2, 3, 4, 5}}};
  expect_chunks_reproduce_walk(one_dim, {}, "one dimension, unconstrained");
  tuning::ConstraintSet odd;
  odd.add_unary(0, [](const int* v) { return v[0] % 2 == 1; });
  expect_chunks_reproduce_walk(one_dim, odd, "one dimension, odd values");
  const std::vector<tuning::ParameterDomain> hollow = {{"a", {1, 2}}, {"b", {}}, {"c", {3}}};
  expect_chunks_reproduce_walk(hollow, {}, "domain with no values");
  EXPECT_TRUE(search::plan_legal_walk(hollow, nullptr).prefixes.empty());
}

TEST(PrunedWalk, PerDeviceRankingsFollowEachDevicesLimits) {
  // Two descriptors sharing a name but differing in a legality-relevant
  // limit must each rank against their own limits: each device's ranking has
  // to agree with a reference sweep performed against that same device.
  const gpusim::DeviceDescriptor small = [] {
    gpusim::DeviceDescriptor d = gpusim::tesla_p100();
    d.smem_per_block_bytes /= 4;
    d.smem_per_sm_bytes /= 4;
    return d;
  }();
  const gpusim::DeviceDescriptor full = gpusim::tesla_p100();

  const tuning::GemmSearchSpace space;  // production domains → the real cache
  const auto shape = gemm_shape(512, 512, 512);
  search::SearchConfig cfg;
  cfg.max_candidates = 20000;

  std::vector<std::size_t> legal_counts;
  for (const gpusim::DeviceDescriptor* dev : {&full, &small}) {
    search::SearchProblem<core::GemmOp> problem;
    problem.shape = &shape;
    problem.device = dev;
    problem.space = &space;
    problem.model = &shared_model();
    const auto truth = reference::reference_rank(problem, cfg, kUnlimited);
    expect_ranking_matches(problem, cfg, truth,
                           "smem " + std::to_string(dev->smem_per_block_bytes));
    legal_counts.push_back(truth.legal);
  }
  // The cut-down device must actually lose candidates — otherwise this test
  // could pass with the two devices silently sharing one ranking.
  ASSERT_EQ(legal_counts.size(), 2u);
  EXPECT_LT(legal_counts[1], legal_counts[0]);
}

// ------------------------------------------- prefix-constraint soundness ----

/// Checks that every legal point of `space` for `shape` passes the op's
/// prefix layer exactly where the walk would test it. That means, at every
/// dimension from the highest down, its unary mask (value_masks) and its
/// multi-dimension predicates (check_multi_at) — the checks both the walk
/// and the strided probe's leaf picks run. A predicate that fails a legal
/// point is stricter than validate, and the walk would silently drop that
/// point. `for_each_choice(visit)` supplies the points; the return value is
/// the number of legal ones checked.
template <typename Op, typename ForEachChoice>
std::size_t expect_legal_points_pass(const typename core::OperationTraits<Op>::SearchSpace& space,
                                     const typename core::OperationTraits<Op>::Shape& shape,
                                     const ForEachChoice& for_each_choice) {
  using Traits = core::OperationTraits<Op>;
  const gpusim::DeviceDescriptor& dev = gpusim::tesla_p100();
  const auto& domains = space.domains();
  const tuning::ConstraintSet cs = Traits::prefix_constraints(shape, dev, space);
  const auto masks = cs.value_masks(domains);
  std::vector<int> values(domains.size());
  std::size_t legal = 0, failures = 0;
  std::string first_failure;
  const auto fail = [&](const std::string& where, const search::Choice& c) {
    if (failures++ == 0) {
      first_failure = where + " rejects legal " + space.decode(c).to_string();
    }
  };
  for_each_choice([&](const search::Choice& c) {
    if (!Traits::validate(shape, space.decode(c), dev)) return;
    ++legal;
    for (std::size_t d = 0; d < domains.size(); ++d) values[d] = domains[d].values[c[d]];
    for (std::size_t d = domains.size(); d-- > 0;) {
      if (!masks.empty() && !masks[d][c[d]]) fail("unary mask @" + domains[d].name, c);
      if (!cs.check_multi_at(d, values.data())) fail("multi @" + domains[d].name, c);
    }
  });
  EXPECT_EQ(failures, 0u) << shape.to_string() << ": " << first_failure;
  return legal;
}

TEST(PrefixSoundness, LegalPointsPassEveryLevel) {
  // Generate-and-test sweeps of the mid-sized spaces: every point of X̂.
  const auto sweep = [](const auto& space) {
    return [&space](const auto& visit) {
      tuning::walk_legal(space.domains(), nullptr,
                         [&](const search::Choice& c, std::uint64_t) {
                           visit(c);
                           return true;
                         });
    };
  };
  std::size_t gemm_legal = 0, conv_legal = 0;
  const MidGemmSpace mid_gemm;
  const MidConvSpace mid_conv;
  for (const auto& shape : gemm_grid()) {
    gemm_legal += expect_legal_points_pass<core::GemmOp>(mid_gemm, shape, sweep(mid_gemm));
  }
  for (const auto& shape : conv_grid()) {
    conv_legal += expect_legal_points_pass<core::ConvOp>(mid_conv, shape, sweep(mid_conv));
  }
  EXPECT_GT(gemm_legal, 1000u);
  EXPECT_GT(conv_legal, 1000u);

  // Seeded uniform samples of X̂ at the production domains, for all three
  // ops. The batched space pins KG, so only its sample covers the trait's
  // KG predicate.
  constexpr int kSamples = 6000;
  const auto sample = [](const auto& space, std::uint64_t seed) {
    return [&space, seed](const auto& visit) {
      Rng rng(seed);
      search::Choice c;
      for (int i = 0; i < kSamples; ++i) {
        space.sample_uniform(rng, &c);
        visit(c);
      }
    };
  };
  const tuning::GemmSearchSpace gemm_space;
  const tuning::ConvSearchSpace conv_space;
  const tuning::BatchedGemmSearchSpace batched_space;
  std::size_t sampled_legal[3] = {0, 0, 0};
  std::uint64_t seed = 1;
  for (const auto& shape : gemm_grid()) {
    sampled_legal[0] +=
        expect_legal_points_pass<core::GemmOp>(gemm_space, shape, sample(gemm_space, seed++));
  }
  for (const auto& shape : conv_grid()) {
    sampled_legal[1] +=
        expect_legal_points_pass<core::ConvOp>(conv_space, shape, sample(conv_space, seed++));
  }
  for (const auto& shape : batched_grid()) {
    sampled_legal[2] += expect_legal_points_pass<core::BatchedGemmOp>(
        batched_space, shape, sample(batched_space, seed++));
  }
  for (const std::size_t n : sampled_legal) EXPECT_GT(n, 100u);
}

/// A GEMM space inflated past 2^32 points with junk values that can never be
/// legal for a modest shape (KG far beyond K, NL blowing out shared memory).
/// Flat indices above 2^32 must neither wrap nor be materialized: the pruned
/// walk skips the junk subtrees and ranks exactly the clean space's points.
struct OversizedGemmSpace : tuning::GemmSearchSpace {
  OversizedGemmSpace() {
    for (auto& d : domains_) {
      if (d.name == "kg") d.values.insert(d.values.end(), 2048, 1 << 20);
      if (d.name == "nl") d.values.insert(d.values.end(), 64, 1 << 20);
    }
  }
};

TEST(PrunedWalk, OversizedSpaceRanksThroughLazyWalk) {
  const gpusim::DeviceDescriptor& dev = gpusim::tesla_p100();
  const tuning::GemmSearchSpace clean;
  const OversizedGemmSpace oversized;
  ASSERT_GT(oversized.size(), std::numeric_limits<std::uint32_t>::max());
  ASSERT_LT(oversized.size(), std::numeric_limits<std::size_t>::max());  // exact, not saturated

  const auto shape = gemm_shape(2560, 32, 2560);
  search::SearchConfig cfg;
  cfg.max_candidates = 20000;
  const auto rank = [&](const tuning::GemmSearchSpace& space, std::size_t k) {
    search::SearchProblem<core::GemmOp> problem;
    problem.shape = &shape;
    problem.device = &dev;
    problem.space = &space;
    problem.model = &shared_model();
    return search::rank_legal_space(problem, cfg, k);
  };
  const auto a = rank(clean, kUnlimited);
  ASSERT_EQ(a.scored, a.candidates.size());

  // The junk values are all illegal, so the oversized winners must be the
  // clean space's best-first sequence — decoded tunings and score bits — at
  // k = 64 (a prefix) and at k = all, and the oversized ranking must account
  // the whole inflated X̂ as visited.
  for (const std::size_t k : {std::size_t{64}, kUnlimited}) {
    const auto b = rank(oversized, k);
    EXPECT_EQ(b.visited, oversized.size());
    EXPECT_EQ(b.legal, a.legal);
    EXPECT_EQ(b.scored, a.scored);
    ASSERT_EQ(b.candidates.size(), std::min(k, a.candidates.size()));
    for (std::size_t i = 0; i < b.candidates.size(); ++i) {
      ASSERT_EQ(b.order[i], i);
      ASSERT_EQ(clean.decode(a.candidates[a.order[i]]), oversized.decode(b.candidates[i])) << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.scores[a.order[i]]),
                std::bit_cast<std::uint64_t>(b.scores[i]))
          << i;
    }
  }
}

TEST(SearchSpaceSize, SaturatesInsteadOfWrapping) {
  // |X̂| beyond 2^64 must clamp to the SIZE_MAX sentinel, not silently wrap.
  struct HugeSpace : tuning::GemmSearchSpace {
    HugeSpace() {
      for (auto& d : domains_) d.values.assign(512, 2);  // 512^9 = 2^81
    }
  };
  const HugeSpace huge;
  EXPECT_EQ(huge.size(), std::numeric_limits<std::size_t>::max());
  // Dense ranking enumerates flat indices, which such a space cannot have:
  // it refuses loudly instead of ranking wrapped indices.
  const auto shape = gemm_shape(512, 512, 512);
  search::SearchProblem<core::GemmOp> problem;
  problem.shape = &shape;
  problem.device = &gpusim::tesla_p100();
  problem.space = &huge;
  problem.model = &shared_model();
  EXPECT_THROW(search::rank_legal_space(problem, search::SearchConfig{}, 8), std::length_error);
  // So does the strided probe: its stride is a flat index too.
  search::SearchConfig probe_cfg;
  probe_cfg.max_candidates = 64;
  EXPECT_THROW(search::rank_strided_probe(problem, probe_cfg, 1), std::length_error);
  // Ordinary spaces stay exact.
  EXPECT_LT(tuning::GemmSearchSpace().size(), std::numeric_limits<std::size_t>::max());
  EXPECT_LT(tuning::ConvSearchSpace().size(), std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(SeedCoreGemmSpace().size(), 144u);  // 2·2·2·3·1·1·2·3·1
}

TEST(RankStridedProbe, ReusableOdometerKeepsProbeDeterministic) {
  // The probe's candidate set and ordering must be stable run-to-run (it is
  // the zero-measurement dispatch path) and across the buffer-reuse rewrite.
  const gpusim::DeviceDescriptor& dev = gpusim::tesla_p100();
  const tuning::GemmSearchSpace space;
  const auto shape = gemm_shape(2560, 32, 2560);
  search::SearchProblem<core::GemmOp> problem;
  problem.shape = &shape;
  problem.device = &dev;
  problem.space = &space;
  problem.model = &shared_model();
  search::SearchConfig cfg;
  cfg.max_candidates = 4096;
  const auto a = search::rank_strided_probe(problem, cfg, 8);
  const auto b = search::rank_strided_probe(problem, cfg, 8);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.visited, b.visited);
  ASSERT_FALSE(a.order.empty());
  for (std::size_t i = 0; i < a.order.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.scores[a.order[i]], b.scores[b.order[i]]);
  }
}

TEST(RankStridedProbe, MatchesReferenceProbe) {
  // The tier-1 probe against its generate-and-test oracle: the reference
  // validates every stride pick (no prefix pre-gate) and de-duplicates the
  // seed grid by hash, so equal candidates also show the pre-gate rejects
  // only points validate rejects. Candidates, order, score bits and the X̂
  // accounting must all match, over every op's grid.
  const gpusim::DeviceDescriptor& dev = gpusim::tesla_p100();
  const tuning::GemmSearchSpace gemm_space;
  const tuning::ConvSearchSpace conv_space;
  const tuning::BatchedGemmSearchSpace batched_space;
  search::SearchConfig cfg;
  cfg.max_candidates = 20000;

  const auto compare = [&](auto op_tag, const auto& space, const auto& shape) {
    using Op = std::decay_t<decltype(op_tag)>;
    search::SearchProblem<Op> problem;
    problem.shape = &shape;
    problem.device = &dev;
    problem.space = &space;
    problem.model = &shared_model();
    const std::string label = shape.to_string();
    const auto truth = reference::reference_probe(problem, cfg, kUnlimited);
    const auto fast = search::rank_strided_probe(problem, cfg, kUnlimited);
    EXPECT_EQ(fast.visited, truth.visited) << label;
    EXPECT_EQ(fast.legal, truth.legal) << label;
    EXPECT_EQ(fast.scored, truth.scored) << label;
    ASSERT_EQ(fast.candidates, truth.candidates) << label;
    EXPECT_EQ(fast.order, truth.order) << label;
    ASSERT_EQ(first_difference(best_first(fast), best_first(truth)), truth.order.size()) << label;
  };

  for (const auto& shape : gemm_grid()) compare(core::GemmOp{}, gemm_space, shape);
  for (const auto& shape : conv_grid()) compare(core::ConvOp{}, conv_space, shape);
  for (const auto& shape : batched_grid()) compare(core::BatchedGemmOp{}, batched_space, shape);
}

/// The probe's chunk split and the level its walk stops at for `cap`: the
/// leaf rule (stride[leaf] ≥ 4·step) clamped to the split, as
/// rank_strided_probe applies it.
template <typename Op>
std::pair<std::size_t, std::size_t> probe_leaf_and_split(const search::SearchProblem<Op>& problem,
                                                         std::size_t cap) {
  const tuning::ConstraintSet cs = core::OperationTraits<Op>::prefix_constraints(
      *problem.shape, *problem.device, *problem.space);
  const search::WalkChunkPlan plan =
      search::plan_legal_walk(problem.space->domains(), cs.empty() ? nullptr : &cs);
  const double step = static_cast<double>(problem.space->size()) / static_cast<double>(cap);
  return {std::min(search::detail::probe_leaf_level(plan.tables.stride, step), plan.split),
          plan.split};
}

/// A conv space of ~62k points whose lowest dimension has four values, so a
/// cap of |X̂| (step 1) puts the probe's leaf at level 1.
struct LeafConvSpace : tuning::ConvSearchSpace {
  LeafConvSpace() {
    domains_ = {{"tk", {1, 2, 4, 8}}, {"tp", {1, 2}},    {"tq", {1, 2, 4}}, {"tn", {2, 4}},
                {"bk", {16, 32, 64, 128}}, {"bp", {1, 2, 4}}, {"bq", {1, 2, 4}},
                {"bn", {4, 8, 16}}, {"u", {4, 8}},     {"cl", {1, 4}},    {"cg", {1, 4, 16}}};
  }
};

/// A GEMM space whose every point loads 8 elements per vector: no f64 point
/// is legal, and no seed-grid point encodes.
struct WideVectorGemmSpace : tuning::GemmSearchSpace {
  WideVectorGemmSpace() {
    for (auto& d : domains_) {
      if (d.name == "vec") d.values = {8};
    }
  }
};

TEST(RankStridedProbe, WalkedPicksMatchReferenceProbe) {
  // The probe reaches its stride picks through the pruned prefix walk: a
  // leaf's first pick is found by inverting ⌊i·step⌋, its picks run to the
  // leaf's end, and only the dimensions below the leaf are decoded and
  // checked. Against the generate-and-test reference, which validates every
  // pick, candidates (stride order), order, score bits and the
  // visited/legal/scored accounting must all match at every leaf level the
  // rule can choose: level 0 never (stride[0] = 1 < 4·step for any step ≥
  // 1), level 1 at step 1, each level up to the chunk split, and the split
  // itself once the rule's level lies above it.
  const gpusim::DeviceDescriptor& dev = gpusim::tesla_p100();
  const auto compare = [&](const auto& problem, std::size_t cap, const std::string& label) {
    search::SearchConfig cfg;
    cfg.max_candidates = cap;
    const auto truth = reference::reference_probe(problem, cfg, kUnlimited);
    const auto fast = search::rank_strided_probe(problem, cfg, kUnlimited);
    EXPECT_EQ(fast.visited, truth.visited) << label;
    EXPECT_EQ(fast.legal, truth.legal) << label;
    EXPECT_EQ(fast.scored, truth.scored) << label;
    EXPECT_LE(fast.checked, fast.visited) << label;
    EXPECT_GE(fast.checked, fast.legal) << label;
    EXPECT_EQ(fast.candidates, truth.candidates) << label;
    EXPECT_EQ(fast.order, truth.order) << label;
    EXPECT_EQ(best_first(fast), best_first(truth)) << label;
    return fast;
  };
  const auto problem_for = [&](auto op_tag, const auto& space, const auto& shape) {
    search::SearchProblem<std::decay_t<decltype(op_tag)>> problem;
    problem.shape = &shape;
    problem.device = &dev;
    problem.space = &space;
    problem.model = &shared_model();
    return problem;
  };

  // The production cap on three Table 5 convs: the walk stops below the
  // chunk split, and the picks under rejected prefixes are never checked.
  const tuning::ConvSearchSpace conv_space;
  const std::size_t conv_cap =
      core::OperationTraits<core::ConvOp>::default_search().max_candidates;
  for (const auto& shape : {codegen::ConvShape::from_npq(16, 79, 341, 32, 1, 5, 20),
                            codegen::ConvShape::from_npq(16, 14, 14, 48, 512, 5, 5),
                            codegen::ConvShape::from_npq(16, 256, 19, 87, 128, 5, 5)}) {
    const auto problem = problem_for(core::ConvOp{}, conv_space, shape);
    const auto [leaf, split] = probe_leaf_and_split(problem, conv_cap);
    EXPECT_GT(leaf, 0u);
    EXPECT_LT(leaf, split);
    const auto probe = compare(problem, conv_cap, shape.to_string() + " production cap");
    EXPECT_LT(probe.checked, probe.visited) << shape.to_string();
  }

  // Every level from 1 to the split. cap = 4·|X̂| / stride[L] makes the
  // step stride[L] / 4, so picks land exactly on leaf boundaries; one pick
  // more (where |X̂| allows it) moves them off the boundaries. Both caps
  // keep the leaf at L.
  const LeafConvSpace leaf_space;
  const auto leaf_shape = codegen::ConvShape::from_npq(8, 28, 28, 64, 64, 3, 3);
  const auto leaf_problem = problem_for(core::ConvOp{}, leaf_space, leaf_shape);
  const std::size_t total = leaf_space.size();
  const auto stride = tuning::flat_strides(leaf_space.domains());
  const std::size_t split = probe_leaf_and_split(leaf_problem, total).second;
  ASSERT_GE(split, 3u);  // some level lies strictly between 1 and the split
  for (std::size_t level = 1; level <= split; ++level) {
    for (const std::size_t more : {0, 1}) {
      const std::size_t cap = 4 * (total / stride[level]) + more;
      if (cap > total) continue;
      const std::string label = "leaf " + std::to_string(level) + " cap " + std::to_string(cap);
      ASSERT_EQ(probe_leaf_and_split(leaf_problem, cap).first, level) << label;
      compare(leaf_problem, cap, label);
    }
  }

  // Leaf rule above the split: the chunks' own ranges are the leaves.
  const auto above = probe_leaf_and_split(leaf_problem, 7);
  ASSERT_EQ(above.first, above.second);
  compare(leaf_problem, 7, "cap 7");

  // A cap ≥ |X̂| on a small space probes every point of it.
  const SeedCoreGemmSpace small_space;
  const auto small_shape = gemm_shape(1024, 1024, 1024);
  const auto small = compare(problem_for(core::GemmOp{}, small_space, small_shape),
                             10 * small_space.size(), "cap above |X̂|");
  EXPECT_EQ(small.visited, small_space.size());
  EXPECT_GT(small.legal, 0u);

  // A cap of 1 probes flat index 0 alone. For conv that point's 8-thread
  // block is illegal, so the candidates are exactly the seed grid.
  const auto conv_shape = codegen::ConvShape::from_npq(8, 54, 54, 64, 64, 3, 3);
  const auto one = compare(problem_for(core::ConvOp{}, conv_space, conv_shape), 1, "conv cap 1");
  EXPECT_EQ(one.visited, 1u);
  EXPECT_EQ(one.legal, 0u);
  EXPECT_GT(one.scored, 0u);
  const tuning::GemmSearchSpace gemm_space;
  compare(problem_for(core::GemmOp{}, gemm_space, small_shape), 1, "gemm cap 1");

  // No legal point at all: the walk prunes the whole space, and the seed
  // grid re-append adds nothing.
  const WideVectorGemmSpace wide_space;
  auto f64_shape = gemm_shape(512, 512, 512);
  f64_shape.dtype = gpusim::DataType::F64;
  const auto none =
      compare(problem_for(core::GemmOp{}, wide_space, f64_shape), 20000, "no legal point");
  EXPECT_EQ(none.legal, 0u);
  EXPECT_EQ(none.checked, 0u);
  EXPECT_TRUE(none.candidates.empty());
  EXPECT_TRUE(none.order.empty());
}

TEST(RankLegalSpace, RowMemoMatchesReference) {
  // Both rankings score each distinct feature row once per slice and give
  // that score to every point with the row. Implicit-GEMM featurization maps
  // many conv tunings to one row, so on the production conv space at the
  // op's own cap the model must run fewer rows than points scored, while
  // both rankings still match their generate-and-test references bit for
  // bit over every scored point (k = all). A memo key that confused two rows
  // would hand one of them the other's score. GEMM's legal rows are all
  // distinct, so there the model runs one row per scored point.
  const gpusim::DeviceDescriptor& dev = gpusim::tesla_p100();
  const tuning::ConvSearchSpace conv_space;
  const search::SearchConfig conv_cfg = core::OperationTraits<core::ConvOp>::default_search();
  for (const auto& shape : conv_grid()) {
    search::SearchProblem<core::ConvOp> problem;
    problem.shape = &shape;
    problem.device = &dev;
    problem.space = &conv_space;
    problem.model = &shared_model();
    const std::string label = shape.to_string();
    const auto dense_truth = reference::reference_rank(problem, conv_cfg, kUnlimited);
    const auto dense = search::rank_legal_space(problem, conv_cfg, kUnlimited);
    EXPECT_EQ(dense.visited, dense_truth.visited) << label;
    EXPECT_EQ(dense.legal, dense_truth.legal) << label;
    EXPECT_EQ(dense.scored, dense_truth.scored) << label;
    ASSERT_EQ(best_first(dense), best_first(dense_truth)) << label;
    EXPECT_GT(dense.model_rows, 0u) << label;
    EXPECT_LT(dense.model_rows, dense.scored) << label;

    const auto truth = reference::reference_probe(problem, conv_cfg, kUnlimited);
    const auto probe = search::rank_strided_probe(problem, conv_cfg, kUnlimited);
    EXPECT_EQ(probe.visited, truth.visited) << label;
    EXPECT_EQ(probe.legal, truth.legal) << label;
    EXPECT_EQ(probe.scored, truth.scored) << label;
    ASSERT_EQ(probe.candidates, truth.candidates) << label;
    EXPECT_EQ(probe.order, truth.order) << label;
    ASSERT_EQ(first_difference(best_first(probe), best_first(truth)), truth.order.size()) << label;
    EXPECT_GT(probe.model_rows, 0u) << label;
    EXPECT_LT(probe.model_rows, probe.scored) << label;
  }

  const tuning::GemmSearchSpace gemm_space;
  search::SearchConfig gemm_cfg;
  gemm_cfg.max_candidates = 20000;
  for (const auto& shape : gemm_grid()) {
    search::SearchProblem<core::GemmOp> problem;
    problem.shape = &shape;
    problem.device = &dev;
    problem.space = &gemm_space;
    problem.model = &shared_model();
    const std::string label = shape.to_string();
    const auto dense = search::rank_legal_space(problem, gemm_cfg, 1);
    EXPECT_EQ(dense.model_rows, dense.scored) << label;
    const auto probe = search::rank_strided_probe(problem, gemm_cfg, 1);
    EXPECT_EQ(probe.model_rows, probe.scored) << label;
  }
}

TEST(RankLegalSpace, PresetCancelScoresNothing) {
  // The ranking polls SearchConfig::cancel before each walk chunk, each
  // enumeration chunk and each scoring slice: a flag set before the call
  // skips them all, dense or capped.
  const gpusim::DeviceDescriptor& dev = gpusim::tesla_p100();
  const tuning::GemmSearchSpace space;
  const auto shape = gemm_shape(512, 512, 512);
  search::SearchProblem<core::GemmOp> problem;
  problem.shape = &shape;
  problem.device = &dev;
  problem.space = &space;
  problem.model = &shared_model();
  const std::atomic<bool> cancel{true};
  for (const std::size_t cap : {std::size_t{0}, std::size_t{20000}}) {
    search::SearchConfig cfg;
    cfg.max_candidates = cap;
    cfg.cancel = &cancel;
    const auto ranked = search::rank_legal_space(problem, cfg, 64);
    EXPECT_EQ(ranked.scored, 0u) << "cap " << cap;
    EXPECT_EQ(ranked.legal, 0u) << "cap " << cap;
    EXPECT_TRUE(ranked.candidates.empty()) << "cap " << cap;
  }
}

}  // namespace
}  // namespace isaac
