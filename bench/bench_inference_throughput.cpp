// Rank-throughput gate for the §6 runtime-inference claims: the regression
// model ranks a whole legal space "very quickly, in parallel", and the
// ranking pipeline stays exact while doing it. Per operation it measures
// candidates scored per second through the allocation-free pipeline vs the
// generate-and-test reference ranking of tests/support/reference_rank.hpp
// (with ordering agreement over the whole best-first sequence between the
// two), the pruned walk vs the generate-and-test sweep as enumeration
// engines (the timing ratio, and the work ratio: X̂ points the sweep
// validates per point the walk emits), the points scored per row the MLP ran
// (the ranking's row memo: implicit-GEMM conv tunings share rows), the
// strided probe's picks per pick it checked point by point (the rest lay
// under prefixes its walk rejected whole), cold
// `select()` p50/p99, per-chunk scoring-time flatness (an
// allocations-per-candidate proxy: chunks after the first cost the same
// when nothing allocates), and the blocked GEMM's speedup over
// gemm_reference on the MLP-shaped case with the micro-kernel variant
// (`gemm_kernel`: sse2, avx2 or avx512) this CPU ran it on. One JSON line
// per op plus a summary line on stdout, mirrored to
// BENCH_rank_throughput.json; CI asserts on the lines.
//
// Usage: bench_inference_throughput [--telemetry_dump[=path]]
//   --telemetry_dump enables metrics + tracing for the run and writes the
//   JSON snapshot afterwards (default telemetry.json; "stderr" writes to
//   stderr, never stdout, which carries the BENCH lines).
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "codegen/gemm.hpp"
#include "common/cpu_isa.hpp"
#include "common/page_allocator.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/isaac.hpp"
#include "gpusim/device.hpp"
#include "gpusim/simulator.hpp"
#include "linalg/blas.hpp"
#include "mlp/regressor.hpp"
#include "search/model_topk.hpp"
#include "support/reference_rank.hpp"
#include "telemetry/telemetry.hpp"
#include "tuning/collector.hpp"
#include "tuning/dataset.hpp"
#include "tuning/feature_batch.hpp"

namespace {

using namespace isaac;

const mlp::Regressor& model() {
  static const mlp::Regressor m = [] {
    gpusim::Simulator sim(gpusim::tesla_p100(), 0.03, 9);
    tuning::CollectorConfig cfg;
    cfg.num_samples = 1500;
    cfg.seed = 9;
    const auto report = tuning::collect_gemm(sim, cfg);
    mlp::TrainConfig tc;
    tc.net.hidden = {64, 128, 64};
    tc.epochs = 6;
    return mlp::train(report.dataset, tc);
  }();
  return m;
}

codegen::GemmShape bench_shape() {
  codegen::GemmShape s;
  s.m = 2560;
  s.n = 32;
  s.k = 2560;
  return s;
}

// ---------------------------------------------------------- rank throughput --

/// Per-op outcome of the rank-throughput bench, so the summary (and CI) can
/// gate on the weakest op instead of just the last one printed.
struct RankThroughputResult {
  double agreement = 0.0;     ///< top-k ordering agreement vs reference_rank
  double enum_speedup = 0.0;  ///< pruned-walk enumeration vs generate-and-test
  double enum_work_ratio = 0.0;  ///< X̂ points validated by the sweep per walk point
  double score_row_ratio = 0.0;  ///< points scored per row the MLP ran
  double probe_check_ratio = 0.0;  ///< probe picks visited per pick checked
  bool walk_match = true;     ///< walk survivor list == sweep survivor list
};

template <typename Op>
RankThroughputResult rank_throughput_op(
    const char* opname, const typename core::OperationTraits<Op>::Shape& rank_shape,
    const typename core::OperationTraits<Op>::Shape& enum_shape,
    const std::vector<typename core::OperationTraits<Op>::Shape>& cold_shapes,
    std::size_t max_candidates, const mlp::Regressor& m, std::string* json_sink) {
  using Clock = std::chrono::steady_clock;
  const auto secs = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const auto& dev = gpusim::tesla_p100();
  const typename core::OperationTraits<Op>::SearchSpace space;
  search::SearchProblem<Op> problem;
  problem.shape = &rank_shape;
  problem.device = &dev;
  problem.space = &space;
  problem.model = &m;
  search::SearchConfig cfg;
  cfg.max_candidates = max_candidates;
  constexpr std::size_t kTopK = 100;

  // Cold pass: grows the thread-local arenas.
  auto t0 = Clock::now();
  const auto first = search::rank_legal_space(problem, cfg, kTopK);
  const double cold_s = secs(t0);

  // Steady state: what a tuning pass / cold dispatch actually costs. The
  // ranking keeps only its k winners; throughput counts every point scored.
  constexpr int kReps = 3;
  t0 = Clock::now();
  std::size_t scored = 0;
  search::RankedCandidates<Op> fast;
  for (int i = 0; i < kReps; ++i) {
    fast = search::rank_legal_space(problem, cfg, kTopK);
    scored += fast.scored;
  }
  const double warm_s = secs(t0);

  // Generate-and-test reference on the same machine/thread count, ranked in
  // full, and ordering agreement between the two pipelines over the whole
  // best-first sequence — every scored point, choice and score bits (must
  // be 1.0).
  constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
  t0 = Clock::now();
  const auto legacy = reference::reference_rank(problem, cfg, kAll);
  const double legacy_s = secs(t0);
  const auto full_rank = search::rank_legal_space(problem, cfg, kAll);
  std::size_t agree = 0;
  const std::size_t k = std::min(full_rank.order.size(), legacy.order.size());
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t a = full_rank.order[i];
    const std::size_t b = legacy.order[i];
    if (full_rank.candidates[a] == legacy.candidates[b] &&
        std::bit_cast<std::uint64_t>(full_rank.scores[a]) ==
            std::bit_cast<std::uint64_t>(legacy.scores[b])) {
      ++agree;
    }
  }
  const double agreement =
      (full_rank.order.size() == legacy.candidates.size() && full_rank.scored == fast.scored &&
       k > 0)
          ? static_cast<double>(agree) / static_cast<double>(k)
          : 0.0;

  // Allocations-per-candidate proxy: re-score the reference's scored set
  // chunk by chunk (reusing one chunk-sized staging batch) and compare
  // per-chunk times. A pipeline that allocates per candidate/chunk shows a
  // fat first chunk and a long tail; an allocation-free one is flat.
  std::vector<double> chunk_us;
  {
    tuning::FeatureBatch full(m.num_features(), legacy.candidates.size());
    ThreadPool::global().parallel_for_each(legacy.candidates.size(), [&](std::size_t i) {
      problem.featurize_into(problem.space->decode(legacy.candidates[i]), full.row(i));
    });
    tuning::FeatureBatch staging(m.num_features());
    const std::size_t chunk = cfg.batch;
    for (std::size_t begin = 0; begin < full.rows(); begin += chunk) {
      const std::size_t end = std::min(full.rows(), begin + chunk);
      staging.resize(end - begin);
      std::copy(full.row(begin), full.row(begin) + (end - begin) * full.arity(),
                staging.data());
      const auto c0 = Clock::now();
      const auto s = m.predict_gflops_chunked(staging, 0);
      chunk_us.push_back(secs(c0) * 1e6);
    }
  }

  // Enumeration engines head-to-head on `enum_shape`: the generate-and-test
  // flat-range sweep vs the constraint-propagating pruned walk that
  // rank_legal_space enumerates through — same thread pool, same legality
  // gate, survivor lists compared exactly. Seven timed reps of each engine,
  // interleaved so both sides sample the same machine-noise window; the
  // engines are deterministic, so the per-side minimum is the measurement
  // least polluted by noise.
  search::SearchProblem<Op> enum_problem = problem;
  enum_problem.shape = &enum_shape;
  double enum_sweep_s = 0.0;
  double enum_walk_s = 0.0;
  std::vector<std::uint64_t> sweep;
  PageVector<std::uint64_t> walked;
  std::size_t walk_emitted = 0;
  constexpr int kEnumReps = 7;
  for (int rep = 0; rep < kEnumReps; ++rep) {
    t0 = Clock::now();
    sweep = reference::sweep_legal(enum_problem);
    const double sweep_s = secs(t0);
    if (rep == 0 || sweep_s < enum_sweep_s) enum_sweep_s = sweep_s;

    t0 = Clock::now();
    walked = search::detail::enumerate_legal(enum_problem, &walk_emitted);
    const double walk_s = secs(t0);
    if (rep == 0 || walk_s < enum_walk_s) enum_walk_s = walk_s;
  }
  const bool walk_match = std::equal(walked.begin(), walked.end(), sweep.begin(), sweep.end());

  // The strided probe a cold select runs on the rank shape, at the cap
  // core::predict() resolves (the op's max_candidates, or 8192 for ops that
  // rank densely). Deterministic: visited is the cap, checked the picks the
  // walk did not reject with their prefix.
  search::SearchConfig probe_cfg;
  probe_cfg.max_candidates = max_candidates > 0 ? max_candidates : 8192;
  const auto probe = search::rank_strided_probe(problem, probe_cfg, 1);

  // Cold select() latency: fresh context, every shape a cache miss.
  core::ContextOptions opts;
  opts.search.budget = 10;
  opts.search.reeval_reps = 3;
  opts.search.max_candidates = 8000;
  opts.noise_sigma = 0.0;
  core::Context ctx(dev, opts);
  ctx.set_model(m);
  std::vector<double> select_us;
  select_us.reserve(cold_shapes.size());
  for (const auto& shape : cold_shapes) {
    const auto s0 = Clock::now();
    ctx.select<Op>(shape);
    select_us.push_back(secs(s0) * 1e6);
    ctx.drain_background();  // keep refinement out of the next timed select
  }

  RankThroughputResult result;
  result.agreement = agreement;
  result.enum_speedup = enum_walk_s > 0.0 ? enum_sweep_s / enum_walk_s : 0.0;
  // The sweep validates every point of X̂; the walk validates only the points
  // its prefix constraints let through. Both counts are deterministic.
  result.enum_work_ratio =
      walk_emitted > 0
          ? static_cast<double>(enum_problem.space->size()) / static_cast<double>(walk_emitted)
          : 0.0;
  result.walk_match = walk_match;
  // Deterministic too: the ranking runs the MLP once per distinct feature row.
  result.score_row_ratio =
      fast.model_rows > 0
          ? static_cast<double>(fast.scored) / static_cast<double>(fast.model_rows)
          : 0.0;
  result.probe_check_ratio =
      probe.checked > 0
          ? static_cast<double>(probe.visited) / static_cast<double>(probe.checked)
          : 0.0;

  char line[1024];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"rank_throughput\",\"op\":\"%s\",\"space\":%zu,\"candidates\":%zu,"
      "\"cands_per_sec\":%.0f,\"cold_cands_per_sec\":%.0f,\"legacy_cands_per_sec\":%.0f,"
      "\"speedup_vs_legacy\":%.2f,\"ordering_agreement\":%.3f,"
      "\"walk_points\":%zu,\"enum_sweep_s\":%.3f,\"enum_pruned_s\":%.3f,"
      "\"walk_emitted\":%zu,\"enum_speedup\":%.2f,\"enum_work_ratio\":%.2f,"
      "\"walk_match\":%s,\"model_rows\":%zu,\"score_row_ratio\":%.2f,"
      "\"probe_visited\":%zu,\"probe_checked\":%zu,\"probe_check_ratio\":%.2f,"
      "\"p50_select_us\":%.1f,\"p99_select_us\":%.1f,"
      "\"chunk_us_first\":%.1f,\"chunk_us_p50\":%.1f,\"chunk_us_max\":%.1f}\n",
      opname, space.size(), fast.scored,
      static_cast<double>(scored) / warm_s,
      static_cast<double>(first.scored) / cold_s,
      static_cast<double>(legacy.candidates.size()) / legacy_s,
      (static_cast<double>(scored) / warm_s) /
          (static_cast<double>(legacy.candidates.size()) / legacy_s),
      agreement, walked.size(), enum_sweep_s, enum_walk_s, walk_emitted, result.enum_speedup,
      result.enum_work_ratio,
      walk_match ? "true" : "false", fast.model_rows, result.score_row_ratio,
      probe.visited, probe.checked, result.probe_check_ratio,
      stats::percentile(select_us, 0.50),
      stats::percentile(select_us, 0.99), chunk_us.front(),
      stats::percentile(chunk_us, 0.50),
      *std::max_element(chunk_us.begin(), chunk_us.end()));
  std::fputs(line, stdout);
  std::fflush(stdout);
  if (json_sink) json_sink->append(line);
  return result;
}

int run_rank_throughput() {
  const auto& m = model();

  // The MLP-regime GEMM the ranking pipeline actually runs (chunk × features
  // through the 64-128-64 stack): blocked kernel vs the naive reference.
  double gemm_speedup = 0.0;
  {
    using Clock = std::chrono::steady_clock;
    Rng rng(11);
    linalg::Matrix a(2048, 64), b(64, 128), c1(2048, 128), c2(2048, 128);
    a.randomize_uniform(rng, -1.0f, 1.0f);
    b.randomize_uniform(rng, -1.0f, 1.0f);
    linalg::gemm(linalg::Trans::No, linalg::Trans::No, 1.0f, a, b, 0.0f, c1);  // warm packs
    constexpr int kReps = 20;
    auto t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      linalg::gemm(linalg::Trans::No, linalg::Trans::No, 1.0f, a, b, 0.0f, c1);
    }
    const double blocked_s = std::chrono::duration<double>(Clock::now() - t0).count();
    t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      linalg::gemm_reference(linalg::Trans::No, linalg::Trans::No, 1.0f, a, b, 0.0f, c2);
    }
    const double reference_s = std::chrono::duration<double>(Clock::now() - t0).count();
    gemm_speedup = reference_s / blocked_s;
  }

  std::vector<codegen::GemmShape> gemm_cold;
  for (const std::int64_t base : {64, 128, 256, 512, 768, 1024}) {
    for (const std::int64_t n : {16, 133, 512}) {
      codegen::GemmShape s;
      s.m = base;
      s.n = n;
      s.k = base + n;
      gemm_cold.push_back(s);
    }
  }
  std::vector<codegen::ConvShape> conv_cold;
  for (const std::int64_t hw : {7, 14, 28, 54}) {
    for (const std::int64_t c : {64, 128, 256}) {
      conv_cold.push_back(codegen::ConvShape::from_npq(8, hw, hw, c, c, 3, 3));
    }
  }
  std::vector<codegen::BatchedGemmShape> bgemm_cold;
  for (const std::int64_t batch : {4, 16, 64}) {
    for (const std::int64_t mm : {64, 128, 256, 512}) {
      codegen::BatchedGemmShape s;
      s.batch = batch;
      s.gemm.m = mm;
      s.gemm.n = 32;
      s.gemm.k = mm + batch;
      bgemm_cold.push_back(s);
    }
  }

  codegen::GemmShape gemm_rank = bench_shape();  // 2560×32×2560, ranked densely
  auto conv_rank = codegen::ConvShape::from_npq(8, 54, 54, 64, 64, 3, 3);
  codegen::BatchedGemmShape bgemm_rank;
  bgemm_rank.batch = 16;
  bgemm_rank.gemm.m = 512;
  bgemm_rank.gemm.n = 64;
  bgemm_rank.gemm.k = 512;

  // The enumeration head-to-head's shapes: dtype, layout and filter geometry
  // kept, every other dimension blown up so the shape-dependent legality
  // checks (KG ≤ K, U·KL ≤ ⌈K/KG⌉, output-extent tiles, C·R·S reduction
  // depth) pass whenever they can — the walk then wins on structural
  // pruning alone, not on a legal set the real shape happens to shrink.
  codegen::GemmShape gemm_enum = gemm_rank;
  gemm_enum.m = gemm_enum.n = gemm_enum.k = std::int64_t{1} << 30;
  codegen::ConvShape conv_enum = conv_rank;
  conv_enum.n = conv_enum.c = conv_enum.k = std::int64_t{1} << 20;
  conv_enum.h = conv_enum.w = std::int64_t{1} << 20;
  codegen::BatchedGemmShape bgemm_enum = bgemm_rank;
  bgemm_enum.batch = 1;
  bgemm_enum.gemm.m = bgemm_enum.gemm.n = bgemm_enum.gemm.k = std::int64_t{1} << 30;

  std::string json;
  const auto gemm_res = rank_throughput_op<core::GemmOp>("gemm", gemm_rank, gemm_enum,
                                                         gemm_cold, 0, m, &json);
  const auto conv_res = rank_throughput_op<core::ConvOp>("conv", conv_rank, conv_enum,
                                                         conv_cold, 200000, m, &json);
  const auto bgemm_res = rank_throughput_op<core::BatchedGemmOp>(
      "bgemm", bgemm_rank, bgemm_enum, bgemm_cold, 0, m, &json);
  const double min_agreement =
      std::min({gemm_res.agreement, conv_res.agreement, bgemm_res.agreement});
  const bool all_match = gemm_res.walk_match && conv_res.walk_match && bgemm_res.walk_match;

  char line[512];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"rank_throughput\",\"op\":\"summary\",\"gemm_speedup_vs_reference\":%.2f,"
      "\"min_ordering_agreement\":%.3f,\"conv_enum_speedup\":%.2f,"
      "\"min_enum_speedup\":%.2f,\"conv_enum_work_ratio\":%.2f,"
      "\"min_enum_work_ratio\":%.2f,\"conv_score_row_ratio\":%.2f,"
      "\"conv_probe_check_ratio\":%.2f,\"all_walk_match\":%s,\"gemm_kernel\":\"%s\"}\n",
      gemm_speedup, min_agreement, conv_res.enum_speedup,
      std::min({gemm_res.enum_speedup, conv_res.enum_speedup, bgemm_res.enum_speedup}),
      conv_res.enum_work_ratio,
      std::min({gemm_res.enum_work_ratio, conv_res.enum_work_ratio, bgemm_res.enum_work_ratio}),
      conv_res.score_row_ratio, conv_res.probe_check_ratio, all_match ? "true" : "false",
      cpu::name(cpu::widest()));
  std::fputs(line, stdout);
  std::fflush(stdout);
  json.append(line);

  // Artifact copy for CI upload / trajectory diffing: one JSON object per
  // line, same content as stdout.
  if (std::FILE* f = std::fopen("BENCH_rank_throughput.json", "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string telemetry_path;
  constexpr std::string_view kFlag = "--telemetry_dump";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == kFlag) {
      telemetry_path = "telemetry.json";
    } else if (arg.starts_with(kFlag) && arg[kFlag.size()] == '=') {
      telemetry_path = arg.substr(kFlag.size() + 1);
      if (telemetry_path.empty()) telemetry_path = "telemetry.json";
    } else {
      std::fprintf(stderr, "usage: %s [--telemetry_dump[=path]]\n", argv[0]);
      return 2;
    }
  }
  if (!telemetry_path.empty()) {
    isaac::telemetry::set_enabled(true);
    isaac::telemetry::set_tracing(true);
  }
  const int rc = run_rank_throughput();
  if (!telemetry_path.empty() && !isaac::telemetry::dump_to_file(telemetry_path)) return 1;
  return rc;
}
