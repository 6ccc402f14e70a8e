// bench_paper: the paper's §8 evidence in one run — Figs. 5-11, Tables 1-3
// and 6, the §8.1 deep dive and the §8.3 bounds-checking ablation.
//
// Each figure or table prints its table, then each of its claims as a named
// boolean with the numbers behind it. The last stdout line is one JSON object,
// {"claims": {name: {"holds": bool, ...numbers}}}; BENCH_paper.json at the
// repo root is its committed copy, and CI fails when a verdict moves. The
// program takes no arguments (any argument exits 2) and writes no file.
//
// Absolute TFLOPS come from the device simulator, so only the *shape* of a
// result (who wins, by what factor) is comparable to the paper; every table
// prints the paper's number beside its own. Thresholds come from the paper's
// words, read by one rule: a claimed gain ("~25% win", "2.5-3x", "an order of
// magnitude") holds when the measured gain is at least half the claimed one,
// ratio - 1 >= (paper - 1) / 2, taking the low end of a range; "parity" holds
// within 10%. A claim that does not reproduce prints false, and DESIGN.md
// "Paper claims" says why.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/cublas_sim.hpp"
#include "baselines/cudnn_sim.hpp"
#include "codegen/conv.hpp"
#include "codegen/gemm.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/inference.hpp"
#include "gpusim/device.hpp"
#include "gpusim/simulator.hpp"
#include "mlp/regressor.hpp"
#include "tuning/collector.hpp"
#include "tuning/generative.hpp"
#include "tuning/search_space.hpp"

namespace isaac::bench {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------- claims ----

struct Claim {
  std::string name;
  bool holds;
  std::vector<std::pair<std::string, double>> numbers;
};

std::string number(double v) {
  return std::isfinite(v) ? strings::format("%.4g", v) : "null";
}

class Claims {
 public:
  void add(std::string name, bool holds, std::vector<std::pair<std::string, double>> numbers) {
    std::printf("claim %-36s %s", name.c_str(), holds ? "true " : "false");
    for (const auto& [key, value] : numbers) {
      std::printf("  %s=%s", key.c_str(), number(value).c_str());
    }
    std::printf("\n");
    all_.push_back({std::move(name), holds, std::move(numbers)});
  }

  /// The paper claims ISAAC/baseline = `paper`; holds at half that gain.
  void gain(std::string name, double ratio, double paper) {
    const double threshold = 1.0 + (paper - 1.0) / 2.0;
    add(std::move(name), ratio >= threshold,
        {{"ratio", ratio}, {"paper", paper}, {"threshold", threshold}});
  }

  /// The paper claims parity: every ratio within 10% of 1.
  void parity(std::string name, const std::vector<double>& ratios) {
    bool holds = !ratios.empty();
    double lo = kNaN, hi = kNaN;
    for (double r : ratios) {
      holds = holds && r >= 0.9 && r <= 1.1;
      lo = std::isnan(lo) ? r : std::min(lo, r);
      hi = std::isnan(hi) ? r : std::max(hi, r);
    }
    add(std::move(name), holds, {{"min_ratio", lo}, {"max_ratio", hi}});
  }

  void print_json() const {
    std::printf("{\"claims\": {");
    for (std::size_t i = 0; i < all_.size(); ++i) {
      std::printf("%s\"%s\": {\"holds\": %s", i ? ", " : "", all_[i].name.c_str(),
                  all_[i].holds ? "true" : "false");
      for (const auto& [key, value] : all_[i].numbers) {
        std::printf(", \"%s\": %s", key.c_str(), number(value).c_str());
      }
      std::printf("}");
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Claim> all_;
};

/// NaN for a missing or zero baseline, so a claim over it fails.
double ratio(double isaac, double baseline) { return baseline > 0 ? isaac / baseline : kNaN; }

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return kNaN;
  double log_sum = 0.0;
  for (double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

// ---------------------------------------------------------------- tasks -----

struct GemmTask {
  std::string group;  // LINPACK / DeepBench [F] / DeepBench [B] / ICA / Blocked SVD
  std::string label;  // e.g. "N=16"
  codegen::GemmShape shape;
};

codegen::GemmShape gemm(std::int64_t m, std::int64_t n, std::int64_t k, bool ta, bool tb,
                        gpusim::DataType dt = gpusim::DataType::F32) {
  codegen::GemmShape s;
  s.m = m;
  s.n = n;
  s.k = k;
  s.trans_a = ta;
  s.trans_b = tb;
  s.dtype = dt;
  return s;
}

/// Table 4 task list (fp32 by default; Fig. 8 overrides the dtypes).
std::vector<GemmTask> table4_gemm_tasks(gpusim::DataType dt_square = gpusim::DataType::F32,
                                        gpusim::DataType dt_db = gpusim::DataType::F32,
                                        gpusim::DataType dt_ica = gpusim::DataType::F32,
                                        gpusim::DataType dt_svd = gpusim::DataType::F32) {
  std::vector<GemmTask> tasks;
  // LINPACK: square, (N, T).
  for (std::int64_t s : {512, 1024, 2048}) {
    tasks.push_back({"LINPACK", strings::format("M=N=K=%lld", static_cast<long long>(s)),
                     gemm(s, s, s, false, true, dt_square)});
  }
  // DeepBench forward: (N, N), M=K=2560, N sweeps the batch size.
  for (std::int64_t n : {16, 32, 64, 128}) {
    tasks.push_back({"DeepBench [F]", strings::format("N=%lld", static_cast<long long>(n)),
                     gemm(2560, n, 2560, false, false, dt_db)});
  }
  // DeepBench backward: (T, N).
  for (std::int64_t n : {16, 32, 64, 128}) {
    tasks.push_back({"DeepBench [B]", strings::format("N=%lld", static_cast<long long>(n)),
                     gemm(2560, n, 2560, true, false, dt_db)});
  }
  // ICA: M=N=channels, K=60000, (N, T). Table 4 lists 32/64/256 channels.
  for (std::int64_t c : {32, 64, 256}) {
    tasks.push_back({"ICA", strings::format("M=N=%lld", static_cast<long long>(c)),
                     gemm(c, c, 60000, false, true, dt_ica)});
  }
  // Blocked SVD: K=32 panels, (N, T).
  for (std::int64_t s : {896, 2048, 4096}) {
    tasks.push_back({"Blocked SVD", strings::format("M=N=%lld", static_cast<long long>(s)),
                     gemm(s, s, 32, false, true, dt_svd)});
  }
  return tasks;
}

struct ConvTask {
  std::string group;  // DeepSpeech / OCR / ...
  std::string label;  // Conv1..Conv14
  codegen::ConvShape shape;
};

/// Table 5 task list (Conv1..Conv14).
std::vector<ConvTask> table5_conv_tasks(gpusim::DataType dtype = gpusim::DataType::F32) {
  struct Row {
    const char* group;
    int n, p, q, k, c, r, s;
  };
  // Exactly Table 5 of the paper.
  const Row rows[] = {
      {"DeepSpeech", 16, 79, 341, 32, 1, 5, 20},
      {"DeepSpeech", 16, 38, 166, 32, 32, 5, 10},
      {"OCR", 16, 24, 240, 32, 16, 3, 3},
      {"OCR", 16, 12, 120, 64, 32, 3, 3},
      {"Face Recognition", 8, 54, 54, 64, 64, 3, 3},
      {"Face Recognition", 8, 27, 27, 128, 128, 3, 3},
      {"Face Recognition", 16, 14, 14, 48, 512, 5, 5},
      {"Face Recognition", 16, 7, 7, 128, 832, 5, 5},
      {"Vision", 8, 112, 112, 128, 64, 3, 3},
      {"Vision", 8, 56, 56, 256, 128, 3, 3},
      {"Speaker ID", 16, 128, 39, 174, 64, 5, 5},
      {"Speaker ID", 16, 256, 19, 87, 128, 5, 5},
      {"ResNET", 16, 7, 7, 512, 512, 3, 3},
      {"ResNET", 16, 7, 7, 2048, 1024, 1, 1},
  };
  std::vector<ConvTask> tasks;
  int index = 1;
  for (const Row& r : rows) {
    tasks.push_back({r.group, strings::format("Conv%d", index++),
                     codegen::ConvShape::from_npq(r.n, r.p, r.q, r.k, r.c, r.r, r.s, dtype)});
  }
  return tasks;
}

// ---------------------------------------------------------------- models ----

// Simulation and training seed of the GEMM/CONV figures, §8.1 and Table 6.
constexpr std::uint64_t kSeed = 0x15AAC;

/// The GEMM ("gemm") or CONV ("conv") performance model for `dev`, trained on
/// that op's collected data on first use and kept for the rest of the run.
const mlp::Regressor& model(const std::string& kind, const gpusim::DeviceDescriptor& dev) {
  static std::map<std::string, mlp::Regressor> models;
  const std::string key = kind + "/" + dev.name;
  if (const auto it = models.find(key); it != models.end()) return it->second;

  std::fprintf(stderr, "[bench] training %s model for %s...\n", kind.c_str(), dev.name.c_str());
  gpusim::Simulator sim(dev, 0.03, kSeed);
  tuning::CollectorConfig cfg;
  cfg.num_samples = 10000;
  cfg.seed = kSeed;
  const auto report =
      kind == "conv" ? tuning::collect_conv(sim, cfg) : tuning::collect_gemm(sim, cfg);

  mlp::TrainConfig tc;
  tc.net.hidden = {64, 128, 64};
  tc.epochs = 12;
  tc.seed = kSeed;
  return models.emplace(key, mlp::train(report.dataset, tc)).first->second;
}

/// Runtime-search settings: re-timing candidates on the simulated device is
/// cheap (microseconds per launch), so re-evaluate generously — the paper's
/// "100 (or more) fastest configurations" — over a subsampled candidate set.
search::SearchConfig bench_inference() {
  search::SearchConfig cfg;
  cfg.budget = 200;
  cfg.keep_top = cfg.budget;
  cfg.reeval_reps = 5;
  cfg.max_candidates = 60000;
  return cfg;
}

// ---------------------------------------------------------------- output ----

/// "x.xx TFLOPS" formatting helper.
std::string tflops(double gflops) { return strings::format("%6.2f", gflops / 1000.0); }

void banner(const std::string& title, const gpusim::DeviceDescriptor& dev) {
  std::printf("=======================================================================\n");
  std::printf("  %s\n", title.c_str());
  std::printf("  device: %s (%s, %.1f SP TFLOPS peak, %.0f GB/s)\n", dev.name.c_str(),
              dev.chip.c_str(), dev.peak_sp_tflops, dev.dram_bandwidth_gbs);
  std::printf("=======================================================================\n");
}

// ------------------------------------------------------- GEMM figures ------

struct GemmRow {
  std::string group, label;
  double isaac = kNaN, cublas = kNaN, best = kNaN;  // GFLOPS; NaN when not run
};

/// Every task through ISAAC's runtime inference and the simulated cuBLAS
/// heuristics (plus the cublasGemmEx "Best Kernel" bypass when asked).
std::vector<GemmRow> gemm_figure(const std::string& title, const gpusim::DeviceDescriptor& dev,
                                 const std::vector<GemmTask>& tasks, bool show_best_kernel) {
  banner(title, dev);
  const auto& perf_model = model("gemm", dev);
  const gpusim::Simulator sim(dev, 0.03, kSeed);
  const baselines::CublasSim cublas(dev);
  const auto inference = bench_inference();

  std::vector<std::string> headers{"group", "task", "dtype", "ISAAC TFLOPS", "cuBLAS TFLOPS"};
  if (show_best_kernel) headers.push_back("Best Kernel TFLOPS");
  headers.push_back("ISAAC/cuBLAS");
  headers.push_back("ISAAC kernel");
  Table table(std::move(headers));

  std::vector<GemmRow> rows;
  for (const auto& task : tasks) {
    GemmRow& out = rows.emplace_back(GemmRow{task.group, task.label});
    core::GemmTuneResult isaac_result;
    try {
      isaac_result = core::tune<core::GemmOp>(task.shape, perf_model, sim, inference);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[bench] %s: tuning failed: %s\n", task.label.c_str(), e.what());
      continue;
    }
    const auto heuristic = cublas.run_heuristic(sim, task.shape);
    out.isaac = isaac_result.best.measured_gflops;
    out.cublas = heuristic.valid ? heuristic.gflops : 0.0;

    std::vector<std::string> row{task.group, task.label, gpusim::dtype_name(task.shape.dtype),
                                 tflops(out.isaac), tflops(out.cublas)};
    if (show_best_kernel) {
      const auto best = cublas.run_best_kernel(sim, task.shape);
      out.best = best.valid ? best.gflops : 0.0;
      row.push_back(tflops(out.best));
    }
    row.push_back(out.cublas > 0 ? Table::fmt_double(out.isaac / out.cublas, 2) + "x" : "-");
    row.push_back(isaac_result.best.tuning.to_string());
    table.add_row(std::move(row));
  }

  table.print(std::cout);
  std::printf("\nNotes: simulated device; compare shapes (who wins, by what factor), not\n"
              "absolute TFLOPS. cuBLAS column = handcrafted-heuristics path%s.\n",
              show_best_kernel ? "; Best Kernel = cublasGemmEx bypass" : "");
  return rows;
}

/// ISAAC / baseline on every row of `group`.
std::vector<double> gemm_ratios(const std::vector<GemmRow>& rows, const std::string& group,
                                double GemmRow::*baseline) {
  std::vector<double> out;
  for (const auto& r : rows) {
    if (r.group == group) out.push_back(ratio(r.isaac, r.*baseline));
  }
  return out;
}

/// ISAAC / baseline on one row; NaN when the row is missing.
double gemm_ratio(const std::vector<GemmRow>& rows, const std::string& group,
                  const std::string& label, double GemmRow::*baseline) {
  for (const auto& r : rows) {
    if (r.group == group && r.label == label) return ratio(r.isaac, r.*baseline);
  }
  return kNaN;
}

// Figure 6: SGEMM on the GTX 980 TI, ISAAC vs cuBLAS heuristics. Paper
// headline shapes: ~25% win at 512^3, parity on large squares, ~80% win on
// DeepBench N=16, order-of-magnitude win on ICA (heuristics mis-select), ~10%
// on Blocked SVD.
void fig6(Claims& claims) {
  const auto rows = gemm_figure("Figure 6 — SGEMM performance on the GTX 980 TI",
                                gpusim::gtx980ti(), table4_gemm_tasks(), false);
  const auto cublas = &GemmRow::cublas;
  claims.gain("fig6_linpack512_win_25pct", gemm_ratio(rows, "LINPACK", "M=N=K=512", cublas),
              1.25);
  claims.parity("fig6_large_square_parity", {gemm_ratio(rows, "LINPACK", "M=N=K=1024", cublas),
                                             gemm_ratio(rows, "LINPACK", "M=N=K=2048", cublas)});
  claims.gain("fig6_deepbench16_win_80pct",
              geomean({gemm_ratio(rows, "DeepBench [F]", "N=16", cublas),
                       gemm_ratio(rows, "DeepBench [B]", "N=16", cublas)}),
              1.8);
  claims.gain("fig6_ica_order_of_magnitude", geomean(gemm_ratios(rows, "ICA", cublas)), 10.0);
  claims.gain("fig6_svd_win_10pct", geomean(gemm_ratios(rows, "Blocked SVD", cublas)), 1.1);
}

// Figure 7: SGEMM on the Tesla P100, ISAAC vs cuBLAS heuristics vs the
// cublasGemmEx "Best Kernel" bypass. Paper headline shapes: parity on LINPACK
// (both ~85% of peak), ~80% win on DeepBench vs best kernel, ~5% on ICA vs
// best kernel (heuristics are 10x off), ~30% on Blocked SVD. Every gain is
// read against the best kernel, and the DeepBench one at N=16, as in Fig. 6.
void fig7(Claims& claims) {
  const auto rows = gemm_figure("Figure 7 — SGEMM performance on the Tesla P100",
                                gpusim::tesla_p100(), table4_gemm_tasks(), true);
  const auto best = &GemmRow::best;
  claims.parity("fig7_linpack_parity", gemm_ratios(rows, "LINPACK", best));
  claims.gain("fig7_deepbench16_win_80pct",
              geomean({gemm_ratio(rows, "DeepBench [F]", "N=16", best),
                       gemm_ratio(rows, "DeepBench [B]", "N=16", best)}),
              1.8);
  claims.gain("fig7_ica_win_5pct", geomean(gemm_ratios(rows, "ICA", best)), 1.05);
  std::vector<double> heuristic_off;
  for (const auto& r : rows) {
    if (r.group == "ICA") heuristic_off.push_back(ratio(r.best, r.cublas));
  }
  claims.gain("fig7_ica_heuristics_10x_off", geomean(heuristic_off), 10.0);
  claims.gain("fig7_svd_win_30pct", geomean(gemm_ratios(rows, "Blocked SVD", best)), 1.3);
}

// Figure 8: H/DGEMM on the Tesla P100. Half precision for LINPACK and
// DeepBench (where fp16 suffices), double precision for ICA and Blocked SVD
// (where fp64 is required), plus double-precision LINPACK rows (the paper
// shows both). Paper headline shapes: ~parity on fp16 LINPACK (cuBLAS has an
// fp16x2 build there), 2.5-3x on fp16 DeepBench (cuBLAS lacks fp16x2 tiles off
// the LINPACK path), +5% LINPACK / +40% ICA / +15% SVD in fp64.
void fig8(Claims& claims) {
  using gpusim::DataType;
  auto tasks = table4_gemm_tasks(/*square=*/DataType::F16, /*deepbench=*/DataType::F16,
                                 /*ica=*/DataType::F64, /*svd=*/DataType::F64);
  for (auto& t : table4_gemm_tasks(DataType::F64, DataType::F16, DataType::F64, DataType::F64)) {
    if (t.group == "LINPACK") {
      t.group = "LINPACK [f64]";
      tasks.push_back(t);
    }
  }
  const auto rows = gemm_figure("Figure 8 — H/DGEMM performance on the Tesla P100",
                                gpusim::tesla_p100(), tasks, true);
  const auto cublas = &GemmRow::cublas;
  claims.parity("fig8_f16_linpack_parity", gemm_ratios(rows, "LINPACK", cublas));
  auto deepbench = gemm_ratios(rows, "DeepBench [F]", cublas);
  for (double r : gemm_ratios(rows, "DeepBench [B]", cublas)) deepbench.push_back(r);
  claims.gain("fig8_f16_deepbench_win_2.5x", geomean(deepbench), 2.5);
  claims.gain("fig8_f64_linpack_win_5pct", geomean(gemm_ratios(rows, "LINPACK [f64]", cublas)),
              1.05);
  claims.gain("fig8_f64_ica_win_40pct", geomean(gemm_ratios(rows, "ICA", cublas)), 1.4);
  claims.gain("fig8_f64_svd_win_15pct", geomean(gemm_ratios(rows, "Blocked SVD", cublas)), 1.15);
}

// ------------------------------------------------------- CONV figures ------

struct ConvRow {
  std::string label;
  double ratio = kNaN;  // ISAAC / cuDNN; NaN when not run
};

/// Table 5's Conv1-14 through ISAAC's runtime inference vs the simulated
/// cuDNN heuristics.
std::vector<ConvRow> conv_figure(const std::string& title, const gpusim::DeviceDescriptor& dev,
                                 gpusim::DataType dtype) {
  banner(title, dev);
  const auto& perf_model = model("conv", dev);
  const gpusim::Simulator sim(dev, 0.03, kSeed);
  const baselines::CudnnSim cudnn(dev);
  auto inference = bench_inference();
  inference.max_candidates = 20000;

  Table table({"group", "task", "NPQ", "CRS", "ISAAC TFLOPS", "cuDNN TFLOPS", "ISAAC/cuDNN",
               "ISAAC kernel"});

  std::vector<ConvRow> rows;
  for (const auto& task : table5_conv_tasks(dtype)) {
    ConvRow& out = rows.emplace_back(ConvRow{task.label});
    core::ConvTuneResult isaac_result;
    try {
      isaac_result = core::tune<core::ConvOp>(task.shape, perf_model, sim, inference);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[bench] %s: tuning failed: %s\n", task.label.c_str(), e.what());
      continue;
    }
    const auto heuristic = cudnn.run_heuristic(sim, task.shape);
    const double isaac_gf = isaac_result.best.measured_gflops;
    const double cudnn_gf = heuristic.valid ? heuristic.gflops : 0.0;
    out.ratio = ratio(isaac_gf, cudnn_gf);

    table.add_row({task.group, task.label, std::to_string(task.shape.npq()),
                   std::to_string(task.shape.crs()), tflops(isaac_gf), tflops(cudnn_gf),
                   cudnn_gf > 0 ? Table::fmt_double(isaac_gf / cudnn_gf, 2) + "x" : "-",
                   isaac_result.best.tuning.to_string()});
  }

  table.print(std::cout);
  std::printf("\nNotes: simulated device; cuDNN column = IMPLICIT_PRECOMP_GEMM heuristics.\n");
  return rows;
}

/// ISAAC / cuDNN on the named rows, geometric mean.
double conv_ratio(const std::vector<ConvRow>& rows, const std::vector<std::string>& labels) {
  std::vector<double> out;
  for (const auto& r : rows) {
    if (std::find(labels.begin(), labels.end(), r.label) != labels.end()) out.push_back(r.ratio);
  }
  return out.size() == labels.size() ? geomean(out) : kNaN;
}

double all_conv_ratio(const std::vector<ConvRow>& rows) {
  std::vector<double> out;
  for (const auto& r : rows) out.push_back(r.ratio);
  return geomean(out);
}

// Figure 9: SCONV on the GTX 980 TI, ISAAC vs cuDNN over Table 5's Conv1-14.
// Paper headline shapes: modest gains on cuDNN's home turf (large NPQ, small
// K: Conv1-3, NPQ >= 92k and K = 32), 1.5-2x on the deep reductions
// Conv7/Conv8, ~10% when NPQ is small but RS > 1 (Conv13).
std::vector<ConvRow> fig9(Claims& claims) {
  auto rows = conv_figure("Figure 9 — SCONV performance on the GTX 980 TI", gpusim::gtx980ti(),
                          gpusim::DataType::F32);
  // "Modest": a gain, but below the 1.5x the paper reports where ISAAC wins.
  const double home = conv_ratio(rows, {"Conv1", "Conv2", "Conv3"});
  claims.add("fig9_home_turf_modest_gain", home >= 1.0 && home < 1.5,
             {{"ratio", home}, {"min", 1.0}, {"below", 1.5}});
  claims.gain("fig9_deep_reduction_win_1.5x", conv_ratio(rows, {"Conv7", "Conv8"}), 1.5);
  claims.gain("fig9_conv13_win_10pct", conv_ratio(rows, {"Conv13"}), 1.1);
  return rows;
}

// Figure 10: SCONV on the Tesla P100. Paper headline shapes: larger gains
// than on Maxwell (cuDNN's kernels/heuristics are tailored to Maxwell) — >5x
// on Conv8, ~70% on Conv13.
void fig10(Claims& claims, const std::vector<ConvRow>& maxwell) {
  const auto rows = conv_figure("Figure 10 — SCONV performance on the Tesla P100",
                                gpusim::tesla_p100(), gpusim::DataType::F32);
  const double pascal_gain = all_conv_ratio(rows);
  const double maxwell_gain = all_conv_ratio(maxwell);
  claims.add("fig10_gains_exceed_maxwell", pascal_gain > maxwell_gain,
             {{"pascal_ratio", pascal_gain}, {"maxwell_ratio", maxwell_gain}});
  claims.gain("fig10_conv8_win_5x", conv_ratio(rows, {"Conv8"}), 5.0);
  claims.gain("fig10_conv13_win_70pct", conv_ratio(rows, {"Conv13"}), 1.7);
}

// Figure 11: HCONV (fp16) on the Tesla P100. Paper headline shape: ISAAC
// almost consistently faster — it emits fp16x2 tiles across the whole input
// space while cuDNN's v6 IMPLICIT_PRECOMP_GEMM kernels do not. "Almost
// consistently" is read as at least 80% of the rows.
void fig11(Claims& claims) {
  const auto rows = conv_figure("Figure 11 — HCONV performance on the Tesla P100",
                                gpusim::tesla_p100(), gpusim::DataType::F16);
  const auto wins = std::count_if(rows.begin(), rows.end(), [](const ConvRow& r) {
    return r.ratio > 1.0;
  });
  const double share = static_cast<double>(wins) / static_cast<double>(rows.size());
  claims.add("fig11_almost_always_faster", share >= 0.8,
             {{"wins", static_cast<double>(wins)},
              {"rows", static_cast<double>(rows.size())},
              {"min_share", 0.8}});
}

// ------------------------------------------------------------ Figure 5 -----

// Figure 5: cross-validation MSE vs training-set size. The paper sweeps
// 1..20 x 10^4 samples with the deepest Table-2 architecture and finds the
// curve flattens around 15 x 10^4 samples (~6 hours of data collection).
// Here the sweep is scaled down to 600..12,000 samples, and each row prints
// the real training-set size beside the paper's MSE at its 10^4-scale point.
void fig5(Claims& claims) {
  constexpr std::uint64_t seed = 0x7AB5;
  constexpr std::size_t scale = 600;
  constexpr std::size_t test_n = 1500;
  const auto& dev = gpusim::tesla_p100();
  banner("Figure 5 — Cross-validation MSE for various dataset sizes", dev);

  const std::vector<std::size_t> sizes{1, 5, 10, 15, 20};
  gpusim::Simulator sim(dev, 0.03, seed);
  tuning::CollectorConfig ccfg;
  ccfg.num_samples = sizes.back() * scale + test_n;
  ccfg.seed = seed;
  auto report = tuning::collect_gemm(sim, ccfg);
  Rng shuffle_rng(seed);
  report.dataset.shuffle(shuffle_rng);
  const auto [test, pool] = report.dataset.split(std::min(test_n, report.dataset.size() / 5));

  Table table({"dataset size", "MSE", "paper MSE (approx)"});
  const char* paper[] = {"0.16", "0.10", "0.075", "0.065", "0.062"};

  std::vector<double> curve;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t n = std::min(sizes[i] * scale, pool.size());
    mlp::TrainConfig cfg;
    cfg.net.hidden = {64, 128, 192, 256, 192, 128, 64};
    cfg.epochs = 8;
    cfg.seed = seed;
    const double mse = mlp::train(pool.take(n), cfg).mse(test);
    curve.push_back(mse);
    table.add_row({std::to_string(n), Table::fmt_double(mse, 3), paper[i]});
  }
  table.print(std::cout);

  // MSE decreases with data, and flattens toward the right of the sweep: the
  // last step gains less than half of the first.
  const double first_drop = curve[0] - curve[1];
  const double last_drop = curve[curve.size() - 2] - curve.back();
  claims.add("fig5_mse_decreases_with_data", curve.front() > curve.back(),
             {{"mse_first", curve.front()}, {"mse_last", curve.back()}});
  claims.add("fig5_mse_flattens", last_drop < 0.5 * (first_drop + 1e-12),
             {{"first_drop", first_drop}, {"last_drop", last_drop}});
}

// --------------------------------------------------------------- §8.1 ------

// §8.1 analysis table: ISAAC vs cuBLAS's best kernel on (M,N,K) =
// (2560, 32, 2560), fp32, Tesla P100 — the deep dive that explains *why*
// input-aware tuning wins on skinny DeepBench batches. Paper: ISAAC picks
// smaller tiles → fewer registers/smem → higher occupancy → better latency
// hiding, and a higher L2 hit rate; cuBLAS's 64-wide N tile assigns threads
// to a non-existent part of C.
void sec81(Claims& claims) {
  const auto& dev = gpusim::tesla_p100();
  banner("Section 8.1 — ISAAC vs cuBLAS best kernel at (2560, 32, 2560)", dev);

  const codegen::GemmShape shape = gemm(2560, 32, 2560, false, false);
  const gpusim::Simulator sim(dev, 0.03, kSeed);
  const auto isaac_result = core::tune<core::GemmOp>(shape, model("gemm", dev), sim,
                                                     bench_inference());
  const auto& it = isaac_result.best.tuning;
  const auto isaac_profile = codegen::analyze(shape, it, dev);
  const auto isaac_perf = sim.evaluate(isaac_profile);

  // The paper's comparator is cuBLAS's best *DeepBench-class* kernel — the
  // 128x64 tile with reduction splitting (its Table: ML=128, NL=64, split 5).
  const baselines::CublasSim cublas(dev);
  const auto kernels = cublas.legal_kernels(shape);
  const auto comparator = std::find_if(kernels.begin(), kernels.end(), [](const auto& k) {
    return k.name == "gemm_128x64_splitK4";
  });
  if (comparator == kernels.end()) {
    throw std::runtime_error("§8.1: comparator gemm_128x64_splitK4 is not legal here");
  }
  const auto& bt = comparator->tuning;
  const auto cublas_profile = cublas.profile(shape, *comparator);
  const auto cublas_perf = sim.evaluate(cublas_profile);

  Table table({"", "ISAAC", "cuBLAS (best kernel)", "paper ISAAC", "paper cuBLAS"});
  auto kb = [](int bytes) { return Table::fmt_double(bytes / 1024.0, 2) + "kB"; };
  auto pct = [](double x) { return Table::fmt_double(100.0 * x, 0) + "%"; };
  table.add_row({"TFLOPS", Table::fmt_double(isaac_perf.achieved_tflops, 2),
                 Table::fmt_double(cublas_perf.achieved_tflops, 2), "3.73", "2.56"});
  table.add_row({"ML", std::to_string(it.ml), std::to_string(bt.ml), "64", "128"});
  table.add_row({"NL", std::to_string(it.nl), std::to_string(bt.nl), "32", "64"});
  table.add_row({"KL*KG (split)", std::to_string(it.kl * it.kg), std::to_string(bt.kl * bt.kg),
                 "4", "5"});
  table.add_row({"Shared Memory", kb(isaac_profile.smem_bytes_per_block),
                 kb(cublas_profile.smem_bytes_per_block), "12.25kB", "12.25kB"});
  table.add_row({"Registers", std::to_string(isaac_profile.regs_per_thread),
                 std::to_string(cublas_profile.regs_per_thread), "72", "120"});
  table.add_row({"Occupancy", pct(isaac_perf.occ.occupancy), pct(cublas_perf.occ.occupancy),
                 "17%", "10%"});
  table.add_row({"L2 hit rate", pct(isaac_perf.l2_hit_rate), pct(cublas_perf.l2_hit_rate),
                 "32%", "24%"});
  table.print(std::cout);

  claims.gain("sec81_beats_best_kernel",
              ratio(isaac_perf.achieved_tflops, cublas_perf.achieved_tflops), 3.73 / 2.56);
  const auto d = [](int x) { return static_cast<double>(x); };
  claims.add("sec81_narrower_n_tile", it.nl < bt.nl,
             {{"isaac_nl", d(it.nl)}, {"cublas_nl", d(bt.nl)}});
  claims.add("sec81_fewer_registers_and_smem",
             isaac_profile.regs_per_thread < cublas_profile.regs_per_thread &&
                 isaac_profile.smem_bytes_per_block <= cublas_profile.smem_bytes_per_block,
             {{"isaac_regs", d(isaac_profile.regs_per_thread)},
              {"cublas_regs", d(cublas_profile.regs_per_thread)},
              {"isaac_smem_bytes", d(isaac_profile.smem_bytes_per_block)},
              {"cublas_smem_bytes", d(cublas_profile.smem_bytes_per_block)}});
  claims.add("sec81_higher_occupancy", isaac_perf.occ.occupancy > cublas_perf.occ.occupancy,
             {{"isaac", isaac_perf.occ.occupancy}, {"cublas", cublas_perf.occ.occupancy}});
  claims.add("sec81_higher_l2_hit_rate", isaac_perf.l2_hit_rate > cublas_perf.l2_hit_rate,
             {{"isaac", isaac_perf.l2_hit_rate}, {"cublas", cublas_perf.l2_hit_rate}});
}

// --------------------------------------------------------------- §8.3 ------

// §8.3 ablation: why PTX. Predicated bounds checking costs ~2% on a kernel
// with ragged tiles, where CUDA-C style branchy checks cost 15-20% — the
// reason the first CUDA-C/OpenCL iteration of ISAAC was deprecated. Padding
// is the third alternative: clean inner loops, but inflated work + copies.
void sec83(Claims& claims) {
  const auto& dev = gpusim::tesla_p100();
  banner("Section 8.3 — Advantages of PTX: bounds-checking overhead", dev);
  const gpusim::Simulator sim(dev, 0.0, 0x83);

  // Ragged shapes across the evaluation regimes (tiles never divide exactly).
  struct Case {
    const char* name;
    std::int64_t m, n, k;
  };
  const std::vector<Case> cases = {
      {"near-LINPACK", 2000, 2000, 2000},
      {"near-DeepBench", 2500, 30, 2500},
      {"tall-skinny", 4000, 100, 500},
  };

  codegen::GemmTuning tuning;
  tuning.ms = 8;
  tuning.ns = 8;
  tuning.ml = 64;
  tuning.nl = 64;
  tuning.u = 8;
  tuning.vec = 4;

  Table table({"shape", "predicated (PTX)", "branchy (CUDA-C)", "padded",
               "branchy overhead", "paper branchy", "padded overhead"});
  bool predication_cheapest = true;
  double min_branchy = kNaN;
  for (const auto& c : cases) {
    const codegen::GemmShape shape = gemm(c.m, c.n, c.k, false, true);
    auto run = [&](gpusim::BoundsMode mode) {
      codegen::GemmTuning t = tuning;
      t.bounds = mode;
      return sim.evaluate(codegen::analyze(shape, t, dev)).seconds;
    };
    const double pred = run(gpusim::BoundsMode::Predicated);
    const double branchy = run(gpusim::BoundsMode::Branchy);
    const double padded = run(gpusim::BoundsMode::Padded);
    predication_cheapest = predication_cheapest && pred < branchy && pred < padded;
    const double branchy_overhead = branchy / pred - 1.0;
    min_branchy = std::isnan(min_branchy) ? branchy_overhead
                                          : std::min(min_branchy, branchy_overhead);

    auto ms = [](double s) { return Table::fmt_double(s * 1e3, 3) + " ms"; };
    auto pct = [&](double x) { return Table::fmt_double(100.0 * (x / pred - 1.0), 1) + "%"; };
    table.add_row({c.name, ms(pred), ms(branchy), ms(padded), pct(branchy), "15-20%",
                   pct(padded)});
  }
  table.print(std::cout);

  claims.add("sec83_predication_cheapest", predication_cheapest, {});
  // Branchy checks cost 15-20% against predication: half of the low end.
  claims.add("sec83_branchy_overhead_15pct", min_branchy >= 0.075,
             {{"min_overhead", min_branchy}, {"paper", 0.15}, {"threshold", 0.075}});
}

// ------------------------------------------------------------- Table 1 -----

struct Rates {
  double categorical = 0.0;
  double uniform = 0.0;
};

template <typename Space, typename LegalFn>
Rates acceptance(const Space& space, const LegalFn& legal, std::size_t probe, std::size_t draws,
                 Rng& rng) {
  tuning::CategoricalModel model(space.domains(), /*alpha=*/100.0);
  const auto uniform_stats = model.fit(legal, probe, rng);

  tuning::AcceptanceStats cat_stats;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < draws; ++i) {
    model.sample_legal(legal, rng, out, cat_stats, 1);
  }
  return {cat_stats.rate(), uniform_stats.rate()};
}

// Table 1: proportion of samples accepted by the categorical generative model
// vs naive uniform sampling, "when each parameter is constrained to be a power
// of two between 1 and 16" (paper: GEMM 20% vs 0.1%, CONV 15% vs 0.1% — two
// orders of magnitude). Legality is judged by codegen::validate against random
// shapes on the P100 model.
void table1(Claims& claims) {
  // Probing runs the validator only (~1 us per probe), so a deep fit is
  // cheap; the α = 100 prior needs many acceptances to sharpen.
  constexpr std::size_t probe = 250000;
  constexpr std::size_t draws = 20000;
  const auto& dev = gpusim::tesla_p100();
  banner("Table 1 — Proportion of samples accepted: categorical vs uniform", dev);
  Rng rng(0x7AB1);

  // Shapes drawn from the collector's distribution; the legality predicate
  // couples the sampled tuning with a fresh random shape each probe, exactly
  // like the data-generation phase.
  tuning::CollectorConfig shape_cfg;

  const tuning::GemmSearchSpace gemm_space(/*cap16=*/true);
  Rng gemm_shape_rng = rng.fork(1);
  const auto gemm_rates = acceptance(
      gemm_space,
      [&](const std::vector<std::size_t>& c) {
        const auto shape = tuning::random_gemm_shape(shape_cfg, gemm_shape_rng);
        return codegen::validate(shape, gemm_space.decode(c), dev);
      },
      probe, draws, rng);

  const tuning::ConvSearchSpace conv_space(/*cap16=*/true);
  Rng conv_shape_rng = rng.fork(2);
  const auto conv_rates = acceptance(
      conv_space,
      [&](const std::vector<std::size_t>& c) {
        const auto shape = tuning::random_conv_shape(shape_cfg, conv_shape_rng);
        return codegen::validate(shape, conv_space.decode(c), dev);
      },
      probe, draws, rng);

  Table table({"", "Categorical (measured)", "Uniform (measured)", "Categorical (paper)",
               "Uniform (paper)"});
  auto pct = [](double r) { return Table::fmt_double(100.0 * r, 2) + "%"; };
  table.add_row({"GEMM", pct(gemm_rates.categorical), pct(gemm_rates.uniform), "20%", "0.1%"});
  table.add_row({"CONV", pct(conv_rates.categorical), pct(conv_rates.uniform), "15%", "0.1%"});
  table.print(std::cout);

  // Two orders of magnitude (20% / 0.1% and 15% / 0.1% are 200x and 150x).
  const double gemm_gain = ratio(gemm_rates.categorical, gemm_rates.uniform);
  const double conv_gain = ratio(conv_rates.categorical, conv_rates.uniform);
  claims.gain("table1_gemm_two_orders_of_magnitude", gemm_gain, 100.0);
  claims.gain("table1_conv_two_orders_of_magnitude", conv_gain, 100.0);
  // The categorical model's own acceptance, at half the paper's rate.
  claims.add("table1_categorical_acceptance",
             gemm_rates.categorical >= 0.10 && conv_rates.categorical >= 0.075,
             {{"gemm", gemm_rates.categorical},
              {"conv", conv_rates.categorical},
              {"gemm_threshold", 0.10},
              {"conv_threshold", 0.075}});
}

// ------------------------------------------------------------- Table 2 -----

// Table 2: cross-validation MSE for various MLP architectures, with and
// without the logarithmic feature transform (§5.2-5.3). Paper: deeper nets
// beat shallower ones (the MSE falls down the table, 0.17 → 0.062), and
// dropping the log transform degrades MSE by roughly an order of magnitude.
// Scaled down from the paper's 200k/10k to 12k train / 3k test.
void table2(Claims& claims) {
  constexpr std::uint64_t seed = 0x7AB2;
  constexpr std::size_t train_n = 12000;
  constexpr std::size_t test_n = 3000;
  const auto& dev = gpusim::tesla_p100();
  banner("Table 2 — Cross-validation MSE for various MLP architectures", dev);

  gpusim::Simulator sim(dev, 0.03, seed);
  tuning::CollectorConfig ccfg;
  ccfg.num_samples = train_n + test_n;
  ccfg.seed = seed;
  auto report = tuning::collect_gemm(sim, ccfg);
  Rng shuffle_rng(seed);
  report.dataset.shuffle(shuffle_rng);
  const auto [test, train_set] = report.dataset.split(std::min(test_n, report.dataset.size() / 5));

  struct Arch {
    std::vector<int> hidden;
    const char* paper_mse;
    const char* paper_nolog;
  };
  const std::vector<Arch> archs = {
      {{64}, "0.17", "1.2"},
      {{512}, "0.13", "1.0"},
      {{32, 64, 32}, "0.088", "0.80"},
      {{64, 128, 64}, "0.08", "0.75"},
      {{32, 64, 128, 64, 32}, "0.073", "-"},
      {{64, 128, 256, 128, 64}, "0.067", "-"},
      {{64, 128, 192, 256, 192, 128, 64}, "0.062", "-"},
  };

  Table table({"hidden layers", "#weights", "MSE", "MSE (no log)", "paper MSE",
               "paper (no log)"});
  std::vector<double> mses, log_gains;
  for (const auto& arch : archs) {
    std::string name;
    for (std::size_t i = 0; i < arch.hidden.size(); ++i) {
      name += (i ? ", " : "") + std::to_string(arch.hidden[i]);
    }
    mlp::TrainConfig cfg;
    cfg.net.hidden = arch.hidden;
    cfg.epochs = 8;
    cfg.seed = seed;
    const auto model = mlp::train(train_set, cfg);
    const double mse = model.mse(test);
    cfg.log_features = false;
    const double mse_raw = mlp::train(train_set, cfg).mse(test);

    mses.push_back(mse);
    log_gains.push_back(ratio(mse_raw, mse));
    table.add_row({name, std::to_string(model.net().num_parameters()),
                   Table::fmt_double(mse, 3), Table::fmt_double(mse_raw, 2), arch.paper_mse,
                   arch.paper_nolog});
  }
  table.print(std::cout);

  // Deeper is better: every row's MSE below the row above it, as the paper's.
  std::size_t rises = 0;
  for (std::size_t i = 1; i < mses.size(); ++i) rises += !(mses[i] < mses[i - 1]);
  claims.add("table2_deeper_is_better", rises == 0,
             {{"rows_not_below_previous", static_cast<double>(rises)},
              {"mse_first", mses.front()},
              {"mse_last", mses.back()}});
  claims.gain("table2_no_log_order_of_magnitude", geomean(log_gains), 10.0);
}

// ------------------------------------------------------------- Table 3 -----

// Table 3: test-platform hardware, the device descriptors the simulator is
// built from, row for row against the paper's table.
void table3() {
  const auto& m = gpusim::gtx980ti();
  const auto& p = gpusim::tesla_p100();

  std::cout << "Table 3 — Test platforms hardware\n\n";
  Table table({"", "Maxwell", "Pascal"});
  table.add_row({"GPU", m.name, p.name});
  table.add_row({"Market Segment", m.market_segment, p.market_segment});
  table.add_row({"Micro-architecture", m.chip, p.chip});
  table.add_row({"CUDA cores", std::to_string(m.num_sms * m.cuda_cores_per_sm),
                 std::to_string(p.num_sms * p.cuda_cores_per_sm)});
  table.add_row({"Boost frequency", Table::fmt_double(m.boost_clock_ghz * 1000, 0) + " MHz",
                 Table::fmt_double(p.boost_clock_ghz * 1000, 0) + " MHz"});
  table.add_row({"Processing Power", Table::fmt_double(m.peak_sp_tflops, 1) + " TFLOPS",
                 Table::fmt_double(p.peak_sp_tflops, 1) + " TFLOPS"});
  table.add_row({"Memory quantity", Table::fmt_double(m.memory_gb, 0) + " GB",
                 Table::fmt_double(p.memory_gb, 0) + " GB"});
  table.add_row({"Memory Type", m.memory_type, p.memory_type});
  table.add_row({"Memory Bandwidth", Table::fmt_double(m.dram_bandwidth_gbs, 0) + " GB/s",
                 Table::fmt_double(p.dram_bandwidth_gbs, 0) + " GB/s"});
  table.add_row({"TDP", std::to_string(m.tdp_watts) + "W", std::to_string(p.tdp_watts) + "W"});
  table.print(std::cout);

  std::cout << "\nSimulator micro-architectural parameters (not in the paper's table):\n\n";
  Table micro({"", "Maxwell", "Pascal"});
  micro.add_row({"SMs", std::to_string(m.num_sms), std::to_string(p.num_sms)});
  micro.add_row({"smem/SM", std::to_string(m.smem_per_sm_bytes / 1024) + " KiB",
                 std::to_string(p.smem_per_sm_bytes / 1024) + " KiB"});
  micro.add_row({"registers/SM", std::to_string(m.registers_per_sm),
                 std::to_string(p.registers_per_sm)});
  micro.add_row({"fp16x2 rate", Table::fmt_double(m.fp16x2_ratio, 2) + "x",
                 Table::fmt_double(p.fp16x2_ratio, 2) + "x"});
  micro.add_row({"fp64 rate", "1/32", "1/2"});
  micro.add_row({"mem latency", Table::fmt_double(m.mem_latency_cycles, 0) + " cyc",
                 Table::fmt_double(p.mem_latency_cycles, 0) + " cyc"});
  micro.print(std::cout);
}

// ------------------------------------------------------------- Table 6 -----

// Table 6: ISAAC's parameterization choices for the named evaluation problems
// (on the P100, as in §8.2). Paper: (1) smaller tiles for smaller problems,
// (2) deep reductions (DeepBench, ICA) always split, LINPACK/LAPACK never do
// (K_L and K_G traded off), (3) U drops when cache efficiency stops mattering
// (Blocked SVD: U 4 at LAPACK (4096) against 8 at LINPACK (2048)).
void table6(Claims& claims) {
  const auto& dev = gpusim::tesla_p100();
  banner("Table 6 — Parameterization choices of ISAAC", dev);
  const auto& perf_model = model("gemm", dev);
  const gpusim::Simulator sim(dev, 0.03, kSeed);
  const auto inference = bench_inference();

  struct Problem {
    const char* name;
    std::int64_t m, n, k;
    bool ta, tb;
    const char* paper;  // "Ms Ns ML NL U Ks KL KG" from Table 6
  };
  const std::vector<Problem> problems = {
      {"LINPACK (512)", 512, 512, 512, false, true, "2 8 32 32 8 1 1 1"},
      {"LINPACK (2048)", 2048, 2048, 2048, false, true, "8 8 64 64 8 1 1 1"},
      {"DeepBench-F (16)", 2560, 16, 2560, false, false, "2 4 64 16 16 1 1 4"},
      {"DeepBench-F (128)", 2560, 128, 2560, false, false, "4 4 64 32 8 1 1 2"},
      {"DeepBench-B (16)", 2560, 16, 2560, true, false, "4 2 16 16 16 1 8 1"},
      {"DeepBench-B (128)", 2560, 128, 2560, true, false, "4 4 64 64 8 1 1 4"},
      {"ICA (32)", 32, 32, 60000, false, true, "2 4 32 32 8 1 4 32"},
      {"ICA (256)", 256, 256, 60000, false, true, "4 4 32 64 8 1 1 8"},
      {"LAPACK (896)", 896, 896, 32, false, true, "8 4 64 64 8 1 1 1"},
      {"LAPACK (4096)", 4096, 4096, 32, false, true, "8 16 64 128 4 1 1 1"},
  };

  Table table({"Problem", "Ms", "Ns", "ML", "NL", "U", "Ks", "KL", "KG",
               "paper (Ms Ns ML NL U Ks KL KG)"});
  std::map<std::string, codegen::GemmTuning> chosen;
  for (const auto& p : problems) {
    try {
      const auto result =
          core::tune<core::GemmOp>(gemm(p.m, p.n, p.k, p.ta, p.tb), perf_model, sim, inference);
      const auto& t = result.best.tuning;
      chosen[p.name] = t;
      table.add_row({p.name, std::to_string(t.ms), std::to_string(t.ns), std::to_string(t.ml),
                     std::to_string(t.nl), std::to_string(t.u), std::to_string(t.ks),
                     std::to_string(t.kl), std::to_string(t.kg), p.paper});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[bench] %s failed: %s\n", p.name, e.what());
    }
  }
  table.print(std::cout);

  // A problem that failed to tune fails every claim that reads it.
  const auto get = [&](const char* name) -> const codegen::GemmTuning* {
    const auto it = chosen.find(name);
    return it == chosen.end() ? nullptr : &it->second;
  };
  const auto splits = [](const codegen::GemmTuning& t) { return t.kl * t.kg > 1; };

  bool smaller = true;
  for (const auto& [small, large] :
       {std::pair{"LINPACK (512)", "LINPACK (2048)"},
        std::pair{"DeepBench-F (16)", "DeepBench-F (128)"},
        std::pair{"DeepBench-B (16)", "DeepBench-B (128)"}, std::pair{"ICA (32)", "ICA (256)"},
        std::pair{"LAPACK (896)", "LAPACK (4096)"}}) {
    const auto* s = get(small);
    const auto* l = get(large);
    smaller = smaller && s && l && s->ml * s->nl < l->ml * l->nl;
  }
  claims.add("table6_smaller_tiles_for_smaller_problems", smaller, {});

  double deep_split = 0, deep_rows = 0, square_split = 0, square_rows = 0;
  bool all_tuned = true;
  for (const auto& p : problems) {
    const std::string name = p.name;
    const auto* t = get(p.name);
    all_tuned = all_tuned && t;
    if (!t) continue;
    if (name.rfind("DeepBench", 0) == 0 || name.rfind("ICA", 0) == 0) {
      deep_rows += 1;
      deep_split += splits(*t);
    } else {
      square_rows += 1;
      square_split += splits(*t);
    }
  }
  claims.add("table6_deep_k_always_split", all_tuned && deep_split == deep_rows,
             {{"split", deep_split}, {"rows", deep_rows}});
  claims.add("table6_linpack_lapack_never_split", all_tuned && square_split == 0,
             {{"split", square_split}, {"rows", square_rows}});

  const auto* lapack = get("LAPACK (4096)");
  const auto* linpack = get("LINPACK (2048)");
  claims.add("table6_u_drops_on_lapack", lapack && linpack && lapack->u < linpack->u,
             {{"lapack4096_u", lapack ? lapack->u : kNaN},
              {"linpack2048_u", linpack ? linpack->u : kNaN}});
}

}  // namespace
}  // namespace isaac::bench

int main(int argc, char**) {
  using namespace isaac::bench;
  if (argc > 1) {
    std::fprintf(stderr, "usage: bench_paper (takes no arguments)\n");
    return 2;
  }
  try {
    Claims claims;
    fig5(claims);
    fig6(claims);
    fig7(claims);
    fig8(claims);
    const auto maxwell_conv = fig9(claims);
    fig10(claims, maxwell_conv);
    fig11(claims);
    sec81(claims);
    sec83(claims);
    table1(claims);
    table2(claims);
    table3();
    table6(claims);
    claims.print_json();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_paper: %s\n", e.what());
    return 1;
  }
  return 0;
}
