// The repository's benchmark: one seeded run of one workload through the
// public core::Context API, with output checks, ending in one JSON line that
// names every metric with its unit. perfbench/README.md describes the
// workloads, the metrics and which layer metric should move which end-to-end
// metric; perfbench/run.py builds this program and forwards its arguments.
//
//   isaac_ledger --workload hot_serve|cold_tune --seed N --seconds S
//                --trace 0|1 --outdir DIR
//
// --trace 0 measures the end-to-end metrics with telemetry off. --trace 1
// sets up once, replays the workload untraced and then traced (the benchmark
// opens a span around every public call it makes), calls each layer's public
// functions directly on the workload's shapes, and reports the per-layer
// metrics plus a self-time table.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "baselines/cublas_sim.hpp"
#include "baselines/cudnn_sim.hpp"
#include "codegen/batched_gemm_executor.hpp"
#include "codegen/conv_executor.hpp"
#include "common/thread_pool.hpp"
#include "core/inference.hpp"
#include "core/isaac.hpp"
#include "core/profile_cache.hpp"
#include "linalg/blas.hpp"
#include "mlp/regressor.hpp"
#include "search/model_topk.hpp"
#include "telemetry/telemetry.hpp"
#include "tuning/feature_batch.hpp"

#ifndef ISAAC_LEDGER_BUILD_TYPE
#define ISAAC_LEDGER_BUILD_TYPE "unknown"
#endif

namespace {

using namespace isaac;
using Clock = std::chrono::steady_clock;
using codegen::BatchedGemmShape;
using codegen::ConvShape;
using codegen::GemmShape;
using core::BatchedGemmOp;
using core::ConvOp;
using core::EntryTier;
using core::GemmOp;
using core::OperationTraits;

// ------------------------------------------------------------------ knobs --

// Closed-loop serving clients: one per core of the 4-core host it was sized on.
constexpr int kClients = 4;
// Zipf exponent of the hot stream over the hot set's fixed popularity order.
constexpr double kZipfS = 1.0;
// Seeded share of serving calls whose output is copied for the reference check.
constexpr std::uint64_t kCheckOneIn = 64;
constexpr std::size_t kChecksPerClient = 32;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 3;
// Output tolerance relative to the reference's largest magnitude.
constexpr double kRelTol = 1e-3;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ----------------------------------------------------------------- shapes --

using Shape = std::variant<GemmShape, BatchedGemmShape, ConvShape>;
using AnyTuning = std::variant<codegen::GemmTuning, codegen::ConvTuning>;

template <typename S>
struct OpFor;
template <>
struct OpFor<GemmShape> {
  using type = GemmOp;
};
template <>
struct OpFor<BatchedGemmShape> {
  using type = BatchedGemmOp;
};
template <>
struct OpFor<ConvShape> {
  using type = ConvOp;
};
/// The operation tag of a (possibly cv/ref-qualified) shape type.
template <typename S>
using OpOf = typename OpFor<std::decay_t<S>>::type;

const char* kind_of(const Shape& s) {
  return std::visit([](const auto& x) { return OperationTraits<OpOf<decltype(x)>>::kind(); }, s);
}

GemmShape gemm(std::int64_t m, std::int64_t n, std::int64_t k, bool ta, bool tb) {
  GemmShape s;
  s.m = m;
  s.n = n;
  s.k = k;
  s.trans_a = ta;
  s.trans_b = tb;
  return s;
}

BatchedGemmShape bgemm(std::int64_t batch, std::int64_t m, std::int64_t n, std::int64_t k,
                       bool ta, bool tb) {
  BatchedGemmShape s;
  s.batch = batch;
  s.gemm = gemm(m, n, k, ta, tb);
  return s;
}

/// The serving workload's hot set: small fp32 GEMM, batched-GEMM and conv
/// shapes, listed in Zipf popularity order (rank 1 first). Fixed, so every
/// seed draws from the same traffic mix and serves the same decisions. Each
/// conv is large enough for cuDNN-sim to have a legal kernel (N ≥ 4).
std::vector<Shape> hot_set() {
  return {
      gemm(64, 64, 64, false, false),      gemm(128, 64, 64, false, true),
      ConvShape::from_npq(4, 8, 8, 32, 16, 3, 3),
      bgemm(8, 32, 32, 32, false, false),  gemm(64, 128, 128, true, false),
      gemm(96, 96, 64, false, false),      ConvShape::from_npq(16, 4, 4, 32, 32, 1, 1),
      bgemm(4, 64, 64, 32, false, true),   gemm(128, 128, 32, false, true),
      gemm(32, 256, 64, false, false),     ConvShape::from_npq(4, 6, 6, 16, 16, 5, 5),
      bgemm(16, 16, 32, 64, false, false), gemm(256, 32, 128, true, true),
      gemm(48, 80, 96, false, false),      ConvShape::from_npq(8, 7, 7, 64, 32, 1, 1),
      bgemm(8, 48, 48, 48, true, false),   gemm(160, 64, 32, false, false),
      gemm(64, 64, 256, false, true),      ConvShape::from_npq(4, 14, 14, 16, 16, 3, 3),
      bgemm(2, 128, 64, 64, false, false), gemm(200, 40, 72, false, false),
      ConvShape::from_npq(8, 8, 8, 32, 16, 3, 3),
      gemm(16, 512, 64, false, false),     bgemm(32, 16, 16, 16, false, false),
  };
}

/// The paper's tasks, fp32: all 17 Table 4 GEMMs and Table 5's Conv1-Conv12.
/// The two ResNET rows (Conv13-14) are left out: their cold selects are the
/// slowest of the table and would stretch every pass.
std::vector<Shape> paper_tasks() {
  std::vector<Shape> tasks;
  for (std::int64_t s : {512, 1024, 2048}) tasks.push_back(gemm(s, s, s, false, true));
  for (std::int64_t n : {16, 32, 64, 128}) tasks.push_back(gemm(2560, n, 2560, false, false));
  for (std::int64_t n : {16, 32, 64, 128}) tasks.push_back(gemm(2560, n, 2560, true, false));
  for (std::int64_t c : {32, 64, 256}) tasks.push_back(gemm(c, c, 60000, false, true));
  for (std::int64_t s : {896, 2048, 4096}) tasks.push_back(gemm(s, s, 32, false, true));
  struct Row {
    int n, p, q, k, c, r, s;
  };
  const Row rows[] = {
      {16, 79, 341, 32, 1, 5, 20},  {16, 38, 166, 32, 32, 5, 10}, {16, 24, 240, 32, 16, 3, 3},
      {16, 12, 120, 64, 32, 3, 3},  {8, 54, 54, 64, 64, 3, 3},    {8, 27, 27, 128, 128, 3, 3},
      {16, 14, 14, 48, 512, 5, 5},  {16, 7, 7, 128, 832, 5, 5},   {8, 112, 112, 128, 64, 3, 3},
      {8, 56, 56, 256, 128, 3, 3},  {16, 128, 39, 174, 64, 5, 5}, {16, 256, 19, 87, 128, 5, 5},
  };
  // Arrival order: the tables interleaved, one conv after each GEMM while
  // both last. Fixed, so every pass meets the same background load.
  std::vector<Shape> order;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    order.push_back(tasks[i]);
    if (i < std::size(rows)) {
      const Row& r = rows[i];
      order.push_back(ConvShape::from_npq(r.n, r.p, r.q, r.k, r.c, r.r, r.s));
    }
  }
  return order;
}

std::string shape_key(const Shape& s) {
  return std::visit(
      [](const auto& x) {
        using Op = OpOf<decltype(x)>;
        return std::string(OperationTraits<Op>::kind()) + ":" + OperationTraits<Op>::shape_key(x);
      },
      s);
}

// ---------------------------------------------------------------- buffers --

/// Cache-line-aligned storage, so operand alignment (which moves the host
/// executors' speed) is the same in every run.
template <typename T>
struct LineAligned {
  using value_type = T;
  LineAligned() = default;
  template <typename U>
  LineAligned(const LineAligned<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{64}));
  }
  void deallocate(T* p, std::size_t) noexcept { ::operator delete(p, std::align_val_t{64}); }
  template <typename U>
  bool operator==(const LineAligned<U>&) const noexcept {
    return true;
  }
};
using Floats = std::vector<float, LineAligned<float>>;

/// Host operands of one shape. Conv: a = input (C×H×W×N), b = filters
/// (C×R×S×K), c = output (K×P×Q×N). GEMMs are column-major with tight
/// leading dimensions.
struct Buffers {
  Floats a, b, c;
};

std::int64_t lda_of(const GemmShape& s) { return s.trans_a ? s.k : s.m; }
std::int64_t ldb_of(const GemmShape& s) { return s.trans_b ? s.n : s.k; }

Buffers make_buffers(const Shape& shape, std::mt19937_64& rng) {
  std::size_t na = 0, nb = 0, nc = 0;
  if (const auto* g = std::get_if<GemmShape>(&shape)) {
    na = g->m * g->k, nb = g->k * g->n, nc = g->m * g->n;
  } else if (const auto* b = std::get_if<BatchedGemmShape>(&shape)) {
    na = b->batch * b->gemm.m * b->gemm.k;
    nb = b->batch * b->gemm.k * b->gemm.n;
    nc = b->batch * b->gemm.m * b->gemm.n;
  } else {
    const auto& c = std::get<ConvShape>(shape);
    na = c.c * c.h * c.w * c.n, nb = c.c * c.r * c.s * c.k, nc = c.k * c.p() * c.q() * c.n;
  }
  std::uniform_real_distribution<float> u(-1.0f, 1.0f);
  Buffers out;
  out.a.resize(na);
  out.b.resize(nb);
  out.c.assign(nc, 0.0f);
  for (auto& x : out.a) x = u(rng);
  for (auto& x : out.b) x = u(rng);
  return out;
}

/// Invoke `f` with the executor arguments that follow (shape, tuning):
/// alpha = 1, beta = 0, so every call overwrites its output.
template <typename F>
decltype(auto) with_args(const GemmShape& s, Buffers& b, F&& f) {
  return f(1.0f, static_cast<const float*>(b.a.data()), lda_of(s),
           static_cast<const float*>(b.b.data()), ldb_of(s), 0.0f, b.c.data(), s.m);
}
template <typename F>
decltype(auto) with_args(const BatchedGemmShape& s, Buffers& b, F&& f) {
  const GemmShape& g = s.gemm;
  return f(1.0f, static_cast<const float*>(b.a.data()), lda_of(g), g.m * g.k,
           static_cast<const float*>(b.b.data()), ldb_of(g), g.k * g.n, 0.0f, b.c.data(), g.m,
           g.m * g.n);
}
template <typename F>
decltype(auto) with_args(const ConvShape&, Buffers& b, F&& f) {
  return f(1.0f, static_cast<const float*>(b.a.data()), static_cast<const float*>(b.b.data()),
           0.0f, b.c.data());
}

/// Largest |out - ref| over the largest |ref|, against the library's
/// references: linalg::gemm_reference (GEMM), codegen::reference_batched_gemm
/// and codegen::reference_conv.
double relative_error(const Shape& shape, const Buffers& in, const Floats& out) {
  std::vector<float> ref;
  if (const auto* g = std::get_if<GemmShape>(&shape)) {
    // Column-major X (r×c) is row-major Xᵀ, so Cᵀ = op(B)ᵀ·op(A)ᵀ in row-major
    // terms; a stored operand whose row-major view is op(X) itself needs the
    // transpose flag.
    const auto m = static_cast<std::size_t>(g->m), n = static_cast<std::size_t>(g->n),
               k = static_cast<std::size_t>(g->k);
    linalg::Matrix av(g->trans_a ? m : k, g->trans_a ? k : m);
    linalg::Matrix bv(g->trans_b ? k : n, g->trans_b ? n : k);
    std::copy(in.a.begin(), in.a.end(), av.data());
    std::copy(in.b.begin(), in.b.end(), bv.data());
    linalg::Matrix cv(n, m);
    linalg::gemm_reference(g->trans_b ? linalg::Trans::Yes : linalg::Trans::No,
                           g->trans_a ? linalg::Trans::Yes : linalg::Trans::No, 1.0f, bv, av,
                           0.0f, cv);
    ref.assign(cv.data(), cv.data() + n * m);
  } else if (const auto* b = std::get_if<BatchedGemmShape>(&shape)) {
    Buffers copy = in;
    copy.c.assign(out.size(), 0.0f);
    with_args(*b, copy, [&](auto&&... args) { codegen::reference_batched_gemm(*b, args...); });
    ref.assign(copy.c.begin(), copy.c.end());
  } else {
    const auto& c = std::get<ConvShape>(shape);
    ref.assign(out.size(), 0.0f);
    codegen::reference_conv(c, 1.0f, in.a.data(), in.b.data(), 0.0f, ref.data());
  }
  if (ref.size() != out.size()) return INFINITY;
  double max_ref = 1e-6, max_err = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    max_ref = std::max(max_ref, std::fabs(static_cast<double>(ref[i])));
    const double err = std::fabs(static_cast<double>(out[i]) - ref[i]);
    if (!(err <= max_err)) max_err = std::isnan(err) ? INFINITY : std::max(max_err, err);
  }
  return max_err / max_ref;
}

// ---------------------------------------------------------------- quality --

/// Noise-free decision quality: the served tuning's simulated GFLOPS over the
/// vendor-library baseline's heuristic choice on the same noise-free device.
class Quality {
 public:
  explicit Quality(const gpusim::DeviceDescriptor& dev)
      : sim_(dev, /*noise_sigma=*/0.0), cublas_(sim_.device()), cudnn_(sim_.device()) {}

  /// 0 when the shape has no baseline (batched GEMM).
  double ratio(const Shape& shape, const AnyTuning& tuning) const {
    if (const auto* g = std::get_if<GemmShape>(&shape)) {
      const auto ours = sim_.evaluate(codegen::analyze(*g, std::get<codegen::GemmTuning>(tuning),
                                                       sim_.device()));
      const auto base = cublas_.run_heuristic(sim_, *g, 1);
      return ours.valid && base.valid ? ours.achieved_tflops * 1000.0 / base.gflops : 0.0;
    }
    if (const auto* c = std::get_if<ConvShape>(&shape)) {
      const auto ours = sim_.evaluate(codegen::analyze(*c, std::get<codegen::ConvTuning>(tuning),
                                                       sim_.device()));
      const auto base = cudnn_.run_heuristic(sim_, *c, 1);
      return ours.valid && base.valid ? ours.achieved_tflops * 1000.0 / base.gflops : 0.0;
    }
    return 0.0;
  }

 private:
  gpusim::Simulator sim_;
  baselines::CublasSim cublas_;
  baselines::CudnnSim cudnn_;
};

bool legal(const Shape& shape, const AnyTuning& tuning, const gpusim::DeviceDescriptor& dev) {
  return std::visit(
      [&](const auto& s) {
        using Op = OpOf<decltype(s)>;
        using Tuning = typename OperationTraits<Op>::Tuning;
        return OperationTraits<Op>::validate(s, std::get<Tuning>(tuning), dev);
      },
      shape);
}

// ------------------------------------------------------------ cold passes --

/// One pass of cold shapes into a Context, one shape at a time: a timed
/// select() (served provisional), then drain_background() while its
/// refinement runs. Each select therefore meets an idle pool: issued back to
/// back, a select's ranking competes with the queued refinements for the
/// pool, and its latency swings between the pool's speed and one thread's
/// with the queue's state. Afterwards every entry must be legal and at the
/// refined tier.
struct ColdPass {
  std::vector<double> select_us;
  std::vector<double> refined_us;  // per shape: select through refinement landed
  double wall_s = 0.0;  // first select → last drain complete
  std::size_t shapes = 0;
  std::size_t refined = 0;
  std::size_t failed = 0;
  std::size_t tuning_runs = 0;
  std::uint64_t launches = 0;
  std::vector<double> gemm_refined, gemm_provisional, conv_refined, conv_provisional;
  std::vector<double> hit_ns;  // traced only: select() on the refined entries
  std::vector<std::string> lines;  // per shape: select latency and both quality ratios
};

AnyTuning select_any(core::Context& ctx, const Shape& shape, bool* from_cache, EntryTier* tier) {
  return std::visit(
      [&](const auto& s) -> AnyTuning {
        return ctx.select<OpOf<decltype(s)>>(s, from_cache, tier);
      },
      shape);
}

std::optional<AnyTuning> lookup_any(core::Context& ctx, const Shape& shape, EntryTier* tier) {
  return std::visit(
      [&](const auto& s) -> std::optional<AnyTuning> {
        using Op = OpOf<decltype(s)>;
        if (auto t = ctx.cache().lookup<Op>(ctx.device().name, s, tier)) return AnyTuning(*t);
        return std::nullopt;
      },
      shape);
}

ColdPass cold_pass(core::Context& ctx, const std::vector<Shape>& shapes, const Quality& quality,
                   bool probe_hits) {
  ColdPass out;
  out.shapes = shapes.size();
  const std::uint64_t launches0 = ctx.simulator().launches();
  const std::size_t runs0 = ctx.tuning_runs();
  std::vector<std::optional<AnyTuning>> provisional(shapes.size());
  std::vector<bool> cold(shapes.size(), false);
  const auto begin = Clock::now();
  {
    telemetry::Span root("bench.cold_pass");
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const auto t0 = Clock::now();
      try {
        telemetry::Span span("bench.select");
        bool from_cache = false;
        EntryTier tier = EntryTier::refined;
        provisional[i] = select_any(ctx, shapes[i], &from_cache, &tier);
        cold[i] = !from_cache && tier == EntryTier::provisional;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "cold select failed for %s: %s\n", shape_key(shapes[i]).c_str(),
                     e.what());
      }
      out.select_us.push_back(ns_between(t0, Clock::now()) / 1000.0);
      {
        telemetry::Span span("bench.drain");
        ctx.drain_background();
      }
      out.refined_us.push_back(ns_between(t0, Clock::now()) / 1000.0);
    }
  }
  out.wall_s = seconds_between(begin, Clock::now());
  out.launches = ctx.simulator().launches() - launches0;
  out.tuning_runs = ctx.tuning_runs() - runs0;

  const auto& dev = ctx.device();
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    EntryTier tier = EntryTier::provisional;
    const auto refined = lookup_any(ctx, shapes[i], &tier);
    const bool ok = cold[i] && legal(shapes[i], *provisional[i], dev) && refined &&
                    tier == EntryTier::refined && legal(shapes[i], *refined, dev);
    if (!ok) {
      ++out.failed;
      std::fprintf(stderr, "cold shape %s: not served provisional, or not legal and refined "
                   "after the drain\n", shape_key(shapes[i]).c_str());
      continue;
    }
    ++out.refined;
    const double r = quality.ratio(shapes[i], *refined);
    const double p = quality.ratio(shapes[i], *provisional[i]);
    out.lines.push_back(shape_key(shapes[i]) + " select_us " + std::to_string(out.select_us[i]) +
                        " refined " + std::to_string(r) + " provisional " + std::to_string(p));
    if (std::holds_alternative<GemmShape>(shapes[i])) {
      out.gemm_refined.push_back(r);
      out.gemm_provisional.push_back(p);
    } else if (std::holds_alternative<ConvShape>(shapes[i])) {
      out.conv_refined.push_back(r);
      out.conv_provisional.push_back(p);
    }
  }
  if (probe_hits) {
    // The hit path on the entries just refined: the cheapest select().
    for (int rep = 0; rep < 50; ++rep) {
      for (const auto& s : shapes) {
        const auto t0 = Clock::now();
        select_any(ctx, s, nullptr, nullptr);
        out.hit_ns.push_back(ns_between(t0, Clock::now()));
      }
    }
  }
  return out;
}

// ------------------------------------------------------------------ setup --

std::unique_ptr<core::Context> make_context() {
  core::ContextOptions options;  // empty cache_dir: in-memory profile cache
  return std::make_unique<core::Context>(gpusim::tesla_p100(), options);
}

struct SetupTimes {
  double collect_s = 0.0;
  std::size_t samples = 0;
  double train_s = 0.0;  // the rest of train_model(): mlp::train and the install
};

/// Context::train_model() at its defaults, split with the program's own
/// telemetry: collect_gemm records its sample count and run time, and the
/// rest of the call is mlp::train plus installing the model. Leaves the
/// telemetry registry off and empty.
SetupTimes train_model_timed(core::Context& ctx) {
  telemetry::reset_for_testing();
  telemetry::set_enabled(true);
  const auto t0 = Clock::now();
  ctx.train_model();
  const double total_s = seconds_between(t0, Clock::now());
  const telemetry::Snapshot snap = telemetry::snapshot(false);
  telemetry::set_enabled(false);
  telemetry::reset_for_testing();
  const auto* run_us = snap.find_histogram("collect.run_us");
  if (!run_us || run_us->count != 1) {
    throw std::runtime_error("train_model() did not record exactly one collection");
  }
  SetupTimes out;
  out.collect_s = static_cast<double>(run_us->sum) / 1e6;
  out.samples = snap.counter_value("collect.samples");
  out.train_s = total_s - out.collect_s;
  return out;
}

// ----------------------------------------------------------------- serving --

struct CheckSample {
  std::size_t shape = 0;
  Floats output;
};

/// Per-phase timings of the traced replay of run().
struct Phases {
  std::vector<double> select_ns, analyze_us, launch_median_us;
  std::map<std::string, std::vector<double>> execute_us;  // by op kind
  double exec_flops = 0.0, exec_s = 0.0;
};

struct ServeResult {
  // Stream clients, per whole second of the run: calls completed and the
  // p50/p90/p99 latency of those calls. The reported figures are medians over
  // the seconds, so a stall that hits one second moves none of them.
  std::vector<double> window_calls, window_p50_us, window_p90_us, window_p99_us;
  std::size_t calls = 0;
  std::size_t refined_calls = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  Phases phases;
};

struct Client {
  std::vector<Buffers> buffers;  // one per hot shape
  std::mt19937_64 rng;
  std::vector<std::pair<double, double>> completions;  // (seconds since start, latency_us)
  std::vector<CheckSample> checks;
  std::size_t calls = 0, refined = 0, failed = 0;
  Phases phases;
};

struct CallOutcome {
  AnyTuning tuning;
  bool refined = false;
};

/// One Context::run() — or, traced, the same four calls run() makes, each
/// inside a benchmark span: select, execute, analyze, launch_median.
CallOutcome call(core::Context& ctx, const Shape& shape, Buffers& buf, Phases* phases) {
  return std::visit(
      [&](const auto& s) -> CallOutcome {
        using Op = OpOf<decltype(s)>;
        using Traits = OperationTraits<Op>;
        if (!phases) {
          const auto info =
              with_args(s, buf, [&](auto&&... args) { return ctx.run<Op>(s, args...); });
          return {info.tuning, !info.provisional && !info.fallback};
        }
        telemetry::Span root("bench.run");
        const auto t0 = Clock::now();
        EntryTier tier = EntryTier::refined;
        typename Traits::Tuning tuning;
        {
          telemetry::Span span("bench.select");
          tuning = ctx.select<Op>(s, nullptr, &tier);
        }
        const auto t1 = Clock::now();
        {
          telemetry::Span span("bench.execute");
          with_args(s, buf, [&](auto&&... args) { Traits::execute(s, tuning, args...); });
        }
        const auto t2 = Clock::now();
        gpusim::KernelProfile profile;
        {
          telemetry::Span span("bench.analyze");
          profile = Traits::analyze(s, tuning, ctx.device());
        }
        const auto t3 = Clock::now();
        {
          telemetry::Span span("bench.launch_median");
          ctx.simulator().launch_median(profile, 3);
        }
        const auto t4 = Clock::now();
        phases->select_ns.push_back(ns_between(t0, t1));
        phases->execute_us[Traits::kind()].push_back(ns_between(t1, t2) / 1000.0);
        phases->exec_flops += Traits::flops(s);
        phases->exec_s += seconds_between(t1, t2);
        phases->analyze_us.push_back(ns_between(t2, t3) / 1000.0);
        phases->launch_median_us.push_back(ns_between(t3, t4) / 1000.0);
        return {tuning, tier == EntryTier::refined};
      },
      shape);
}

/// Closed-loop serving: kClients threads each draw a Zipf rank, run the
/// shape, and go again, for `seconds` (or until `max_calls`).
ServeResult serve(core::Context& ctx, const std::vector<Shape>& hot, std::uint64_t seed,
                  double seconds, bool traced, std::size_t max_calls) {
  std::vector<double> cdf(hot.size());
  double total = 0.0;
  for (std::size_t i = 0; i < hot.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
    cdf[i] = total;
  }
  for (auto& c : cdf) c /= total;

  std::vector<Client> clients(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients[c].rng.seed(seed * 1000003ULL + static_cast<std::uint64_t>(c) + 1);
    for (const auto& s : hot) clients[c].buffers.push_back(make_buffers(s, clients[c].rng));
    clients[c].completions.reserve(static_cast<std::size_t>(seconds * 20000.0 / kClients) + 1024);
  }
  const auto& dev = ctx.device();
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> issued{0};
  const auto begin = Clock::now();

  const auto client_loop = [&](int id) {
    Client& me = clients[id];
    std::uniform_real_distribution<double> u(0.0, 1.0);
    while (!stop.load(std::memory_order_relaxed)) {
      if (max_calls && issued.fetch_add(1, std::memory_order_relaxed) >= max_calls) break;
      const std::size_t idx = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u(me.rng)) - cdf.begin());
      const std::size_t shape = std::min(idx, hot.size() - 1);
      const auto t0 = Clock::now();
      try {
        const CallOutcome out =
            call(ctx, hot[shape], me.buffers[shape], traced ? &me.phases : nullptr);
        const auto t1 = Clock::now();
        me.completions.push_back({seconds_between(begin, t1), ns_between(t0, t1) / 1000.0});
        ++me.calls;
        if (out.refined) ++me.refined;
        if (!legal(hot[shape], out.tuning, dev)) ++me.failed;
      } catch (const std::exception& e) {
        ++me.calls;
        ++me.failed;
        std::fprintf(stderr, "run() threw for %s: %s\n", shape_key(hot[shape]).c_str(), e.what());
      }
      if (me.checks.size() < kChecksPerClient && me.rng() % kCheckOneIn == 0) {
        me.checks.push_back({shape, me.buffers[shape].c});
      }
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client_loop, c);
  const auto deadline = begin + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline) {
    if (max_calls && issued.load(std::memory_order_relaxed) >= max_calls) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  const auto end = Clock::now();

  ServeResult out;
  out.wall_s = seconds_between(begin, end);
  const std::size_t windows = std::max<std::size_t>(1, static_cast<std::size_t>(out.wall_s));
  std::vector<std::vector<double>> by_window(windows);
  for (auto& c : clients) {
    for (const auto& [at, us] : c.completions) {
      const auto w = static_cast<std::size_t>(at);
      if (w < windows) by_window[w].push_back(us);
    }
    out.calls += c.calls;
    out.refined_calls += c.refined;
    out.failed += c.failed;
    if (traced) {
      auto& p = out.phases;
      const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
        to.insert(to.end(), from.begin(), from.end());
      };
      append(p.select_ns, c.phases.select_ns);
      append(p.analyze_us, c.phases.analyze_us);
      append(p.launch_median_us, c.phases.launch_median_us);
      for (const auto& [kind, v] : c.phases.execute_us) append(p.execute_us[kind], v);
      p.exec_flops += c.phases.exec_flops;
      p.exec_s += c.phases.exec_s;
    }
  }
  for (const auto& w : by_window) {
    out.window_calls.push_back(static_cast<double>(w.size()));
    out.window_p50_us.push_back(quantile(w, 0.50));
    out.window_p90_us.push_back(quantile(w, 0.90));
    out.window_p99_us.push_back(quantile(w, 0.99));
  }
  out.attempted = out.calls;

  // Output checks, off the clock: the seeded sample of stream outputs.
  for (auto& c : clients) {
    for (const auto& chk : c.checks) {
      ++out.attempted;
      const double err = relative_error(hot[chk.shape], c.buffers[chk.shape], chk.output);
      if (!(err <= kRelTol)) {
        ++out.failed;
        std::fprintf(stderr, "output check failed for %s: relative error %.3g\n",
                     shape_key(hot[chk.shape]).c_str(), err);
      }
    }
  }
  return out;
}

// --------------------------------------------------------- trace analysis --

struct SelfTimeRow {
  std::string name;
  std::size_t count = 0;
  double self_us = 0.0;
  bool caller_thread = true;  // ran on the thread of its root span
};

struct TraceReport {
  double root_us = 0.0;     // Σ root span durations: end-to-end wall
  double covered_us = 0.0;  // wall time attributed to a layer (see analyze_trace)
  double wait_us = 0.0;     // Σ durations of the caller's wait spans
  double wait_covered_us = 0.0;  // the part of them background spans cover
  std::vector<SelfTimeRow> rows;
  std::size_t spans = 0;
};

using Interval = std::pair<std::uint64_t, std::uint64_t>;

/// Length of the union of `intervals` clipped to [begin, end).
std::uint64_t covered_length(std::vector<Interval> intervals, std::uint64_t begin,
                             std::uint64_t end) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t length = 0, cursor = begin;
  for (const auto& [b, e] : intervals) {
    const std::uint64_t from = std::max(b, cursor), to = std::min(e, end);
    if (to > from) length += to - from;
    cursor = std::max(cursor, std::min(e, end));
  }
  return length;
}

/// Self time = a span's duration minus the part of it its same-thread
/// children cover. Joins the benchmark's spans and the program's own
/// (dispatch.select, select.predict, rank.*, refine.*, search.measure) by
/// parent id, starting from the spans named `root`.
///
/// Covered time is the self time of every non-root span on the roots'
/// threads, except spans named `wait` (the caller blocked on background
/// work). A wait counts only where some background span under the same
/// roots (on a pool thread) overlaps it, so idle or unattributed waiting
/// lowers the coverage.
TraceReport analyze_trace(const std::vector<telemetry::SpanRecord>& spans, const char* root,
                          const char* wait) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_id[spans[i].id] = i;
    if (spans[i].parent) children[spans[i].parent].push_back(i);
  }
  TraceReport out;
  std::map<std::pair<std::string, bool>, SelfTimeRow> rows;
  std::vector<std::pair<std::size_t, std::uint32_t>> stack;  // (span, root thread)
  std::vector<Interval> waits, background;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, root) != 0) continue;
    out.root_us += static_cast<double>(spans[i].duration_us);
    stack.push_back({i, spans[i].thread});
  }
  while (!stack.empty()) {
    const auto [i, root_thread] = stack.back();
    stack.pop_back();
    const auto& s = spans[i];
    const std::uint64_t begin = s.start_us, end = s.start_us + s.duration_us;
    std::vector<Interval> covered;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (std::size_t c : it->second) {
        stack.push_back({c, root_thread});
        const auto& k = spans[c];
        if (k.thread != s.thread) continue;
        const std::uint64_t kb = std::max(begin, k.start_us);
        const std::uint64_t ke = std::min(end, k.start_us + k.duration_us);
        if (kb < ke) covered.push_back({kb, ke});
      }
    }
    const std::uint64_t child_us = covered_length(std::move(covered), begin, end);
    const double self = static_cast<double>(s.duration_us - std::min(child_us, s.duration_us));
    const bool on_caller = s.thread == root_thread;
    const bool is_wait = on_caller && wait && std::strcmp(s.name, wait) == 0;
    if (is_wait) waits.push_back({begin, end});
    if (!on_caller) background.push_back({begin, end});
    auto& row = rows[{s.name, on_caller}];
    row.name = s.name;
    row.caller_thread = on_caller;
    ++row.count;
    row.self_us += self;
    if (on_caller && !is_wait && std::strcmp(s.name, root) != 0) out.covered_us += self;
    ++out.spans;
  }
  for (const auto& [b, e] : waits) {
    out.wait_us += static_cast<double>(e - b);
    out.wait_covered_us += static_cast<double>(covered_length(background, b, e));
  }
  out.covered_us += out.wait_covered_us;
  for (auto& [key, row] : rows) out.rows.push_back(row);
  std::sort(out.rows.begin(), out.rows.end(),
            [](const SelfTimeRow& a, const SelfTimeRow& b) { return a.self_us > b.self_us; });
  return out;
}

void print_self_time_table(const std::string& workload, const TraceReport& r) {
  std::printf("# self time, %s: %zu spans under the benchmark's roots, %.1f ms end-to-end wall\n",
              workload.c_str(), r.spans, r.root_us / 1000.0);
  if (r.wait_us > 0) {
    std::printf("# waiting on background work: %.1f ms, of which background spans cover %.1f ms\n",
                r.wait_us / 1000.0, r.wait_covered_us / 1000.0);
  }
  std::printf("# %-28s %-10s %10s %12s %9s\n", "span", "thread", "count", "self_ms", "of_wall");
  for (const auto& row : r.rows) {
    std::printf("# %-28s %-10s %10zu %12.2f %8.1f%%\n", row.name.c_str(),
                row.caller_thread ? "caller" : "background", row.count, row.self_us / 1000.0,
                r.root_us > 0 ? 100.0 * row.self_us / r.root_us : 0.0);
  }
}

// ------------------------------------------------------ direct layer calls --

/// Per-layer figures from direct calls into each module's public functions.
struct LayerProbe {
  std::vector<double> predict_us, tune_ms, validate_ns, launch_ns, featurize_ns, store_us,
      lookup_ns, analyze_us, launch_median_us;
  double probe_cands = 0, probe_s = 0, dense_cands = 0, dense_s = 0;
  double walk_points = 0, walk_s = 0, mlp_cands = 0, mlp_s = 0;
  double legal = 0, enumerated = 0, measured = 0, tuned = 0;
  std::size_t illegal = 0;  // probe results that broke a layer's contract
  std::map<std::string, std::vector<double>> execute_us;
  double exec_flops = 0, exec_s = 0;
};

template <typename Op>
void probe_op(const typename OperationTraits<Op>::Shape& s, const mlp::Regressor& model,
              const gpusim::Simulator& sim, bool tune_it, LayerProbe& p) {
  using Traits = OperationTraits<Op>;
  const auto& dev = sim.device();
  telemetry::Span root("bench.layer_probe");

  auto t0 = Clock::now();
  const auto pred = [&] {
    telemetry::Span span("bench.predict");
    return core::predict<Op>(s, model, dev);
  }();
  p.predict_us.push_back(ns_between(t0, Clock::now()) / 1000.0);
  p.legal += static_cast<double>(pred.legal);
  p.enumerated += static_cast<double>(pred.enumerated);

  const typename Traits::SearchSpace space;
  search::SearchProblem<Op> problem;
  problem.shape = &s;
  problem.device = &dev;
  problem.space = &space;
  problem.model = &model;
  search::SearchConfig probe_cfg = Traits::default_search();
  if (probe_cfg.max_candidates == 0) probe_cfg.max_candidates = 8192;  // predict()'s cap
  t0 = Clock::now();
  const auto probed = [&] {
    telemetry::Span span("bench.rank_strided_probe");
    return search::rank_strided_probe(problem, probe_cfg, 1);
  }();
  p.probe_s += seconds_between(t0, Clock::now());
  p.probe_cands += static_cast<double>(probed.candidates.size());

  // Candidate tunings for the per-call layers: the probe's legal set, capped.
  const std::size_t n = std::min<std::size_t>(probed.candidates.size(), 4096);
  std::vector<typename Traits::Tuning> tunings;
  tunings.reserve(n);
  for (std::size_t i = 0; i < n; ++i) tunings.push_back(space.decode(probed.candidates[i]));
  if (tunings.empty()) return;

  tuning::FeatureBatch batch(tuning::kNumFeatures, tunings.size());
  t0 = Clock::now();
  {
    telemetry::Span span("bench.featurize_into");
    for (std::size_t i = 0; i < tunings.size(); ++i) {
      Traits::featurize_into(s, tunings[i], batch.row(i));
    }
  }
  p.featurize_ns.push_back(ns_between(t0, Clock::now()) / static_cast<double>(tunings.size()));
  t0 = Clock::now();
  {
    telemetry::Span span("bench.predict_gflops_chunked");
    for (int rep = 0; rep < 4; ++rep) model.predict_gflops_chunked(batch, 2048);
  }
  p.mlp_s += seconds_between(t0, Clock::now());
  p.mlp_cands += 4.0 * static_cast<double>(tunings.size());

  std::size_t legal_count = 0;
  t0 = Clock::now();
  {
    telemetry::Span span("bench.validate");
    for (const auto& t : tunings) legal_count += Traits::validate(s, t, dev) ? 1 : 0;
  }
  p.validate_ns.push_back(ns_between(t0, Clock::now()) / static_cast<double>(tunings.size()));
  p.illegal += tunings.size() - legal_count;  // the probe must return legal points only

  const std::size_t launches = std::min<std::size_t>(tunings.size(), 256);
  std::vector<gpusim::KernelProfile> profiles;
  t0 = Clock::now();
  {
    telemetry::Span span("bench.analyze");
    for (std::size_t i = 0; i < launches; ++i) {
      profiles.push_back(Traits::analyze(s, tunings[i], dev));
    }
  }
  p.analyze_us.push_back(ns_between(t0, Clock::now()) / 1000.0 / static_cast<double>(launches));
  t0 = Clock::now();
  {
    telemetry::Span span("bench.launch");
    for (const auto& prof : profiles) sim.launch(prof);
  }
  p.launch_ns.push_back(ns_between(t0, Clock::now()) / static_cast<double>(launches));
  t0 = Clock::now();
  {
    telemetry::Span span("bench.launch_median");
    for (const auto& prof : profiles) sim.launch_median(prof, 3);
  }
  p.launch_median_us.push_back(ns_between(t0, Clock::now()) / 1000.0 /
                               static_cast<double>(launches));

  const auto cs = Traits::prefix_constraints(s, dev, space);
  std::uint64_t walked = 0;
  constexpr std::uint64_t kWalkCap = 1u << 18;
  t0 = Clock::now();
  {
    telemetry::Span span("bench.walk_legal");
    tuning::walk_legal(space.domains(), &cs, [&](const search::Choice&, std::uint64_t) {
      return ++walked < kWalkCap;
    });
  }
  p.walk_s += seconds_between(t0, Clock::now());
  p.walk_points += static_cast<double>(walked);

  // The profile cache on its own (a separate in-memory instance).
  core::ProfileCache cache("");
  const std::string device = dev.name;
  t0 = Clock::now();
  {
    telemetry::Span span("bench.cache_store");
    cache.store<Op>(device, s, tunings.front(),
                    core::ProfileCache::provenance("predict", 0, EntryTier::provisional));
    cache.upgrade<Op>(device, s, tunings.back(),
                      core::ProfileCache::provenance("model_topk", 100, EntryTier::refined));
  }
  p.store_us.push_back(ns_between(t0, Clock::now()) / 2000.0);
  constexpr int kLookups = 2000;
  EntryTier tier = EntryTier::provisional;
  std::size_t hits = 0;
  t0 = Clock::now();
  {
    telemetry::Span span("bench.cache_lookup");
    for (int i = 0; i < kLookups; ++i) hits += cache.lookup<Op>(device, s, &tier) ? 1 : 0;
  }
  p.lookup_ns.push_back(ns_between(t0, Clock::now()) / kLookups);
  if (hits != kLookups || tier != EntryTier::refined) ++p.illegal;

  if (!tune_it) return;
  t0 = Clock::now();
  const auto dense = [&] {
    telemetry::Span span("bench.rank_legal_space");
    return search::rank_legal_space(problem, Traits::default_search(), 100);
  }();
  p.dense_s += seconds_between(t0, Clock::now());
  p.dense_cands += static_cast<double>(dense.candidates.size());
  t0 = Clock::now();
  const auto tuned = [&] {
    telemetry::Span span("bench.tune");
    return core::tune<Op>(s, model, sim);
  }();
  p.tune_ms.push_back(ns_between(t0, Clock::now()) / 1e6);
  p.legal += static_cast<double>(tuned.legal);
  p.enumerated += static_cast<double>(tuned.enumerated);
  p.measured += static_cast<double>(tuned.measured);
  p.tuned += 1.0;
}

/// Host execution of each hot shape with the model's tier-1 choice, for the
/// workload that does not serve (its Context never executes).
void probe_execute(const std::vector<Shape>& hot, const mlp::Regressor& model,
                   const gpusim::DeviceDescriptor& dev, std::uint64_t seed, LayerProbe& p) {
  std::mt19937_64 rng(seed ^ 0xE8EC);
  telemetry::Span root("bench.layer_probe");
  for (const auto& shape : hot) {
    Buffers buf = make_buffers(shape, rng);
    std::visit(
        [&](const auto& s) {
          using Op = OpOf<decltype(s)>;
          using Traits = OperationTraits<Op>;
          const auto tuning = core::predict<Op>(s, model, dev).tuning;
          for (int rep = 0; rep < 5; ++rep) {
            const auto t0 = Clock::now();
            {
              telemetry::Span span("bench.execute");
              with_args(s, buf, [&](auto&&... args) { Traits::execute(s, tuning, args...); });
            }
            const double sec = seconds_between(t0, Clock::now());
            p.execute_us[Traits::kind()].push_back(sec * 1e6);
            p.exec_flops += Traits::flops(s);
            p.exec_s += sec;
          }
        },
        shape);
  }
}

/// linalg::gemm on the MLP's forward-pass layer shapes (2048-row scoring
/// chunks through 15 → 64 → 128 → 64 → 1).
double probe_linalg_gflops() {
  const std::size_t rows = 2048;
  const std::vector<std::size_t> widths = {tuning::kNumFeatures, 64, 128, 64, 1};
  double flops = 0.0, seconds = 0.0;
  telemetry::Span root("bench.layer_probe");
  for (std::size_t l = 0; l + 1 < widths.size(); ++l) {
    linalg::Matrix a(rows, widths[l], 0.5f), w(widths[l], widths[l + 1], 0.25f),
        z(rows, widths[l + 1]);
    const auto t0 = Clock::now();
    {
      telemetry::Span span("bench.linalg_gemm");
      for (int rep = 0; rep < 50; ++rep) {
        linalg::gemm(linalg::Trans::No, linalg::Trans::No, 1.0f, a, w, 0.0f, z);
      }
    }
    seconds += seconds_between(t0, Clock::now());
    flops += 50.0 * 2.0 * static_cast<double>(rows * widths[l] * widths[l + 1]);
  }
  return flops / seconds / 1e9;
}

// ----------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

std::string fmt(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) os << ", ";
    os << '"' << metrics[i].name << "\": {\"value\": " << fmt(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// The run's environment, on its own line before the result: every ISAAC_*
/// variable, the pool size, nproc and the build type.
void print_environment(const std::string& workload, std::uint64_t seed) {
  std::ostringstream os;
  os << "{\"environment\": {\"workload\": \"" << workload << "\", \"seed\": " << seed
     << ", \"pool_threads\": " << ThreadPool::global().size()
     << ", \"nproc\": " << std::thread::hardware_concurrency() << ", \"build_type\": \""
     << ISAAC_LEDGER_BUILD_TYPE << "\", \"isaac_env\": {";
  bool first = true;
  for (char** e = environ; *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("ISAAC_", 0) != 0) continue;
    const auto eq = kv.find('=');
    os << (first ? "" : ", ") << '"' << json_escape(kv.substr(0, eq)) << "\": \""
       << json_escape(eq == std::string::npos ? "" : kv.substr(eq + 1)) << '"';
    first = false;
  }
  os << "}}}";
  std::cout << os.str() << std::endl;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string outdir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "isaac_ledger: %s\nusage: isaac_ledger --workload hot_serve|cold_tune "
               "--seed N --seconds S --trace 0|1 [--outdir DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--outdir") {
        a.outdir = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (a.workload != "hot_serve" && a.workload != "cold_tune") {
    usage("--workload must be hot_serve or cold_tune");
  }
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  return a;
}

/// Histogram percentile from the telemetry registry (0 when never recorded).
double histogram_at(const telemetry::Snapshot& snap, const char* name, double q) {
  const auto* h = snap.find_histogram(name);
  if (!h || h->count == 0) return 0.0;
  return q >= 0.99 ? h->p99 : h->p50;
}

/// Each shape's fastest cold select over passes of one shape list: a stall
/// that hits one pass does not move the shape's figure.
std::vector<double> best_select_us(const std::vector<ColdPass>& passes) {
  std::vector<double> best = passes.front().select_us;
  for (const auto& p : passes) {
    for (std::size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], p.select_us[i]);
  }
  return best;
}

double tuned_per_s(const std::vector<ColdPass>& passes) {
  double shapes = 0.0, wall = 0.0;
  for (const auto& p : passes) {
    shapes += static_cast<double>(p.refined);
    wall += p.wall_s;
  }
  return wall > 0.0 ? shapes / wall : 0.0;
}

/// A cold pass counts each shape as one operation; a tuning-run count other
/// than one per shape is one more failure.
void tally(const ColdPass& pass, std::size_t& attempted, std::size_t& failed) {
  attempted += pass.shapes;
  failed += pass.failed + (pass.tuning_runs == pass.shapes ? 0 : 1);
}

std::unique_ptr<core::Context> context_with(const core::Context& trained) {
  auto ctx = make_context();
  ctx->install_model(trained.model_snapshot());
  return ctx;
}

/// The untimed cache-filling pass before cold_tune measures: one cold pass
/// over the paper's tasks fills the process-wide structural-skeleton cache,
/// so every measured pass sees the steady state.
ColdPass fill_pass(const core::Context& trained, const std::vector<Shape>& tasks,
                   const Quality& quality) {
  auto ctx = context_with(trained);
  return cold_pass(*ctx, tasks, quality, false);
}

int run_untraced(const Args& args) {
  const bool serving = args.workload != "cold_tune";
  const auto& dev = gpusim::tesla_p100();
  const Quality quality(dev);
  const auto hot = hot_set();
  const auto tasks = paper_tasks();
  std::size_t attempted = 0, failed = 0;

  // Set-up, several times: Context construction, train_model() and, for
  // the serving workloads, the warmup of the hot set. The last set-up's
  // Context serves or tunes.
  std::vector<double> setup_s;
  std::vector<ColdPass> warm;
  std::unique_ptr<core::Context> ctx;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ctx.reset();
    const auto t0 = Clock::now();
    ctx = make_context();
    ctx->train_model();
    if (serving) {
      warm.push_back(cold_pass(*ctx, hot, quality, false));
      tally(warm.back(), attempted, failed);
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  if (!serving) {
    warm.push_back(fill_pass(*ctx, tasks, quality));
    tally(warm.back(), attempted, failed);
  }

  std::vector<Metric> m;
  m.push_back({"setup_s", median(setup_s), "s"});
  if (serving) {
    const ServeResult r = serve(*ctx, hot, args.seed, args.seconds, false, 0);
    attempted += r.attempted;
    failed += r.failed;
    const ColdPass& q = warm.back();
    for (const auto& line : q.lines) std::printf("# %s\n", line.c_str());
    const auto cold = best_select_us(warm);
    std::printf("# calls per second of the run:");
    for (double c : r.window_calls) std::printf(" %.0f", c);
    std::printf("\n# p99 us per second of the run:");
    for (double us : r.window_p99_us) std::printf(" %.0f", us);
    std::printf("\n");
    m.push_back({"calls_per_s", median(r.window_calls), "calls/s"});
    m.push_back({"call_p50_us", median(r.window_p50_us), "us"});
    m.push_back({"call_p90_us", median(r.window_p90_us), "us"});
    m.push_back({"cold_select_p50_us", quantile(cold, 0.50), "us"});
    m.push_back({"cold_select_p90_us", quantile(cold, 0.90), "us"});
    m.push_back({"tuned_shapes_per_s", tuned_per_s(warm), "shapes/s"});
    m.push_back({"gemm_vs_cublas_refined", geomean(q.gemm_refined), "ratio"});
    m.push_back({"gemm_vs_cublas_provisional", geomean(q.gemm_provisional), "ratio"});
    m.push_back({"conv_vs_cudnn_refined", geomean(q.conv_refined), "ratio"});
    m.push_back({"conv_vs_cudnn_provisional", geomean(q.conv_provisional), "ratio"});
  } else {
    // Cold passes, each into a fresh Context holding the set-up model, until
    // the run's time is spent (at least one pass). A call here is one cold
    // shape taken to the refined tier: its select() and its drain.
    std::vector<ColdPass> passes;
    const auto begin = Clock::now();
    do {
      auto fresh = context_with(*ctx);
      passes.push_back(cold_pass(*fresh, tasks, quality, false));
      tally(passes.back(), attempted, failed);
    } while (seconds_between(begin, Clock::now()) < args.seconds);
    std::vector<double> refined_us;
    for (const auto& p : passes) {
      refined_us.insert(refined_us.end(), p.refined_us.begin(), p.refined_us.end());
    }
    // The fill pass's selects are as cold as the measured ones.
    std::vector<ColdPass> all = passes;
    all.push_back(warm.back());
    const auto cold = best_select_us(all);
    const ColdPass& q = passes.front();
    for (const auto& line : q.lines) std::printf("# %s\n", line.c_str());
    // A call here is one tuning request, so calls_per_s and
    // tuned_shapes_per_s are the same figure under both names.
    const double tuned = tuned_per_s(passes);
    m.push_back({"calls_per_s", tuned, "calls/s"});
    m.push_back({"call_p50_us", quantile(refined_us, 0.50), "us"});
    m.push_back({"call_p90_us", quantile(refined_us, 0.90), "us"});
    m.push_back({"cold_select_p50_us", quantile(cold, 0.50), "us"});
    m.push_back({"cold_select_p90_us", quantile(cold, 0.90), "us"});
    m.push_back({"tuned_shapes_per_s", tuned, "shapes/s"});
    m.push_back({"gemm_vs_cublas_refined", geomean(q.gemm_refined), "ratio"});
    m.push_back({"gemm_vs_cublas_provisional", geomean(q.gemm_provisional), "ratio"});
    m.push_back({"conv_vs_cudnn_refined", geomean(q.conv_refined), "ratio"});
    m.push_back({"conv_vs_cudnn_provisional", geomean(q.conv_provisional), "ratio"});
  }
  ctx.reset();
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  const bool correct = failed == 0;
  std::printf("# failed_frac %.6g (%zu of %zu operations)\n",
              static_cast<double>(failed) / static_cast<double>(attempted), failed, attempted);
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

int run_traced(const Args& args) {
  const bool serving = args.workload != "cold_tune";
  const auto& dev = gpusim::tesla_p100();
  const Quality quality(dev);
  const auto hot = hot_set();
  const auto tasks = paper_tasks();
  std::size_t attempted = 0, failed = 0;

  auto ctx = make_context();
  const SetupTimes times = train_model_timed(*ctx);
  std::optional<ColdPass> warm;
  if (serving) {
    warm = cold_pass(*ctx, hot, quality, false);
    tally(*warm, attempted, failed);
  } else {
    tally(fill_pass(*ctx, tasks, quality), attempted, failed);
  }

  // Untraced, then traced: the same workload, half the run each.
  constexpr std::size_t kSpanCapacity = std::size_t{1} << 20;
  const double half = args.seconds / 2.0;
  std::optional<ServeResult> base, traced;
  std::optional<ColdPass> base_pass, traced_pass;
  if (serving) {
    base = serve(*ctx, hot, args.seed, half, false, 0);
  } else {
    auto fresh = context_with(*ctx);
    base_pass = cold_pass(*fresh, tasks, quality, false);
    tally(*base_pass, attempted, failed);
  }
  telemetry::set_trace_capacity(kSpanCapacity);
  telemetry::clear_trace();
  telemetry::set_enabled(true);
  telemetry::set_tracing(true);
  if (serving) {
    // Each replayed call records six spans; stay well inside the ring.
    traced = serve(*ctx, hot, args.seed + 1, half, true, kSpanCapacity / 8);
  } else {
    auto fresh = context_with(*ctx);
    traced_pass = cold_pass(*fresh, tasks, quality, true);
    tally(*traced_pass, attempted, failed);
  }
  const telemetry::Snapshot during = telemetry::snapshot(true);
  const TraceReport report =
      serving ? analyze_trace(during.spans, "bench.run", nullptr)
              : analyze_trace(during.spans, "bench.cold_pass", "bench.drain");

  // Direct calls into each layer on the workload's own shapes; one shape
  // per op kind also runs the dense ranking and a full tune.
  LayerProbe p;
  const auto model = ctx->model_snapshot();
  const mlp::Regressor& regressor = model->regressor();
  std::set<std::string> tuned_kinds;
  for (const auto& shape : serving ? hot : tasks) {
    const bool tune_it = tuned_kinds.insert(kind_of(shape)).second;
    std::visit(
        [&](const auto& s) {
          using Op = OpOf<decltype(s)>;
          probe_op<Op>(s, regressor, ctx->simulator(), tune_it, p);
        },
        shape);
  }
  if (!serving) probe_execute(hot, regressor, dev, args.seed, p);
  const double linalg_gflops = probe_linalg_gflops();
  attempted += 1;
  failed += p.illegal ? 1 : 0;

  const telemetry::Snapshot final_snap = telemetry::snapshot(true);
  const std::string dump = args.outdir + "/trace_" + args.workload + ".json";
  if (std::ofstream out(dump); out) out << telemetry::to_json(final_snap) << '\n';
  telemetry::set_tracing(false);
  telemetry::set_enabled(false);

  std::vector<Metric> m;
  const auto add = [&](const char* name, double v, const char* unit) {
    m.push_back({name, v, unit});
  };
  double overhead = 0.0;
  if (serving) {
    attempted += base->attempted + traced->attempted;
    failed += base->failed + traced->failed;
    const double base_cps = static_cast<double>(base->calls) / base->wall_s;
    const double traced_cps = static_cast<double>(traced->calls) / traced->wall_s;
    overhead = base_cps / traced_cps - 1.0;
  } else {
    overhead = traced_pass->wall_s / base_pass->wall_s - 1.0;
  }
  const Phases* ph = serving ? &traced->phases : nullptr;
  const auto exec_us = [&](const char* kind) {
    return median(ph ? ph->execute_us.at(kind) : p.execute_us.at(kind));
  };
  const ColdPass& tuned_pass = serving ? *warm : *traced_pass;
  const std::size_t cold_shapes = tuned_pass.shapes;

  add("serve.call_p99_us",
      serving ? median(base->window_p99_us) : quantile(base_pass->refined_us, 0.99), "us");
  add("core.select_hit_ns", median(serving ? ph->select_ns : traced_pass->hit_ns), "ns");
  add("core.cache_lookup_ns", median(p.lookup_ns), "ns");
  add("core.cache_store_us", median(p.store_us), "us");
  add("core.predict_us", median(p.predict_us), "us");
  add("core.tune_ms", median(p.tune_ms), "ms");
  add("core.refine_queue_us", histogram_at(during, "refine.queue_us", 0.5), "us");
  add("core.tuning_runs_per_shape",
      static_cast<double>(serving ? ctx->tuning_runs() : tuned_pass.tuning_runs) /
          static_cast<double>(cold_shapes),
      "count");
  add("core.refined_call_frac",
      serving ? static_cast<double>(base->refined_calls) / static_cast<double>(base->calls) : 0.0,
      "ratio");
  add("codegen.execute_us.gemm", exec_us("gemm"), "us");
  add("codegen.execute_us.bgemm", exec_us("bgemm"), "us");
  add("codegen.execute_us.conv", exec_us("conv"), "us");
  add("codegen.execute_gflops",
      ph ? ph->exec_flops / ph->exec_s / 1e9 : p.exec_flops / p.exec_s / 1e9, "GFLOP/s");
  add("codegen.analyze_us", median(ph ? ph->analyze_us : p.analyze_us), "us");
  add("codegen.validate_ns", median(p.validate_ns), "ns");
  add("gpusim.launch_median_us", median(ph ? ph->launch_median_us : p.launch_median_us), "us");
  add("gpusim.launch_ns", median(p.launch_ns), "ns");
  add("gpusim.launches_per_tuned_shape",
      static_cast<double>(tuned_pass.launches) / static_cast<double>(tuned_pass.refined), "count");
  add("search.probe_cands_per_s", p.probe_cands / p.probe_s, "1/s");
  add("search.dense_cands_per_s", p.dense_cands / p.dense_s, "1/s");
  add("search.measured_per_shape", p.measured / p.tuned, "count");
  add("search.legal_frac", p.legal / p.enumerated, "ratio");
  add("tuning.walk_points_per_s", p.walk_points / p.walk_s, "1/s");
  add("tuning.featurize_ns", median(p.featurize_ns), "ns");
  add("tuning.collect_samples_per_s", static_cast<double>(times.samples) / times.collect_s, "1/s");
  add("mlp.predict_cands_per_s", p.mlp_cands / p.mlp_s, "1/s");
  add("mlp.train_s", times.train_s, "s");
  add("linalg.gemm_gflops", linalg_gflops, "GFLOP/s");
  add("pool.queue_delay_us.p50", histogram_at(during, "pool.queue_delay_us", 0.5), "us");
  add("pool.queue_delay_us.p99", histogram_at(during, "pool.queue_delay_us", 0.99), "us");
  add("trace.overhead_frac", overhead, "ratio");
  add("trace.coverage", report.root_us > 0 ? report.covered_us / report.root_us : 0.0, "ratio");
  add("trace.spans_dropped", static_cast<double>(final_snap.spans_dropped), "count");

  print_self_time_table(args.workload, report);
  std::printf("# trace written to %s\n", dump.c_str());
  ctx.reset();
  const bool correct = failed == 0;
  std::printf("# failed_frac %.6g (%zu of %zu operations)\n",
              static_cast<double>(failed) / static_cast<double>(attempted), failed, attempted);
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // Hermetic runs: injected faults or an environment-driven telemetry dump
  // would change what is measured.
  for (const char* var : {"ISAAC_FAILPOINTS", "ISAAC_TELEMETRY", "ISAAC_TELEMETRY_FLUSH_MS",
                          "ISAAC_TELEMETRY_SPANS"}) {
    if (std::getenv(var)) {
      std::fprintf(stderr, "isaac_ledger: refusing to run with %s set\n", var);
      return 2;
    }
  }
  print_environment(args.workload, args.seed);
  try {
    return args.trace ? run_traced(args) : run_untraced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "isaac_ledger: %s\n", e.what());
    return 1;
  }
}
