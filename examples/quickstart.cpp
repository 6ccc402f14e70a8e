// Quickstart: the whole ISAAC pipeline in one file.
//
//   1. create a Context bound to a (simulated) device,
//   2. train the input-aware performance model (data generation + MLP),
//   3. call isaac::gemm — the runtime infers the best kernel for *this*
//      input shape, caches it, executes it, and reports the device timing.
//
// Build & run:   ./build/examples/quickstart
#include <cstdio>
#include <vector>

#include "core/isaac.hpp"
#include "gpusim/device.hpp"

int main() {
  using namespace isaac;

  // 1. A context on the Tesla P100 model. On real hardware this step would
  //    bind a CUDA device; here it binds the calibrated simulator.
  core::ContextOptions options;
  options.search.max_candidates = 30000;  // subsample the model ranking for speed
  options.search.budget = 100;
  core::Context ctx(gpusim::tesla_p100(), options);

  // 2. Offline auto-tuning: benchmark a few thousand sampled kernels and fit
  //    the regression model (the paper spends a few hours here on real
  //    silicon; the simulator makes it seconds).
  std::printf("training the input-aware model...\n");
  ctx.train_model(/*samples=*/4000, /*epochs=*/10);

  // 3. A skinny DeepBench-style multiplication: C = A * B with
  //    M = K = 2560 and batch N = 32 — exactly the regime where static
  //    libraries lose to input-aware selection.
  codegen::GemmShape shape;
  shape.m = 2560;
  shape.n = 32;
  shape.k = 2560;

  std::vector<float> a(static_cast<std::size_t>(shape.m * shape.k), 0.5f);
  std::vector<float> b(static_cast<std::size_t>(shape.k * shape.n), 0.25f);
  std::vector<float> c(static_cast<std::size_t>(shape.m * shape.n), 0.0f);

  const auto info = ctx.run<core::GemmOp>(shape, 1.0f, a.data(), shape.m, b.data(), shape.k, 0.0f,
                                          c.data(), shape.m);

  std::printf("\nselected kernel : %s\n", info.tuning.to_string().c_str());
  std::printf("simulated time  : %.1f us\n", info.simulated_seconds * 1e6);
  std::printf("performance     : %.2f TFLOPS\n", info.gflops / 1000.0);
  std::printf("from cache      : %s\n", info.from_cache ? "yes" : "no");
  std::printf("C[0]            : %.3f (expect %lld * 0.5 * 0.25 = %.3f)\n", c[0],
              static_cast<long long>(shape.k), 0.5 * 0.25 * static_cast<double>(shape.k));

  // A second call with the same shape hits the kernel cache: no re-tuning.
  const auto again = ctx.run<core::GemmOp>(shape, 1.0f, a.data(), shape.m, b.data(), shape.k, 0.0f,
                                          c.data(), shape.m);
  std::printf("second call     : from cache = %s\n", again.from_cache ? "yes" : "no");
  return 0;
}
