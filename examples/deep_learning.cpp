// Deep-learning workload: tune the GEMMs of a DeepBench-style fully
// connected layer (forward + weight-gradient passes) across batch sizes.
//
// Demonstrates the paper's motivating observation: the best kernel changes
// with the batch size N — small batches want narrow N tiles and reduction
// splitting, large batches want wide tiles — so a single static kernel
// cannot serve them all.
//
// Build & run:   ./build/examples/deep_learning
#include <cstdio>
#include <iostream>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/isaac.hpp"
#include "gpusim/device.hpp"

int main() {
  using namespace isaac;

  core::ContextOptions options;
  options.search.max_candidates = 30000;
  options.search.budget = 100;
  core::Context ctx(gpusim::tesla_p100(), options);
  std::printf("training the input-aware model...\n");
  ctx.train_model(/*samples=*/4000, /*epochs=*/10);

  const std::int64_t layer = 2560;  // DeepBench hidden-layer width
  Table table({"pass", "batch N", "selected kernel", "TFLOPS"});

  for (std::int64_t batch : {16, 32, 64, 128}) {
    // Forward: Y = W * X   with W [layer x layer], X [layer x batch] — (N,N).
    codegen::GemmShape fwd;
    fwd.m = layer;
    fwd.n = batch;
    fwd.k = layer;

    // Weight gradient: dW = dY * X^T — a (N,T)-layout product; here we use
    // the paper's backward benchmark layout (T,N).
    codegen::GemmShape bwd = fwd;
    bwd.trans_a = true;

    Rng rng(static_cast<std::uint64_t>(batch));
    std::vector<float> w(static_cast<std::size_t>(layer * layer));
    std::vector<float> x(static_cast<std::size_t>(layer * batch));
    std::vector<float> y(static_cast<std::size_t>(layer * batch));
    for (auto& v : w) v = static_cast<float>(rng.uniform(-0.1, 0.1));
    for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));

    const auto f = ctx.run<core::GemmOp>(fwd, 1.0f, w.data(), layer, x.data(), layer, 0.0f,
                                         y.data(), layer);
    table.add_row({"forward", std::to_string(batch), f.tuning.to_string(),
                   Table::fmt_double(f.gflops / 1000.0, 2)});

    const auto b = ctx.run<core::GemmOp>(bwd, 1.0f, w.data(), layer, x.data(), layer, 0.0f,
                                         y.data(), layer);
    table.add_row({"backward", std::to_string(batch), b.tuning.to_string(),
                   Table::fmt_double(b.gflops / 1000.0, 2)});
  }

  table.print(std::cout);
  std::printf("\nNote how NL tracks the batch size and how the backward (transposed)\n"
              "layouts lean on reduction splitting — no single kernel serves all rows.\n");
  return 0;
}
