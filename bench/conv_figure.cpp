#include "conv_figure.hpp"

#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "baselines/cudnn_sim.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/inference.hpp"

namespace isaac::bench {

ConvFigureOptions parse_conv_flags(int argc, char** argv, const std::string& program,
                                   const std::string& description) {
  CliParser cli(program, description);
  cli.add_flag("full", "paper-scale run: larger candidate budget", false);
  cli.add_int("seed", "simulation / training seed", 0x15AAC);
  ConvFigureOptions opts;
  if (!cli.parse(argc, argv)) {
    opts.device = nullptr;
    return opts;
  }
  opts.full = cli.get_flag("full");
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  return opts;
}

int run_conv_figure(const ConvFigureOptions& options) {
  if (options.device == nullptr) return 0;
  const auto& dev = *options.device;
  banner(options.title, dev);

  ModelOptions model_opts;
  model_opts.seed = options.seed;
  const auto model = conv_model(dev, model_opts);
  const gpusim::Simulator sim(dev, 0.03, options.seed);
  const baselines::CudnnSim cudnn(dev);
  auto inference = bench_inference(options.full);
  inference.max_candidates = options.full ? 200000 : 20000;

  Table table({"group", "task", "NPQ", "CRS", "ISAAC TFLOPS", "cuDNN TFLOPS", "ISAAC/cuDNN",
               "ISAAC kernel"});

  for (const auto& task : options.tasks) {
    core::ConvTuneResult isaac_result;
    try {
      isaac_result = core::tune<core::ConvOp>(task.shape, model, sim, inference);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[bench] %s: tuning failed: %s\n", task.label.c_str(), e.what());
      continue;
    }
    const auto heuristic = cudnn.run_heuristic(sim, task.shape);
    const double isaac_gf = isaac_result.best.measured_gflops;
    const double cudnn_gf = heuristic.valid ? heuristic.gflops : 0.0;

    table.add_row({task.group, task.label, std::to_string(task.shape.npq()),
                   std::to_string(task.shape.crs()), tflops(isaac_gf), tflops(cudnn_gf),
                   cudnn_gf > 0 ? Table::fmt_double(isaac_gf / cudnn_gf, 2) + "x" : "-",
                   isaac_result.best.tuning.to_string()});
  }

  table.print(std::cout);
  std::printf("\nNotes: simulated device; cuDNN column = IMPLICIT_PRECOMP_GEMM heuristics.\n");
  return 0;
}

}  // namespace isaac::bench
