// Shared infrastructure for the bench harnesses: the paper's task tables
// (Table 4 for GEMM, Table 5 for CONV) with the paper's reported numbers for
// side-by-side printing, plus cached model training so each bench binary can
// run standalone without re-collecting data.
//
// Absolute TFLOPS come from the device simulator, so only the *shape* of each
// result (who wins, by what factor, where crossovers fall) is comparable to
// the paper; each bench prints the paper's number beside its own.
#pragma once

#include <string>
#include <vector>

#include "codegen/conv.hpp"
#include "codegen/gemm.hpp"
#include "core/inference.hpp"
#include "gpusim/simulator.hpp"
#include "mlp/regressor.hpp"

namespace isaac::bench {

// ---------------------------------------------------------------- tasks -----

struct GemmTask {
  std::string group;  // LINPACK / DeepBench [F] / DeepBench [B] / ICA / Blocked SVD
  std::string label;  // e.g. "N=16"
  codegen::GemmShape shape;
};

/// Table 4 task list (fp32 by default; fig-8 benches override dtype).
std::vector<GemmTask> table4_gemm_tasks(gpusim::DataType dtype_square = gpusim::DataType::F32,
                                        gpusim::DataType dtype_deepbench = gpusim::DataType::F32,
                                        gpusim::DataType dtype_ica = gpusim::DataType::F32,
                                        gpusim::DataType dtype_svd = gpusim::DataType::F32);

struct ConvTask {
  std::string group;  // DeepSpeech / OCR / ...
  std::string label;  // Conv1..Conv14
  codegen::ConvShape shape;
};

/// Table 5 task list (Conv1..Conv14).
std::vector<ConvTask> table5_conv_tasks(gpusim::DataType dtype = gpusim::DataType::F32);

// ---------------------------------------------------------------- models ----

struct ModelOptions {
  std::size_t samples = 10000;
  int epochs = 12;
  std::vector<int> hidden{64, 128, 64};
  std::uint64_t seed = 0x15AAC;
};

/// Train (or load from ./isaac_bench_cache) a GEMM performance model for the
/// device. The cache key covers device + options, so --full runs retrain.
mlp::Regressor gemm_model(const gpusim::DeviceDescriptor& dev, const ModelOptions& opts = {});

/// Same for the CONV generator (trained on conv-collected data).
mlp::Regressor conv_model(const gpusim::DeviceDescriptor& dev, const ModelOptions& opts = {});

/// Default runtime-search settings for benches (subsampled candidate set;
/// pass --full to a bench to lift the cap).
search::SearchConfig bench_inference(bool full);

// ---------------------------------------------------------------- output ----

/// "x.xx TFLOPS" formatting helper.
std::string tflops(double gflops);

/// Print the standard bench banner.
void banner(const std::string& title, const gpusim::DeviceDescriptor& dev);

}  // namespace isaac::bench
