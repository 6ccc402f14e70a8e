// Benchmark-data collection (paper §4): sample (shape, tuning) pairs from the
// generative model, time each kernel on the simulated device, and emit the
// (features, GFLOPS) dataset the regression model trains on.
//
// Shapes are drawn log-uniformly across the input domain the paper's
// evaluation spans (square LINPACK blocks through deep ICA reductions and
// skinny DeepBench panels), with random transposition layouts and data types,
// so the learned model is input-aware by construction.
#pragma once

#include <cstdint>

#include "gpusim/simulator.hpp"
#include "tuning/dataset.hpp"
#include "tuning/generative.hpp"

namespace isaac::tuning {

struct CollectorConfig {
  std::size_t num_samples = 10000;
  /// Uniform probing budget used to fit the categorical model before
  /// collection starts. Probing only runs the validator (no simulation), so
  /// it is cheap; with the α = 100 Dirichlet prior and a ~1% legal fraction
  /// the posterior needs tens of thousands of probes to sharpen.
  std::size_t probe_samples = 60000;
  double alpha = 100.0;  // Dirichlet prior (paper §4.1)
  std::uint64_t seed = 0xDA7A;
  /// Shape domain (log-uniform). K ranges deeper than M/N to cover the
  /// covariance-matrix regime (§3).
  std::int64_t min_mn = 16, max_mn = 4096;
  std::int64_t min_k = 16, max_k = 65536;
  bool sample_dtypes = true;       // f32/f16/f64 mix (f32-weighted)
  bool sample_layouts = true;      // random transpositions
  int timing_reps = 3;             // median-of-reps measurement
};

struct CollectionReport {
  Dataset dataset;
  AcceptanceStats probe;       // uniform probing acceptance
  AcceptanceStats generation;  // categorical-model acceptance during collection
  double wall_seconds_simulated = 0.0;  // sum of simulated kernel times
};

/// Collect GEMM training data on the given simulator.
CollectionReport collect_gemm(const gpusim::Simulator& sim, const CollectorConfig& config);

/// Collect CONV training data (features are the implicit-GEMM encoding).
CollectionReport collect_conv(const gpusim::Simulator& sim, const CollectorConfig& config);

/// Collect strided-batched GEMM training data (features are the equivalent
/// flattened-GEMM encoding, so one regression model serves all operations).
CollectionReport collect_batched_gemm(const gpusim::Simulator& sim,
                                      const CollectorConfig& config);

/// Draw a random shape from the collector's shape distribution
/// (exposed for tests and the Fig. 5 bench).
codegen::GemmShape random_gemm_shape(const CollectorConfig& config, Rng& rng);
codegen::ConvShape random_conv_shape(const CollectorConfig& config, Rng& rng);
codegen::BatchedGemmShape random_batched_gemm_shape(const CollectorConfig& config, Rng& rng);

}  // namespace isaac::tuning
