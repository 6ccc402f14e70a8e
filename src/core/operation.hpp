// The Operation abstraction: one trait class per tunable operation, so every
// layer of the pipeline (data collection, runtime inference, the profile
// cache, dispatch) is written once against OperationTraits<Op> instead of
// per-op copies. See DESIGN.md for the full contract and a walkthrough of
// adding a new operation.
//
// An OperationTraits<Op> specialization provides:
//   Shape / Tuning / SearchSpace      — the op's input, config and X̂ types
//   kind()                            — stable identifier ("gemm"), used in
//                                       cache keys and on-disk records
//   validate / analyze                — legality and lowering to
//                                       KernelProfile
//   featurize_into(shape, t, out)     — the regression feature vector,
//                                       written in place (kNumFeatures
//                                       doubles)
//   prefix_constraints(shape, dev,
//                      space)         — the per-dimension partial-validity
//                                       layer for the constraint-propagating
//                                       space walk (tuning::walk_legal):
//                                       necessary conditions of validate,
//                                       evaluated on prefixes so illegal
//                                       subtrees are pruned unvisited
//   flops(shape)                      — useful FLOPs of one call
//   shape_key / encode_tuning /
//   decode_tuning                     — cache key derivation and the textual
//                                       tuning codec for the profile cache
//   seed_grid()                       — coarse always-tried configurations,
//                                       appended when inference subsamples X̂
//   default_search()                  — the op's baseline SearchConfig
//                                       (budget, ranking cap)
//   execute(shape, tuning, args...)   — the functional executor hook
//
// Every hook is required; an empty ConstraintSet from prefix_constraints is
// legal and makes the walk a plain generate-and-test sweep.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "codegen/batched_gemm.hpp"
#include "codegen/batched_gemm_executor.hpp"
#include "codegen/conv.hpp"
#include "codegen/conv_executor.hpp"
#include "codegen/gemm.hpp"
#include "codegen/gemm_executor.hpp"
#include "gpusim/device.hpp"
#include "gpusim/kernel_profile.hpp"
#include "search/config.hpp"
#include "tuning/dataset.hpp"
#include "tuning/search_space.hpp"

namespace isaac::core {

/// Operation tags. Each names one tunable kernel family.
struct GemmOp {};
struct ConvOp {};
struct BatchedGemmOp {};

template <typename Op>
struct OperationTraits;

template <>
struct OperationTraits<GemmOp> {
  using Shape = codegen::GemmShape;
  using Tuning = codegen::GemmTuning;
  using SearchSpace = tuning::GemmSearchSpace;

  static constexpr const char* kind() { return "gemm"; }

  static bool validate(const Shape& s, const Tuning& t, const gpusim::DeviceDescriptor& dev,
                       std::string* why = nullptr) {
    return codegen::validate(s, t, dev, why);
  }
  static gpusim::KernelProfile analyze(const Shape& s, const Tuning& t,
                                       const gpusim::DeviceDescriptor& dev) {
    return codegen::analyze(s, t, dev);
  }
  static void featurize_into(const Shape& s, const Tuning& t, double* out) {
    tuning::features_into(s, t, out);
  }
  static double flops(const Shape& s) { return s.flops(); }

  /// Prefix predicates for the pruned legal-space walk: tile divisibility,
  /// shared-memory/occupancy bounds, reduction-split limits.
  static tuning::ConstraintSet prefix_constraints(const Shape& s,
                                                  const gpusim::DeviceDescriptor& dev,
                                                  const SearchSpace& space) {
    return space.prefix_constraints(s, dev);
  }

  static std::string shape_key(const Shape& s);
  static std::string encode_tuning(const Tuning& t);
  static bool decode_tuning(const std::string& text, Tuning& t);
  static const std::vector<Tuning>& seed_grid();
  /// Baseline search: the paper's recipe (model-ranked top-100 re-timed),
  /// ranking the GEMM X̂ densely.
  static search::SearchConfig default_search() {
    search::SearchConfig cfg;
    cfg.budget = 100;
    return cfg;
  }

  template <typename... Args>
  static void execute(const Shape& s, const Tuning& t, Args&&... args) {
    codegen::execute_gemm(s, t, std::forward<Args>(args)...);
  }
};

template <>
struct OperationTraits<ConvOp> {
  using Shape = codegen::ConvShape;
  using Tuning = codegen::ConvTuning;
  using SearchSpace = tuning::ConvSearchSpace;

  static constexpr const char* kind() { return "conv"; }

  static bool validate(const Shape& s, const Tuning& t, const gpusim::DeviceDescriptor& dev,
                       std::string* why = nullptr) {
    return codegen::validate(s, t, dev, why);
  }
  static gpusim::KernelProfile analyze(const Shape& s, const Tuning& t,
                                       const gpusim::DeviceDescriptor& dev) {
    return codegen::analyze(s, t, dev);
  }
  static void featurize_into(const Shape& s, const Tuning& t, double* out) {
    tuning::features_into(s, t, out);
  }
  static double flops(const Shape& s) { return s.flops(); }

  /// Prefix predicates through the implicit-GEMM lowering (output-extent and
  /// C·R·S reduction limits plus the lowered GEMM's structural bounds).
  static tuning::ConstraintSet prefix_constraints(const Shape& s,
                                                  const gpusim::DeviceDescriptor& dev,
                                                  const SearchSpace& space) {
    return space.prefix_constraints(s, dev);
  }

  static std::string shape_key(const Shape& s);
  static std::string encode_tuning(const Tuning& t);
  static bool decode_tuning(const std::string& text, Tuning& t);
  static const std::vector<Tuning>& seed_grid();
  /// The conv X̂ is ~10^7; model-guided ranking subsamples it by default.
  static search::SearchConfig default_search() {
    search::SearchConfig cfg = OperationTraits<GemmOp>::default_search();
    cfg.max_candidates = 200000;
    return cfg;
  }

  template <typename... Args>
  static void execute(const Shape& s, const Tuning& t, Args&&... args) {
    codegen::execute_conv(s, t, std::forward<Args>(args)...);
  }
};

template <>
struct OperationTraits<BatchedGemmOp> {
  using Shape = codegen::BatchedGemmShape;
  using Tuning = codegen::GemmTuning;
  using SearchSpace = tuning::BatchedGemmSearchSpace;

  static constexpr const char* kind() { return "bgemm"; }

  static bool validate(const Shape& s, const Tuning& t, const gpusim::DeviceDescriptor& dev,
                       std::string* why = nullptr) {
    return codegen::validate(s, t, dev, why);
  }
  static gpusim::KernelProfile analyze(const Shape& s, const Tuning& t,
                                       const gpusim::DeviceDescriptor& dev) {
    return codegen::analyze(s, t, dev);
  }
  static void featurize_into(const Shape& s, const Tuning& t, double* out) {
    tuning::features_into(s, t, out);
  }
  static double flops(const Shape& s) { return s.flops(); }

  /// The per-matrix GEMM layer, plus the batched-specific conditions: an
  /// empty batch makes everything illegal, and KG must stay 1. The default
  /// batched space pins KG = {1} in its domain already; the predicate keeps
  /// the layer exact for subclass spaces that widen it.
  static tuning::ConstraintSet prefix_constraints(const Shape& s,
                                                  const gpusim::DeviceDescriptor& dev,
                                                  const SearchSpace& space) {
    codegen::GemmShape g = s.gemm;
    if (s.batch <= 0) g.k = 0;  // degenerate → the builder emits a prune-all predicate
    tuning::ConstraintSet cs = space.prefix_constraints(g, dev);
    constexpr std::size_t kg = tuning::dim_of<tuning::GemmParameters>(&Tuning::kg);
    cs.add_unary(kg, [](const int* v) { return v[kg] == 1; });
    return cs;
  }

  static std::string shape_key(const Shape& s);
  static std::string encode_tuning(const Tuning& t);
  static bool decode_tuning(const std::string& text, Tuning& t);
  /// GEMM seeds with KG > 1 exist in the grid but fail batched validation, so
  /// sharing the grid is safe.
  static const std::vector<Tuning>& seed_grid();
  static search::SearchConfig default_search() {
    return OperationTraits<GemmOp>::default_search();
  }

  template <typename... Args>
  static void execute(const Shape& s, const Tuning& t, Args&&... args) {
    codegen::execute_batched_gemm(s, t, std::forward<Args>(args)...);
  }
};

}  // namespace isaac::core
