// Search spaces over tuning parameters.
//
// The paper distinguishes the *possible* space X̂ (anything the sampler can
// emit — the cartesian product of per-parameter candidate lists) from the
// *legal* space X (configurations that compile and run within hardware
// limits). SearchSpace enumerates/draws from X̂; legality is always judged by
// codegen::validate against a concrete (shape, device).
//
// Getting from X̂ to X used to cost a full generate-and-test sweep (only ~3%
// of the GEMM X̂ survives). The ConstraintSet layer below propagates
// per-dimension *necessary* conditions while walking the space instead:
// walk_legal binds parameters from the highest dimension down, evaluates each
// predicate the moment its inputs are bound, and skips the entire subtree
// under any failing prefix — so legal-space iteration cost scales with X (plus
// the plausible fringe), not |X̂|. A final codegen::validate gate keeps the
// result exactly X.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "codegen/conv.hpp"
#include "codegen/gemm.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"

namespace isaac::tuning {

/// One tunable parameter: a name and its candidate values.
struct ParameterDomain {
  std::string name;
  std::vector<int> values;
};

/// The per-dimension partial-validity layer over a ParameterDomain list:
/// predicates over a *prefix* of bound parameter values, bucketed by the
/// dimension at which each becomes decidable. A predicate registered at
/// dimension `dim` receives the full values-by-dimension array but may only
/// read dimensions ≥ dim — the pruned walk binds dimensions from the highest
/// index down, so exactly those are bound when the predicate first runs.
///
/// Contract: a predicate must be a *necessary* condition for legality — if it
/// fails, no completion of the bound prefix passes codegen::validate. A
/// lenient predicate only costs pruning power; a too-strict one would
/// silently drop legal points (the exhaustive-vs-pruned parity tests and
/// the prefix-soundness test guard against that).
class ConstraintSet {
 public:
  using Check = std::function<bool(const int* values)>;

  /// A predicate reading dimension `dim` and higher ones.
  void add(std::size_t dim, Check check);

  /// A predicate that reads only its own dimension's value. The walker
  /// pre-evaluates these once per domain value into an admissibility mask, so
  /// they cost an array lookup per node instead of a std::function call.
  void add_unary(std::size_t dim, Check check);

  bool empty() const noexcept { return multi_by_dim_.empty(); }

  /// Every multi-dimension predicate that becomes decidable when `dim` binds
  /// passes? The walker's inner loop, paired with the value_masks() fast
  /// path for the unary ones.
  bool check_multi_at(std::size_t dim, const int* values) const {
    if (dim >= multi_by_dim_.size()) return true;
    for (const auto& f : multi_by_dim_[dim]) {
      if (!f(values)) return false;
    }
    return true;
  }

  /// Per-dimension, per-value-index admissibility under the unary predicates
  /// (1 = may be legal). Empty when the set has no unary predicates. Values
  /// failing their mask can be pruned without binding the dimension at all.
  std::vector<std::vector<unsigned char>> value_masks(
      const std::vector<ParameterDomain>& domains) const;

 private:
  /// Grow both bucket lists to cover `dim` (they always have equal length).
  void reserve_dim(std::size_t dim);

  std::vector<std::vector<Check>> unary_by_dim_;
  std::vector<std::vector<Check>> multi_by_dim_;
  bool has_unary_ = false;
};

/// Per-dimension strides of the flat (odometer) index — dimension 0 least
/// significant, matching for_each order. Wraps modularly for
/// spaces past 2^64; callers doing exact flat arithmetic must bound |X̂|
/// first (see the saturating size()).
inline std::vector<std::uint64_t> flat_strides(const std::vector<ParameterDomain>& domains) {
  std::vector<std::uint64_t> stride(domains.size(), 1);
  for (std::size_t d = 1; d < domains.size(); ++d) {
    stride[d] = stride[d - 1] * domains[d - 1].values.size();
  }
  return stride;
}

namespace walk_detail {

template <typename Fn>
bool descend(const std::vector<ParameterDomain>& domains, const ConstraintSet* constraints,
             const std::vector<std::vector<unsigned char>>* masks,
             const std::vector<std::uint64_t>& stride, std::size_t level, std::size_t stop,
             std::vector<std::size_t>& choice, std::vector<int>& values,
             std::uint64_t flat_base, const Fn& fn) {
  const auto& vals = domains[level].values;
  const unsigned char* mask = masks ? (*masks)[level].data() : nullptr;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    // Unary predicates were pre-evaluated into the mask: one lookup replaces
    // their std::function calls on every node of this level.
    if (mask && !mask[i]) continue;
    choice[level] = i;
    values[level] = vals[i];
    if (constraints && !constraints->check_multi_at(level, values.data())) continue;
    const std::uint64_t flat = flat_base + i * stride[level];
    if (level == stop) {
      if (!fn(choice, flat)) return false;
    } else {
      if (!descend(domains, constraints, masks, stride, level - 1, stop, choice, values, flat,
                   fn)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace walk_detail

/// What a walk reads at every node besides the multi-dimension predicates:
/// the flat strides and the unary admissibility masks (empty when the
/// constraint set, or its absence, has no unary predicates). Built once per
/// constraint set, so a walk split into many chunks does not rebuild them
/// per chunk.
struct WalkTables {
  std::vector<std::uint64_t> stride;
  std::vector<std::vector<unsigned char>> masks;
};

inline WalkTables walk_tables(const std::vector<ParameterDomain>& domains,
                              const ConstraintSet* constraints) {
  WalkTables tables;
  tables.stride = flat_strides(domains);
  if (constraints) tables.masks = constraints->value_masks(domains);
  return tables;
}

/// Lower-level walk over the dimension range [stop..from], with dimensions
/// above `from` already bound in choice/values (their partial flat index
/// passed as flat_base); emits at `stop`. `tables` must be
/// walk_tables(domains, constraints). The building block the chunked
/// parallel walk (search/legal_walk.hpp) splits prefixes/subtrees with —
/// most callers want walk_legal below.
template <typename Fn>
bool walk_legal_levels(const std::vector<ParameterDomain>& domains,
                       const ConstraintSet* constraints, const WalkTables& tables,
                       std::size_t from, std::size_t stop, std::vector<std::size_t>& choice,
                       std::vector<int>& values, std::uint64_t flat_base, const Fn& fn) {
  return walk_detail::descend(domains, constraints, tables.masks.empty() ? nullptr : &tables.masks,
                              tables.stride, from, stop, choice, values, flat_base, fn);
}

/// The constraint-propagating lazy enumeration: visit every point of X̂ that
/// survives the constraint set's prefix predicates (a superset of the legal
/// space — pair with codegen::validate for exactness), in ascending flat
/// order, i.e. exactly for_each() order. A failing prefix
/// skips its entire subtree without visiting a single point of it. With a
/// null or empty constraint set this degenerates to a plain (still lazy)
/// cartesian walk. `fn(choice, flat)` returns false to stop early; the
/// function returns false iff the callback stopped the walk.
template <typename Fn>
bool walk_legal(const std::vector<ParameterDomain>& domains, const ConstraintSet* constraints,
                const Fn& fn) {
  if (domains.empty()) return true;
  for (const auto& d : domains) {
    if (d.values.empty()) return true;  // some domain empty: X̂ itself is empty
  }
  std::vector<std::size_t> choice(domains.size(), 0);
  std::vector<int> values(domains.size(), 0);
  return walk_legal_levels(domains, constraints, walk_tables(domains, constraints),
                           domains.size() - 1, 0, choice, values, 0, fn);
}

/// One row of an op's parameter table: the parameter's name, the Tuning
/// field it sets, and its candidate values.
template <typename Tuning>
struct Parameter {
  const char* name;
  int Tuning::*field;
  std::span<const int> values;
};

// Candidate lists. X̂ deliberately over-covers what hardware can run: most of
// it is illegal (register file, shared memory, thread-count and alignment
// constraints), which is exactly why the paper needs the §4.1 generative
// model rather than uniform sampling. All powers of two; ranges follow the
// paper's §4.2 setup.
inline constexpr int kPow2_1_4[] = {1, 2, 4};
inline constexpr int kPow2_1_8[] = {1, 2, 4, 8};
inline constexpr int kPow2_1_16[] = {1, 2, 4, 8, 16};
inline constexpr int kPow2_1_32[] = {1, 2, 4, 8, 16, 32};
inline constexpr int kPow2_1_64[] = {1, 2, 4, 8, 16, 32, 64};
inline constexpr int kPow2_1_512[] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
inline constexpr int kPow2_4_32[] = {4, 8, 16, 32};
inline constexpr int kPow2_4_128[] = {4, 8, 16, 32, 64, 128};
inline constexpr int kPow2_8_128[] = {8, 16, 32, 64, 128};
inline constexpr int kPow2_8_512[] = {8, 16, 32, 64, 128, 256, 512};

/// GEMM's parameter table, in dimension order (dimension 0 is the least
/// significant digit of the flat index).
struct GemmParameters {
  using Shape = codegen::GemmShape;
  using Tuning = codegen::GemmTuning;
  static constexpr Parameter<Tuning> table[] = {
      {"ms", &Tuning::ms, kPow2_1_64},
      {"ns", &Tuning::ns, kPow2_1_64},
      {"ml", &Tuning::ml, kPow2_8_512},
      {"nl", &Tuning::nl, kPow2_8_512},
      {"u", &Tuning::u, kPow2_4_128},
      {"ks", &Tuning::ks, kPow2_1_32},
      {"kl", &Tuning::kl, kPow2_1_32},
      {"kg", &Tuning::kg, kPow2_1_512},
      {"vec", &Tuning::vec, kPow2_1_8},
  };
};

/// Conv's parameter table: thread tile, block tile, prefetch depth and the
/// local/global reduction splits (ConvTuning's cs and vec stay at their
/// defaults).
struct ConvParameters {
  using Shape = codegen::ConvShape;
  using Tuning = codegen::ConvTuning;
  static constexpr Parameter<Tuning> table[] = {
      {"tk", &Tuning::tk, kPow2_1_8},
      {"tp", &Tuning::tp, kPow2_1_4},
      {"tq", &Tuning::tq, kPow2_1_4},
      {"tn", &Tuning::tn, kPow2_1_4},
      {"bk", &Tuning::bk, kPow2_8_128},
      {"bp", &Tuning::bp, kPow2_1_8},
      {"bq", &Tuning::bq, kPow2_1_8},
      {"bn", &Tuning::bn, kPow2_1_32},
      {"u", &Tuning::u, kPow2_4_32},
      {"cl", &Tuning::cl, kPow2_1_8},
      {"cg", &Tuning::cg, kPow2_1_16},
  };
};

/// The dimension `field` occupies in Params' table; a compile error when the
/// table has no such row (in a constant expression).
template <typename Params>
constexpr std::size_t dim_of(int Params::Tuning::*field) {
  for (std::size_t d = 0; d < std::size(Params::table); ++d) {
    if (Params::table[d].field == field) return d;
  }
  throw std::logic_error("dim_of: field not in the parameter table");
}

/// The cartesian-product space X̂ over Params' table, with the decoder
/// turning an index vector into a concrete tuning struct. Subclasses may
/// narrow or pin domain values (the batched space, test spaces) but keep
/// the table's dimensions in its order.
template <typename Params>
class ParameterSpace {
 public:
  using Shape = typename Params::Shape;
  using Tuning = typename Params::Tuning;

  /// Domains from the table. `cap16` restricts every domain to powers of two
  /// in [1, 16] — the constraint Table 1 uses.
  explicit ParameterSpace(bool cap16 = false);

  const std::vector<ParameterDomain>& domains() const noexcept { return domains_; }
  std::size_t num_parameters() const noexcept { return domains_.size(); }

  /// Total size of X̂, saturated at SIZE_MAX.
  std::size_t size() const noexcept;

  /// Decode per-parameter value indices into a tuning struct.
  Tuning decode(const std::vector<std::size_t>& choice) const;

  /// Inverse of decode: find the index vector producing `t`. False when some
  /// field's value is not in this space's domains (e.g. a KG > 1 seed against
  /// the batched space) — the tuning then lies outside X̂.
  bool encode(const Tuning& t, std::vector<std::size_t>& choice) const;

  /// Uniform draw from X̂.
  Tuning sample_uniform(Rng& rng, std::vector<std::size_t>* choice = nullptr) const;

  /// Visit every point of X̂ in flat order. The callback returns false to
  /// stop early.
  void for_each(const std::function<bool(const Tuning&)>& fn) const;

  /// The per-dimension partial-validity layer for (shape, device): necessary
  /// conditions of codegen::validate mirrored onto prefixes. GEMM: tile-size
  /// divisibility, shared-memory and occupancy bounds (gpusim/occupancy),
  /// reduction-split (KG) limits. Conv: output-extent and reduction-split
  /// (CG over C·R·S) limits plus the lowered GEMM's shared-memory, occupancy
  /// and divisibility conditions.
  ConstraintSet prefix_constraints(const Shape& shape, const gpusim::DeviceDescriptor& dev) const;

  /// Visit every point of the *legal* space X for (shape, device), in
  /// for_each() order: the pruned walk over prefix_constraints, gated by the
  /// full codegen::validate so the result is exactly X. The callback returns
  /// false to stop early.
  void for_each_legal(const Shape& shape, const gpusim::DeviceDescriptor& dev,
                      const std::function<bool(const Tuning&)>& fn) const;

 protected:
  std::vector<ParameterDomain> domains_;
};

extern template class ParameterSpace<GemmParameters>;
extern template class ParameterSpace<ConvParameters>;

using GemmSearchSpace = ParameterSpace<GemmParameters>;
using ConvSearchSpace = ParameterSpace<ConvParameters>;

/// The GEMM space with the grid-level reduction split pinned to KG = 1 — the
/// legal space for strided-batched GEMM (see codegen/batched_gemm.hpp).
class BatchedGemmSearchSpace : public GemmSearchSpace {
 public:
  explicit BatchedGemmSearchSpace(bool cap16 = false);
};

}  // namespace isaac::tuning
