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

/// One partial-validity predicate over a *prefix* of bound parameter values.
/// `check` receives the full values-by-dimension array but may only read
/// dimensions ≥ eval_dim — the pruned walk binds dimensions from the highest
/// index down, so exactly those are bound when the predicate first runs.
///
/// Contract: a predicate must be a *necessary* condition for legality — if it
/// fails, no completion of the bound prefix passes codegen::validate. A
/// lenient predicate only costs pruning power; a too-strict one would
/// silently drop legal points (the exhaustive-vs-pruned parity tests guard
/// against that).
struct PrefixPredicate {
  std::string name;                             // diagnostic label
  std::size_t eval_dim = 0;                     // lowest dimension it reads
  bool unary = false;                           // reads values[eval_dim] only
  std::function<bool(const int* values)> check;
};

/// The per-dimension predicate layer over a ParameterDomain list, bucketed by
/// the dimension at which each predicate becomes decidable.
class ConstraintSet {
 public:
  void add(std::string name, std::size_t eval_dim, std::function<bool(const int*)> check);

  /// A predicate that reads only its own dimension's value. The walker
  /// pre-evaluates these once per domain value into an admissibility mask, so
  /// they cost an array lookup per node instead of a std::function call.
  void add_unary(std::string name, std::size_t eval_dim,
                 std::function<bool(const int*)> check);

  bool empty() const noexcept { return count_ == 0; }

  /// Every multi-dimension predicate that becomes decidable when `dim` binds
  /// passes? The walker's inner loop, paired with the value_masks() fast
  /// path for the unary ones. The multi checks live in their own bucket list
  /// so this never touches (or flag-tests) the unary entries.
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

  /// Full-point test (every dimension bound): all predicates pass. A cheap
  /// pre-gate in front of codegen::validate for point-wise probing. Buckets
  /// run highest dimension first — the same order the walk binds them — so a
  /// predicate may rely on guards (positivity, pow2) at higher dimensions
  /// having passed, exactly as during a walk.
  bool accepts(const int* values) const {
    for (std::size_t dim = by_dim_.size(); dim-- > 0;) {
      for (const auto& p : by_dim_[dim]) {
        if (!p.check(values)) return false;
      }
    }
    return true;
  }

 private:
  std::vector<std::vector<PrefixPredicate>> by_dim_;  // indexed by eval_dim
  // Multi-dimension checks only, same indexing — the walker's hot path.
  std::vector<std::vector<std::function<bool(const int*)>>> multi_by_dim_;
  std::size_t count_ = 0;
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

/// Lower-level walk over the dimension range [stop..from], with dimensions
/// above `from` already bound in choice/values (their partial flat index
/// passed as flat_base); emits at `stop`. The building block the chunked
/// parallel walk (search/legal_walk.hpp) splits prefixes/subtrees with —
/// most callers want walk_legal below.
template <typename Fn>
bool walk_legal_levels(const std::vector<ParameterDomain>& domains,
                       const ConstraintSet* constraints, std::size_t from, std::size_t stop,
                       std::vector<std::size_t>& choice, std::vector<int>& values,
                       std::uint64_t flat_base, const Fn& fn) {
  const std::vector<std::uint64_t> stride = flat_strides(domains);
  std::vector<std::vector<unsigned char>> masks;
  const std::vector<std::vector<unsigned char>>* mp = nullptr;
  if (constraints) {
    masks = constraints->value_masks(domains);
    if (!masks.empty()) mp = &masks;
  }
  return walk_detail::descend(domains, constraints, mp, stride, from, stop, choice, values,
                              flat_base, fn);
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
  return walk_legal_levels(domains, constraints, domains.size() - 1, 0, choice, values, 0, fn);
}

/// Generic cartesian-product space driven by per-parameter domains, with a
/// decoder turning an index vector into a concrete tuning struct.
class GemmSearchSpace {
 public:
  /// Default domains follow GemmTuning::candidates_*. `cap16` restricts every
  /// domain to powers of two in [1, 16] — the constraint Table 1 uses.
  explicit GemmSearchSpace(bool cap16 = false);

  const std::vector<ParameterDomain>& domains() const noexcept { return domains_; }
  std::size_t num_parameters() const noexcept { return domains_.size(); }

  /// Total size of X̂.
  std::size_t size() const noexcept;

  /// Decode per-parameter value indices into a tuning struct.
  codegen::GemmTuning decode(const std::vector<std::size_t>& choice) const;

  /// Inverse of decode: find the index vector producing `t`. False when some
  /// field's value is not in this space's domains (e.g. a KG > 1 seed against
  /// the batched space) — the tuning then lies outside X̂.
  bool encode(const codegen::GemmTuning& t, std::vector<std::size_t>& choice) const;

  /// Uniform draw from X̂.
  codegen::GemmTuning sample_uniform(Rng& rng, std::vector<std::size_t>* choice = nullptr) const;

  /// Visit every point of X̂ (used by exhaustive runtime inference). The
  /// callback returns false to stop early.
  void for_each(const std::function<bool(const codegen::GemmTuning&)>& fn) const;

  /// The per-dimension partial-validity layer for (shape, device): necessary
  /// conditions of codegen::validate mirrored onto prefixes — tile-size
  /// divisibility, shared-memory and occupancy bounds (gpusim/occupancy),
  /// reduction-split (KG) limits. Predicates resolve dimensions by name, so
  /// restricted subclass spaces (narrowed or pinned domains, e.g. the batched
  /// space's KG = {1}) inherit the layer unchanged.
  ConstraintSet prefix_constraints(const codegen::GemmShape& shape,
                                   const gpusim::DeviceDescriptor& dev) const;

  /// Visit every point of the *legal* space X for (shape, device), in
  /// for_each() order: the pruned walk over prefix_constraints, gated by the
  /// full codegen::validate so the result is exactly X. The callback returns
  /// false to stop early.
  void for_each_legal(const codegen::GemmShape& shape, const gpusim::DeviceDescriptor& dev,
                      const std::function<bool(const codegen::GemmTuning&)>& fn) const;

 protected:
  std::vector<ParameterDomain> domains_;
};

/// The GEMM space with the grid-level reduction split pinned to KG = 1 — the
/// legal space for strided-batched GEMM (see codegen/batched_gemm.hpp).
class BatchedGemmSearchSpace : public GemmSearchSpace {
 public:
  explicit BatchedGemmSearchSpace(bool cap16 = false);
};

class ConvSearchSpace {
 public:
  explicit ConvSearchSpace(bool cap16 = false);

  const std::vector<ParameterDomain>& domains() const noexcept { return domains_; }
  std::size_t num_parameters() const noexcept { return domains_.size(); }
  std::size_t size() const noexcept;

  codegen::ConvTuning decode(const std::vector<std::size_t>& choice) const;
  bool encode(const codegen::ConvTuning& t, std::vector<std::size_t>& choice) const;
  codegen::ConvTuning sample_uniform(Rng& rng, std::vector<std::size_t>* choice = nullptr) const;
  void for_each(const std::function<bool(const codegen::ConvTuning&)>& fn) const;

  /// Prefix predicates for the implicit-GEMM lowering: output-extent and
  /// reduction-split (CG over C·R·S) limits plus the lowered GEMM's
  /// shared-memory/occupancy/divisibility conditions. Same contract as
  /// GemmSearchSpace::prefix_constraints.
  ConstraintSet prefix_constraints(const codegen::ConvShape& shape,
                                   const gpusim::DeviceDescriptor& dev) const;

  /// Pruned + validate-gated walk of the legal conv space in for_each() order.
  void for_each_legal(const codegen::ConvShape& shape, const gpusim::DeviceDescriptor& dev,
                      const std::function<bool(const codegen::ConvTuning&)>& fn) const;

 protected:
  // Protected (like GemmSearchSpace's) so restricted spaces — e.g. a
  // seed-grid core for exhaustive ground truth in tests — can subclass and narrow
  // the domains.
  std::vector<ParameterDomain> domains_;
};

}  // namespace isaac::tuning
