#include "tuning/search_space.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace isaac::tuning {

namespace {

// Table 1's setup: "each parameter is constrained to be a power of two
// between 1 and 16" — literally, for every parameter. This includes values a
// curated candidate list would never offer (1-wide block tiles, U = 1), which
// is exactly what makes uniform sampling of X̂ so wasteful in the paper.
std::vector<int> domain_values(std::span<const int> values, bool cap16) {
  if (cap16) return {1, 2, 4, 8, 16};
  return {values.begin(), values.end()};
}

// Saturating |X̂|: conv-scale domain sets can overflow 64 bits, and a
// silently wrapped size() corrupts budget clamps and flat-stride math
// downstream. SIZE_MAX is the explicit "too large to index flat" sentinel —
// consumers doing exact flat arithmetic (strided probing) must check for it
// and take the lazy-walk path instead.
std::size_t product_size(const std::vector<ParameterDomain>& domains) {
  std::size_t total = 1;
  for (const auto& d : domains) {
    if (__builtin_mul_overflow(total, d.values.size(), &total)) {
      return std::numeric_limits<std::size_t>::max();
    }
  }
  return total;
}

std::vector<std::size_t> uniform_choice(const std::vector<ParameterDomain>& domains, Rng& rng) {
  std::vector<std::size_t> choice(domains.size());
  for (std::size_t d = 0; d < domains.size(); ++d) {
    choice[d] = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(domains[d].values.size()) - 1));
  }
  return choice;
}

// ------------------------------------------- prefix-constraint builders --
//
// Every predicate below is a *necessary* condition of the corresponding
// codegen::validate — mostly the validate checks themselves evaluated at the
// earliest dimension where their inputs are bound, plus monotone lower
// bounds (shared memory grows with every participating parameter, so
// substituting unbound domains' minima keeps a bound necessary; thread
// counts are bracketed via the micro-tile domains' extrema). In
// tests/test_search.cpp, the exhaustive-vs-pruned parity tests and
// PrefixSoundness (every legal point passes every level) guard that these
// never drop a legal point.

/// GEMM dimension indices, fixed by GemmParameters' table.
struct GemmDim {
  using T = codegen::GemmTuning;
  static constexpr std::size_t ms = dim_of<GemmParameters>(&T::ms);
  static constexpr std::size_t ns = dim_of<GemmParameters>(&T::ns);
  static constexpr std::size_t ml = dim_of<GemmParameters>(&T::ml);
  static constexpr std::size_t nl = dim_of<GemmParameters>(&T::nl);
  static constexpr std::size_t u = dim_of<GemmParameters>(&T::u);
  static constexpr std::size_t ks = dim_of<GemmParameters>(&T::ks);
  static constexpr std::size_t kl = dim_of<GemmParameters>(&T::kl);
  static constexpr std::size_t kg = dim_of<GemmParameters>(&T::kg);
  static constexpr std::size_t vec = dim_of<GemmParameters>(&T::vec);
};

/// Conv dimension indices, fixed by ConvParameters' table.
struct ConvDim {
  using T = codegen::ConvTuning;
  static constexpr std::size_t tk = dim_of<ConvParameters>(&T::tk);
  static constexpr std::size_t tp = dim_of<ConvParameters>(&T::tp);
  static constexpr std::size_t tq = dim_of<ConvParameters>(&T::tq);
  static constexpr std::size_t tn = dim_of<ConvParameters>(&T::tn);
  static constexpr std::size_t bk = dim_of<ConvParameters>(&T::bk);
  static constexpr std::size_t bp = dim_of<ConvParameters>(&T::bp);
  static constexpr std::size_t bq = dim_of<ConvParameters>(&T::bq);
  static constexpr std::size_t bn = dim_of<ConvParameters>(&T::bn);
  static constexpr std::size_t u = dim_of<ConvParameters>(&T::u);
  static constexpr std::size_t cl = dim_of<ConvParameters>(&T::cl);
  static constexpr std::size_t cg = dim_of<ConvParameters>(&T::cg);
};

/// X̂ is empty: no dimension at all, or one with no values. The builders
/// return no predicates for it (there is nothing to walk) and never take a
/// domain's minimum or maximum.
bool empty_space(const std::vector<ParameterDomain>& domains) {
  return domains.empty() ||
         std::ranges::any_of(domains, [](const ParameterDomain& d) { return d.values.empty(); });
}

int domain_min(const std::vector<ParameterDomain>& domains, std::size_t d) {
  return *std::min_element(domains[d].values.begin(), domains[d].values.end());
}

int domain_max(const std::vector<ParameterDomain>& domains, std::size_t d) {
  return *std::max_element(domains[d].values.begin(), domains[d].values.end());
}

bool is_pow2_value(int v) { return v > 0 && (v & (v - 1)) == 0; }

std::int64_t ceil_div64(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// codegen::smem_bytes plus the occupancy by_smem clause: the double-buffered
/// staging tiles (and the KL reduction epilogue) must fit the per-block limit,
/// and one allocation-granular block must fit the SM. Pure-int mirror of
/// gemm.cpp/occupancy.cpp so it can run on partially bound prefixes.
bool smem_fits(std::int64_t ml, std::int64_t nl, std::int64_t u, std::int64_t kl, int dsize,
               int smem_per_block, int smem_per_sm, int smem_granularity) {
  const std::int64_t staging = (ml + nl) * u * kl * dsize * 2;
  const std::int64_t epilogue = kl > 1 ? ml * nl * 4 : 0;
  const std::int64_t smem = std::max(staging, epilogue);
  if (smem > smem_per_block) return false;
  if (smem > 0 && smem_per_sm > 0 && smem_granularity > 0) {
    if (ceil_div64(smem, smem_granularity) * smem_granularity > smem_per_sm) return false;
  }
  return true;
}

/// Thread-count corridor and the occupancy ceilings it implies, decidable
/// before the micro-tile (MS/NS-like) dimensions bind: with elems =
/// ML·NL·KL, threads = elems / (MS·NS) lies in [elems / (MS_max·NS_max),
/// elems], so elems < warp_size or elems > max_threads·MS_max·NS_max rules
/// out every completion; the implied warp-count lower bound must also clear
/// the per-SM warp-slot and register-file limits (registers never estimate
/// below codegen's floor of 24 per thread).
struct ThreadCorridor {
  std::int64_t micro_max = 1;        // MS_max · NS_max
  std::int64_t warp = 32;
  std::int64_t max_threads = 1024;
  std::int64_t max_warps = 64;
  std::int64_t regs_per_sm = 0;
  std::int64_t regs_warp_floor = 0;  // allocation-granular warp cost at 24 regs

  ThreadCorridor(const gpusim::DeviceDescriptor& dev, std::int64_t micro)
      : micro_max(micro),
        warp(dev.warp_size),
        max_threads(dev.max_threads_per_block),
        max_warps(dev.max_warps_per_sm),
        regs_per_sm(dev.registers_per_sm) {
    const std::int64_t gran = dev.reg_alloc_granularity;
    regs_warp_floor = gran > 0 ? ceil_div64(24 * warp, gran) * gran : 24 * warp;
  }

  bool plausible(std::int64_t elems) const {
    if (elems < warp) return false;
    if (elems > max_threads * micro_max) return false;
    const std::int64_t warps_lb = ceil_div64(elems, micro_max * warp);
    if (warps_lb > max_warps) return false;
    if (regs_per_sm > 0 && warps_lb * regs_warp_floor > regs_per_sm) return false;
    return true;
  }
};

ConstraintSet prefix_constraints_for(const std::vector<ParameterDomain>& domains,
                                     const codegen::GemmShape& shape,
                                     const gpusim::DeviceDescriptor& dev) {
  using D = GemmDim;
  ConstraintSet cs;
  if (empty_space(domains)) return cs;
  const std::size_t nd = domains.size();

  // Degenerate shape: nothing is legal. One constant predicate at the
  // outermost dimension prunes the whole walk in O(arity) instead of O(|X̂|).
  if (shape.m <= 0 || shape.n <= 0 || shape.k <= 0) {
    cs.add_unary(nd - 1, [](const int*) { return false; });
    return cs;
  }

  const int dsize = static_cast<int>(gpusim::dtype_size(shape.dtype));
  const std::int64_t k = shape.k;

  // Single-dimension conditions, decidable the moment each dimension binds.
  for (std::size_t d = 0; d < nd; ++d) {
    cs.add_unary(d, [d](const int* v) { return is_pow2_value(v[d]); });
  }
  cs.add_unary(D::vec, [dsize](const int* v) { return v[D::vec] * dsize <= 16; });
  cs.add_unary(D::kg, [k](const int* v) { return v[D::kg] <= k; });
  if (shape.dtype == gpusim::DataType::F16) {
    cs.add_unary(D::kg, [](const int* v) { return v[D::kg] == 1; });
  }

  const int smem_blk = dev.smem_per_block_bytes;
  const int smem_sm = dev.smem_per_sm_bytes;
  const int smem_gran = dev.smem_alloc_granularity;
  const std::int64_t warp = dev.warp_size;
  const std::int64_t maxt = dev.max_threads_per_block;

  // Multi-dimension conditions, fused into one gate lambda per evaluation
  // dimension — the walk's inner loop then pays a single indirect call per
  // node instead of one per condition. Each gate is registered at the
  // lowest dimension it reads and checks its conditions in guard order
  // (divisibility before the divisions that rely on it).
  const int ml_min = domain_min(domains, D::ml);
  const int nl_min = domain_min(domains, D::nl);
  const std::int64_t ms_min = domain_min(domains, D::ms);
  const std::int64_t ms_max = domain_max(domains, D::ms);
  const ThreadCorridor corridor(dev, ms_max * domain_max(domains, D::ns));

  // U gate: U%KS, reduction depth, and the smem lower bound at the
  // ML/NL domain minima.
  cs.add(D::u, [=](const int* v) {
    if (v[D::u] % v[D::ks] != 0) return false;
    if (std::int64_t{v[D::u]} * v[D::kl] >
        std::max<std::int64_t>(ceil_div64(k, std::max(v[D::kg], 1)), 1)) {
      return false;
    }
    return smem_fits(ml_min, nl_min, v[D::u], v[D::kl], dsize, smem_blk, smem_sm, smem_gran);
  });
  // Shared-memory lower bound at the ML domain minimum.
  cs.add(D::nl, [=](const int* v) {
    return smem_fits(ml_min, v[D::nl], v[D::u], v[D::kl], dsize, smem_blk, smem_sm, smem_gran);
  });
  // ML gate: exact shared memory plus the coarse thread-count corridor.
  cs.add(D::ml, [=](const int* v) {
    if (!smem_fits(v[D::ml], v[D::nl], v[D::u], v[D::kl], dsize, smem_blk, smem_sm, smem_gran)) {
      return false;
    }
    return corridor.plausible(std::int64_t{v[D::ml]} * v[D::nl] * v[D::kl]);
  });
  // NS gate: NL%NS, the unroll lower bound at MS_min, and the corridor
  // tightened to MS's domain range (threads = ML·NL·KL / (MS·NS);
  // multiplication-form bounds stay exact in int64).
  cs.add(D::ns, [=](const int* v) {
    if (v[D::nl] % v[D::ns] != 0) return false;
    if (std::int64_t{v[D::u]} * (ms_min * v[D::ns] + ms_min + v[D::ns]) > 4096) return false;
    const std::int64_t e = std::int64_t{v[D::ml]} * v[D::nl] * v[D::kl];
    return e >= warp * v[D::ns] * ms_min && e <= maxt * v[D::ns] * ms_max;
  });
  // MS gate (leaf): ML%MS, the exact unroll budget, then the exact block
  // geometry — threads range / warp multiple / prefetch-tile divisibility
  // in pure integer math, so the large share of X̂ failing them never
  // reaches validate's failure path.
  cs.add(D::ms, [=](const int* v) {
    if (v[D::ml] % v[D::ms] != 0) return false;
    if (std::int64_t{v[D::u]} * (std::int64_t{v[D::ms]} * v[D::ns] + v[D::ms] + v[D::ns]) > 4096) {
      return false;
    }
    const std::int64_t threads =
        (std::int64_t{v[D::ml]} / v[D::ms]) * (v[D::nl] / v[D::ns]) * v[D::kl];
    if (threads < warp || threads > maxt || threads % warp != 0) return false;
    const std::int64_t ta = std::int64_t{v[D::ml]} * v[D::u] * v[D::kl];
    const std::int64_t tb = std::int64_t{v[D::nl]} * v[D::u] * v[D::kl];
    if (ta % threads != 0 || tb % threads != 0) return false;
    return (ta / threads) % v[D::vec] == 0 && (tb / threads) % v[D::vec] == 0;
  });
  return cs;
}

ConstraintSet prefix_constraints_for(const std::vector<ParameterDomain>& domains,
                                     const codegen::ConvShape& shape,
                                     const gpusim::DeviceDescriptor& dev) {
  using D = ConvDim;
  ConstraintSet cs;
  if (empty_space(domains)) return cs;
  const std::size_t nd = domains.size();

  if (shape.n <= 0 || shape.c <= 0 || shape.k <= 0 || shape.p() <= 0 || shape.q() <= 0) {
    cs.add_unary(nd - 1, [](const int*) { return false; });
    return cs;
  }

  const int dsize = static_cast<int>(gpusim::dtype_size(shape.dtype));
  const std::int64_t crs = shape.crs();

  // The lowering multiplies thread/block tiles into the GEMM's MS/ML, and a
  // product of positive ints is a power of two iff every factor is — so
  // per-dimension pow2 stays a necessary condition of the lowered validate.
  for (std::size_t d = 0; d < nd; ++d) {
    cs.add_unary(d, [d](const int* v) { return is_pow2_value(v[d]); });
  }

  // Conv-specific output-extent checks, each decidable at its own dimension.
  const std::int64_t p2 = 2 * shape.p(), q2 = 2 * shape.q(), n2 = 2 * shape.n;
  cs.add_unary(D::bp, [p2](const int* v) { return v[D::bp] <= p2; });
  cs.add_unary(D::bq, [q2](const int* v) { return v[D::bq] <= q2; });
  cs.add_unary(D::bn, [n2](const int* v) { return v[D::bn] <= n2; });

  // Reduction split over C·R·S (the lowering's K).
  cs.add_unary(D::cg, [crs](const int* v) { return v[D::cg] <= crs; });
  if (shape.dtype == gpusim::DataType::F16) {
    cs.add_unary(D::cg, [](const int* v) { return v[D::cg] == 1; });
  }
  cs.add(D::u, [crs](const int* v) {
    return std::int64_t{v[D::u]} * v[D::cl] <=
           std::max<std::int64_t>(ceil_div64(crs, std::max(v[D::cg], 1)), 1);
  });

  // Shared memory through the lowering (ML = BP·BQ·BN, NL = BK, KL = CL):
  // exact once BK binds, lower-bounded at BN, BQ and BP via domain minima.
  const int smem_blk = dev.smem_per_block_bytes;
  const int smem_sm = dev.smem_per_sm_bytes;
  const int smem_gran = dev.smem_alloc_granularity;
  const std::int64_t warp = dev.warp_size;
  const std::int64_t maxt = dev.max_threads_per_block;

  // One fused gate per evaluation dimension (one indirect call per walk
  // node — see the GEMM builder for the scheme).
  const int bk_min = domain_min(domains, D::bk);
  const std::int64_t bp_min = domain_min(domains, D::bp);
  const std::int64_t bpq_min = bp_min * domain_min(domains, D::bq);
  const std::int64_t tk_min = domain_min(domains, D::tk), tk_max = domain_max(domains, D::tk);
  const std::int64_t tp_min = domain_min(domains, D::tp), tp_max = domain_max(domains, D::tp);
  const std::int64_t tq_min = domain_min(domains, D::tq), tq_max = domain_max(domains, D::tq);
  const ThreadCorridor corridor(dev, tk_max * tp_max * tq_max * domain_max(domains, D::tn));
  const auto elems = [=](const int* v) {
    return std::int64_t{v[D::bk]} * v[D::bp] * v[D::bq] * v[D::bn] * v[D::cl];
  };

  cs.add(D::bn, [=](const int* v) {
    return smem_fits(bpq_min * v[D::bn], bk_min, v[D::u], v[D::cl], dsize, smem_blk, smem_sm,
                     smem_gran);
  });
  cs.add(D::bq, [=](const int* v) {
    return smem_fits(bp_min * v[D::bq] * v[D::bn], bk_min, v[D::u], v[D::cl], dsize, smem_blk,
                     smem_sm, smem_gran);
  });
  cs.add(D::bp, [=](const int* v) {
    return smem_fits(std::int64_t{v[D::bp]} * v[D::bq] * v[D::bn], bk_min, v[D::u], v[D::cl], dsize,
                     smem_blk, smem_sm, smem_gran);
  });
  // BK gate: exact shared memory plus the coarse thread-count corridor.
  cs.add(D::bk, [=](const int* v) {
    if (!smem_fits(std::int64_t{v[D::bp]} * v[D::bq] * v[D::bn], v[D::bk], v[D::u], v[D::cl], dsize,
                   smem_blk, smem_sm, smem_gran)) {
      return false;
    }
    return corridor.plausible(elems(v));
  });
  // Micro-tile gates: thread-tile divisibility fused with the corridor
  // progressively tightened as each dimension binds (threads =
  // E / (TN·TQ·TP·TK) with E = BK·BP·BQ·BN·CL; multiplication-form bounds
  // stay exact in int64), the unroll budget once TP binds, and at the TK
  // leaf the exact lowered block geometry — threads range / warp multiple /
  // prefetch-tile divisibility in pure integer math, so the large share of
  // X̂ failing them never reaches validate's failure path.
  // Every value the gates read has already passed its pow2 unary mask, so
  // tile divisibility (a % b == 0) reduces to a comparison (a >= b) — for
  // positive powers of two the two are equivalent, and for the value 0
  // (conceivable only in subclass domains, where pow2 masking kills it
  // first anyway) the comparison is the stricter side, which can never
  // drop a validate-legal point. This removes one integer division per
  // node from the walk's hottest levels.
  cs.add(D::tn, [=](const int* v) {
    if (v[D::bn] < v[D::tn]) return false;
    const std::int64_t e = elems(v);
    return e >= warp * v[D::tn] * tp_min * tq_min * tk_min &&
           e <= maxt * v[D::tn] * tp_max * tq_max * tk_max;
  });
  cs.add(D::tq, [=](const int* v) {
    if (v[D::bq] < v[D::tq]) return false;
    const std::int64_t d = std::int64_t{v[D::tq]} * v[D::tn];
    const std::int64_t e = elems(v);
    return e >= warp * d * tp_min * tk_min && e <= maxt * d * tp_max * tk_max;
  });
  cs.add(D::tp, [=](const int* v) {
    if (v[D::bp] < v[D::tp]) return false;
    const std::int64_t msv = std::int64_t{v[D::tp]} * v[D::tq] * v[D::tn];
    if (std::int64_t{v[D::u]} * (msv * tk_min + msv + tk_min) > 4096) return false;
    const std::int64_t e = elems(v);
    return e >= warp * msv * tk_min && e <= maxt * msv * tk_max;
  });
  const bool f64 = shape.dtype == gpusim::DataType::F64;
  const bool f16 = shape.dtype == gpusim::DataType::F16;
  const std::int64_t max_regs = dev.max_registers_per_thread;
  // Occupancy's by_regs >= 1 clause, inverted per warps-per-block:
  // round_up(r·warp, gran)·wpb <= regs_sm  ⟺  r·warp <= gran-floor of
  // regs_sm / wpb. Tabulated once so the gate pays an array lookup instead
  // of a rounding division per node.
  const std::int64_t wpb_cap =
      std::min<std::int64_t>(dev.max_warps_per_sm, warp > 0 ? maxt / warp : 0);
  std::vector<std::int64_t> max_rw(
      static_cast<std::size_t>(std::max<std::int64_t>(wpb_cap, 0)) + 1, 0);
  for (std::size_t w = 1; w < max_rw.size(); ++w) {
    if (dev.registers_per_sm <= 0) {
      max_rw[w] = std::int64_t{1} << 62;  // unknown register file: no bound
    } else {
      const std::int64_t per_block = dev.registers_per_sm / static_cast<std::int64_t>(w);
      const std::int64_t gran = dev.reg_alloc_granularity;
      max_rw[w] = gran > 0 ? per_block / gran * gran : per_block;
    }
  }
  cs.add(D::tk, [=](const int* v) {
    if (v[D::bk] < v[D::tk]) return false;  // BK % TK for pow2 values
    const std::int64_t msv = std::int64_t{v[D::tp]} * v[D::tq] * v[D::tn];
    const std::int64_t nsv = v[D::tk];
    if (std::int64_t{v[D::u]} * (msv * nsv + msv + nsv) > 4096) return false;
    const std::int64_t mlv = std::int64_t{v[D::bp]} * v[D::bq] * v[D::bn];
    // Exact for pow2 values with ML >= MS and BK >= TK (both established by
    // the earlier comparison gates), matching threads_per_block().
    const std::int64_t threads = mlv * v[D::bk] * v[D::cl] / (msv * nsv);
    if (threads < warp || threads > maxt || threads % warp != 0) return false;
    // Prefetch-tile divisibility: tile_a/threads = U·MS·NS/NL and
    // tile_b/threads = U·MS·NS/ML are exact pow2 quotients, integer iff
    // the numerator covers the divisor. (VEC is pinned to 1 by the
    // lowering, so the per-thread vector-width clause is vacuous.)
    const std::int64_t un = v[D::u] * msv * nsv;
    if (un < v[D::bk] || un < mlv) return false;
    // Register pressure through the lowering, mirroring codegen's
    // estimate_registers in pure ints. CG is still unbound at the TK leaf,
    // so its addressing term is taken at the minimum (CG = 1 contributes
    // 0) — the estimate is a lower bound and the limit checks stay
    // necessary. The lowered conv GEMM is always NT (trans_a = false,
    // trans_b = true), which contributes no addressing registers.
    const int dw = f64 ? 2 : 1;
    std::int64_t acc = msv * nsv * dw;
    if (f16 && nsv % 2 == 0) acc = (acc + 1) / 2;
    const std::int64_t fetch_elems = ceil_div64((mlv + v[D::bk]) * v[D::u] * v[D::cl], threads);
    const std::int64_t fetch =
        (msv + nsv) * dw + std::max<std::int64_t>(2, fetch_elems) * dw;
    const std::int64_t regs_lb =
        std::max<std::int64_t>(24, acc + fetch + 18 + (v[D::cl] > 1 ? 4 : 0));
    if (regs_lb > max_regs) return false;
    const std::int64_t wpb = threads / warp;
    if (wpb >= static_cast<std::int64_t>(max_rw.size())) return false;
    return regs_lb * warp <= max_rw[static_cast<std::size_t>(wpb)];
  });
  return cs;
}

}  // namespace

void ConstraintSet::reserve_dim(std::size_t dim) {
  if (multi_by_dim_.size() <= dim) {
    multi_by_dim_.resize(dim + 1);
    unary_by_dim_.resize(dim + 1);
  }
}

void ConstraintSet::add(std::size_t dim, Check check) {
  reserve_dim(dim);
  multi_by_dim_[dim].push_back(std::move(check));
}

void ConstraintSet::add_unary(std::size_t dim, Check check) {
  reserve_dim(dim);
  unary_by_dim_[dim].push_back(std::move(check));
  has_unary_ = true;
}

std::vector<std::vector<unsigned char>> ConstraintSet::value_masks(
    const std::vector<ParameterDomain>& domains) const {
  std::vector<std::vector<unsigned char>> masks;
  if (!has_unary_) return masks;
  masks.resize(domains.size());
  // A unary predicate reads only its own dimension's value, so evaluating it
  // with the rest of the scratch buffer zeroed is exact.
  std::vector<int> scratch(domains.size(), 0);
  for (std::size_t d = 0; d < domains.size(); ++d) {
    const auto& vals = domains[d].values;
    masks[d].assign(vals.size(), 1);
    if (d >= unary_by_dim_.size()) continue;
    for (const auto& check : unary_by_dim_[d]) {
      for (std::size_t i = 0; i < vals.size(); ++i) {
        if (!masks[d][i]) continue;
        scratch[d] = vals[i];
        if (!check(scratch.data())) masks[d][i] = 0;
      }
    }
  }
  return masks;
}

// ------------------------------------------------------ ParameterSpace --

template <typename Params>
ParameterSpace<Params>::ParameterSpace(bool cap16) {
  for (const auto& p : Params::table) {
    domains_.push_back({p.name, domain_values(p.values, cap16)});
  }
}

template <typename Params>
std::size_t ParameterSpace<Params>::size() const noexcept {
  return product_size(domains_);
}

template <typename Params>
typename Params::Tuning ParameterSpace<Params>::decode(
    const std::vector<std::size_t>& choice) const {
  if (choice.size() != std::size(Params::table)) {
    throw std::invalid_argument("decode: arity mismatch");
  }
  Tuning t;
  for (std::size_t d = 0; d < choice.size(); ++d) {
    t.*Params::table[d].field = domains_[d].values[choice[d]];
  }
  return t;
}

template <typename Params>
bool ParameterSpace<Params>::encode(const Tuning& t, std::vector<std::size_t>& choice) const {
  choice.assign(domains_.size(), 0);
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    const auto& list = domains_[d].values;
    const auto it = std::find(list.begin(), list.end(), t.*Params::table[d].field);
    if (it == list.end()) return false;
    choice[d] = static_cast<std::size_t>(it - list.begin());
  }
  return true;
}

template <typename Params>
typename Params::Tuning ParameterSpace<Params>::sample_uniform(
    Rng& rng, std::vector<std::size_t>* choice) const {
  auto c = uniform_choice(domains_, rng);
  if (choice) *choice = c;
  return decode(c);
}

template <typename Params>
void ParameterSpace<Params>::for_each(const std::function<bool(const Tuning&)>& fn) const {
  walk_legal(domains_, nullptr,
             [&](const std::vector<std::size_t>& choice, std::uint64_t) {
               return fn(decode(choice));
             });
}

template <typename Params>
ConstraintSet ParameterSpace<Params>::prefix_constraints(
    const Shape& shape, const gpusim::DeviceDescriptor& dev) const {
  return prefix_constraints_for(domains_, shape, dev);
}

template <typename Params>
void ParameterSpace<Params>::for_each_legal(const Shape& shape,
                                            const gpusim::DeviceDescriptor& dev,
                                            const std::function<bool(const Tuning&)>& fn) const {
  const ConstraintSet cs = prefix_constraints(shape, dev);
  walk_legal(domains_, cs.empty() ? nullptr : &cs,
             [&](const std::vector<std::size_t>& choice, std::uint64_t) {
               const Tuning t = decode(choice);
               if (!codegen::validate(shape, t, dev)) return true;
               return fn(t);
             });
}

template class ParameterSpace<GemmParameters>;
template class ParameterSpace<ConvParameters>;

BatchedGemmSearchSpace::BatchedGemmSearchSpace(bool cap16) : GemmSearchSpace(cap16) {
  domains_[GemmDim::kg].values = {1};
}

}  // namespace isaac::tuning
