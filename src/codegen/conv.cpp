#include "codegen/conv.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/strings.hpp"

namespace isaac::codegen {

std::string ConvShape::to_string() const {
  return strings::format("conv[n%lld c%lld %lldx%lld k%lld %lldx%lld %s]",
                         static_cast<long long>(n), static_cast<long long>(c),
                         static_cast<long long>(h), static_cast<long long>(w),
                         static_cast<long long>(k), static_cast<long long>(r),
                         static_cast<long long>(s), gpusim::dtype_name(dtype));
}

ConvShape ConvShape::from_npq(std::int64_t n, std::int64_t p, std::int64_t q, std::int64_t k,
                              std::int64_t c, std::int64_t r, std::int64_t s,
                              gpusim::DataType dtype) {
  ConvShape out;
  out.n = n;
  out.c = c;
  out.h = p + r - 1;
  out.w = q + s - 1;
  out.k = k;
  out.r = r;
  out.s = s;
  out.dtype = dtype;
  return out;
}

std::string ConvTuning::to_string() const {
  return strings::format("tk%d tp%d tq%d tn%d bk%d bp%d bq%d bn%d u%d cs%d cl%d cg%d v%d", tk,
                         tp, tq, tn, bk, bp, bq, bn, u, cs, cl, cg, vec);
}

GemmShape conv_gemm_shape(const ConvShape& shape) {
  GemmShape g;
  g.m = shape.npq();
  g.n = shape.k;
  g.k = shape.crs();
  g.dtype = shape.dtype;
  // The gathered I tile behaves like a non-transposed A (m-contiguous panels
  // thanks to the N-fastest layout); F ∈ R^{C×R×S×K} is k-fastest along K,
  // i.e. behaves like a transposed B (n-contiguous) — no smem transpose.
  g.trans_a = false;
  g.trans_b = true;
  return g;
}

GemmTuning conv_gemm_tuning(const ConvTuning& t) {
  GemmTuning g;
  g.ms = t.tp * t.tq * t.tn;
  g.ns = t.tk;
  g.ml = t.bp * t.bq * t.bn;
  g.nl = t.bk;
  g.u = t.u;
  g.ks = t.cs;
  g.kl = t.cl;
  g.kg = t.cg;
  g.vec = t.vec;
  g.bounds = t.bounds;
  return g;
}

bool validate(const ConvShape& shape, const ConvTuning& tuning,
              const gpusim::DeviceDescriptor& dev, std::string* why) {
  // The reason is built only when asked for: ranking validates every point
  // of X̂ with why == nullptr.
  const auto fail = [why](const char* reason) {
    if (why) *why = reason;
    return false;
  };
  if (shape.n <= 0 || shape.c <= 0 || shape.k <= 0) return fail("empty problem");
  if (shape.p() <= 0 || shape.q() <= 0) return fail("filter larger than padded input");

  if (tuning.bk % tuning.tk != 0 || tuning.bp % tuning.tp != 0 ||
      tuning.bq % tuning.tq != 0 || tuning.bn % tuning.tn != 0) {
    return fail("block tile must be a multiple of the thread tile in every dimension");
  }

  // The five-dimensional tile must not degenerate: a block tile wider than
  // the output in P/Q/N burns threads with no implicit-GEMM row to compute.
  if (tuning.bp > 2 * shape.p() || tuning.bq > 2 * shape.q() || tuning.bn > 2 * shape.n) {
    return fail("block tile far exceeds output extent");
  }

  return validate(conv_gemm_shape(shape), conv_gemm_tuning(tuning), dev, why);
}

gpusim::KernelProfile analyze(const ConvShape& shape, const ConvTuning& tuning,
                              const gpusim::DeviceDescriptor& dev) {
  std::string why;
  if (!validate(shape, tuning, dev, &why)) {
    throw std::invalid_argument("conv analyze: illegal config: " + why);
  }

  const GemmShape gs = conv_gemm_shape(shape);
  const GemmTuning gt = conv_gemm_tuning(tuning);
  gpusim::KernelProfile p = analyze(gs, gt, dev);
  p.label = shape.to_string() + " / " + tuning.to_string();
  p.useful_flops = shape.flops();

  // ---- conv-specific costs over the plain GEMM lowering --------------------
  const int threads = gt.threads_per_block();
  const double fetch_i =
      static_cast<double>(gt.ml) * gt.u * gt.kl / threads;  // gathered I elements/round
  const std::int64_t k_eff = (gs.k + gt.kg - 1) / gt.kg;
  const double rounds =
      static_cast<double>((k_eff + static_cast<std::int64_t>(gt.u) * gt.kl - 1) /
                          (static_cast<std::int64_t>(gt.u) * gt.kl));

  // Indirection-table lookups: one s32 offset load per gathered I element
  // ("using an indirection table in order to alleviate integer arithmetics in
  // the algorithm's inner loop").
  p.ld_global_insts += rounds * fetch_i / gt.vec;
  p.int_insts += rounds * fetch_i;  // base+offset add per gather
  p.dram_read_bytes += static_cast<double>(gs.m) * 4.0;  // table streamed once
  p.requested_read_bytes += static_cast<double>(p.grid_blocks) * gt.ml * 4.0;

  // Gathers follow the table: contiguous only along the N (batch) extent of
  // the tile.
  const int dsize = static_cast<int>(gpusim::dtype_size(shape.dtype));
  const double contig_i = std::min<double>(tuning.bn, shape.n) * dsize;
  const double eff_i = std::clamp(contig_i / 32.0, 0.25, 1.0);
  // Re-weight coalescing: I carries the A-side traffic, F the B-side.
  const double a_bytes = static_cast<double>(gs.m) * gs.k * dsize;
  const double b_bytes = static_cast<double>(gs.k) * gs.n * dsize;
  const double eff_f = 1.0;  // F is K-fastest: fully coalesced panels
  p.coalescing_efficiency =
      (a_bytes * eff_i + b_bytes * eff_f) / std::max(1.0, a_bytes + b_bytes);

  // Input elements are re-gathered up to R·S times (spatial overlap), but the
  // unique input is only C·H·W·N: correct the compulsory traffic.
  const double unique_input_bytes =
      static_cast<double>(shape.c) * shape.h * shape.w * shape.n * dsize;
  const double filter_bytes = static_cast<double>(shape.crs()) * shape.k * dsize;
  p.dram_read_bytes = unique_input_bytes + filter_bytes + static_cast<double>(gs.m) * 4.0;

  return p;
}

}  // namespace isaac::codegen
