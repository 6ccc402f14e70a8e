// Contraction is off for the whole file, the block engine's templates
// included: every C element must round each multiply and each add on its
// own, so it is the same ordered sum in every build (see block_engine.hpp).
// The pragma precedes the includes because it applies only to functions
// defined after it.
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

#include "codegen/conv_executor.hpp"

#include <stdexcept>

#include "codegen/block_engine.hpp"
#include "common/failpoint.hpp"

namespace isaac::codegen {

namespace {

/// One reduction index red = (c·R + r)·S + s of the implicit GEMM. `offset`
/// is the I[c, r, s, 0] part of the gather address, c·H·W·N + r·W·N + s·N.
struct RedEntry {
  std::int64_t r, s, offset;
};

/// One implicit-GEMM row (n fastest, then q, then p, matching O's layout):
/// the top-left input coordinate of its window and the rest of the gather
/// address, (p·stride_h − pad_h)·W·N + (q·stride_w − pad_w)·N + n.
struct RowEntry {
  std::int64_t h0, w0, base;
};

}  // namespace

void execute_conv(const ConvShape& shape, const ConvTuning& tuning, float alpha,
                  const float* input, const float* filters, float beta, float* output) {
  ISAAC_FAILPOINT("execute.throw");
  const GemmTuning gt = conv_gemm_tuning(tuning);
  const std::int64_t m = shape.npq();    // implicit rows
  const std::int64_t nk = shape.k;       // implicit cols
  const std::int64_t crs = shape.crs();  // reduction depth
  if (m <= 0 || nk <= 0 || crs <= 0) {
    throw std::invalid_argument("execute_conv: empty problem");
  }

  const std::int64_t wn = shape.w * shape.n;
  const std::int64_t hwn = shape.h * wn;
  // The reduction table lives in the calling thread's scratch. Pool workers
  // only read it, and the call blocks until every block has finished, so no
  // other use of this thread's buffer can overlap it.
  RedEntry* red = engine::scratch<RedEntry>(static_cast<std::size_t>(crs));
  for (std::int64_t i = 0; i < crs; ++i) {
    const std::int64_t sx = i % shape.s;
    const std::int64_t r = (i / shape.s) % shape.r;
    const std::int64_t c = i / (shape.s * shape.r);
    red[i] = {r, sx, c * hwn + r * wn + sx * shape.n};
  }

  // O[k, p, q, n] = O[k·NPQ + row]: the output is column-major m×K.
  const engine::Grid grid{m, nk, crs, 1, gt.ml, gt.nl, gt.u * gt.kl, gt.kg};
  const engine::Output<float> out{alpha, beta, output, m, 0};
  engine::run(grid, out, [&](const engine::Block& blk) {
    RowEntry* rows = engine::scratch<RowEntry>(static_cast<std::size_t>(grid.ml));
    const std::int64_t q_extent = shape.q();
    for (int i = 0; i < blk.mv; ++i) {
      const std::int64_t row = blk.m0 + i;
      const std::int64_t n = row % shape.n;
      const std::int64_t q = (row / shape.n) % q_extent;
      const std::int64_t p = row / (shape.n * q_extent);
      const std::int64_t h0 = p * shape.stride_h - shape.pad_h;
      const std::int64_t w0 = q * shape.stride_w - shape.pad_w;
      rows[i] = {h0, w0, h0 * wn + w0 * shape.n + n};
    }
    return [&, rows, blk](std::int64_t k0, int dv, float* sa) {
      for (int d = 0; d < dv; ++d) {
        const RedEntry& e = red[k0 + d];
        float* dst = sa + static_cast<std::ptrdiff_t>(d) * grid.ml;
        for (int i = 0; i < blk.mv; ++i) {
          const std::int64_t hh = rows[i].h0 + e.r;
          const std::int64_t ww = rows[i].w0 + e.s;
          dst[i] = (hh >= 0 && hh < shape.h && ww >= 0 && ww < shape.w)
                       ? input[e.offset + rows[i].base]
                       : 0.0f;  // padding
        }
      }
      // F[c, r, s, k] = F[red·K + k]: k contiguous, read in place.
      return engine::Tiles<float>{sa, grid.ml, filters + k0 * nk + blk.n0, nk, 1};
    };
  });
}

void reference_conv(const ConvShape& shape, float alpha, const float* input,
                    const float* filters, float beta, float* output) {
  const std::int64_t P = shape.p(), Q = shape.q();
  for (std::int64_t k = 0; k < shape.k; ++k) {
    for (std::int64_t p = 0; p < P; ++p) {
      for (std::int64_t q = 0; q < Q; ++q) {
        for (std::int64_t n = 0; n < shape.n; ++n) {
          double acc = 0.0;
          for (std::int64_t c = 0; c < shape.c; ++c) {
            for (std::int64_t r = 0; r < shape.r; ++r) {
              for (std::int64_t sx = 0; sx < shape.s; ++sx) {
                const std::int64_t hh = p * shape.stride_h + r - shape.pad_h;
                const std::int64_t ww = q * shape.stride_w + sx - shape.pad_w;
                if (hh < 0 || hh >= shape.h || ww < 0 || ww >= shape.w) continue;
                const float iv =
                    input[((c * shape.h + hh) * shape.w + ww) * shape.n + n];
                const float fv = filters[((c * shape.r + r) * shape.s + sx) * shape.k + k];
                acc += static_cast<double>(iv) * fv;
              }
            }
          }
          const std::int64_t oi = ((k * P + p) * Q + q) * shape.n + n;
          output[oi] = alpha * static_cast<float>(acc) + beta * output[oi];
        }
      }
    }
  }
}

}  // namespace isaac::codegen
