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

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "codegen/block_engine.hpp"
#include "common/failpoint.hpp"

namespace isaac::codegen {

namespace {

/// One reduction index red = (c·R + r)·S + s of the implicit GEMM. `offset`
/// is the I[c, r, s, 0] part of the gather address, c·H·W·N + r·W·N + s·N,
/// and sn = s·N.
struct RedEntry {
  std::int64_t r, sn, offset;
};

/// A run of implicit-GEMM rows whose input elements are contiguous at every
/// reduction index: rows i0 … i0 + len − 1 of the block, n fastest, then q
/// (matching O's layout). With stride_w = 1 the rows of one output row p
/// are contiguous in the input, so a run spans every q of row p the block
/// holds; with stride_w > 1 it is one (p, q) window. h0 is the first row's
/// input row at r = 0, and col = w0·N + n its input column position at
/// s = 0, w0 = q·stride_w − pad_w, so its row l reads column position
/// col + s·N + l; base = h0·W·N + col is the first row's gather address at
/// red = 0. An `inside` run reads no padding at any reduction index.
struct RowRun {
  std::int64_t h0, col, base;
  int i0, len;
  bool inside;
};

/// dst[0, len) = src[0, len): a run is at most one block's rows, a few to a
/// few dozen elements, so it moves in fixed 16-byte pieces rather than
/// through a library call.
inline void copy_run(const float* src, int len, float* dst) {
  int l = 0;
  for (; l + 4 <= len; l += 4) std::memcpy(dst + l, src + l, 4 * sizeof(float));
  for (; l < len; ++l) dst[l] = src[l];
}

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

  // O[k, p, q, n] = O[k·NPQ + row]: the output is column-major m×K, and
  // F[c, r, s, k] = F[red·K + k] is read in place, k contiguous.
  const engine::Grid grid{m, nk, crs, 1, gt.ml, gt.nl, gt.u * gt.kl, gt.kg};
  const engine::Output<float> out{alpha, beta, output, m, 0};
  const std::int64_t wn = shape.w * shape.n;
  const std::int64_t hwn = shape.h * wn;

  // A 1×1, stride-1, unpadded conv's implicit GEMM is the input itself:
  // row = (p·W + q)·N + n is the offset inside channel red, so A is read in
  // place with no gather.
  if (shape.r == 1 && shape.s == 1 && shape.stride_h == 1 && shape.stride_w == 1 &&
      shape.pad_h == 0 && shape.pad_w == 0) {
    engine::run(grid, out, [&](const engine::Block& blk) {
      return [&, blk](std::int64_t k0, int, float*) {
        return engine::Tiles<float>{input + k0 * hwn + blk.m0, hwn, filters + k0 * nk + blk.n0,
                                    nk, 1};
      };
    });
    return;
  }

  // The reduction table lives in the calling thread's scratch. Pool workers
  // only read it, and the call blocks until every block has finished, so no
  // other use of this thread's buffer can overlap it.
  RedEntry* red = engine::scratch<RedEntry>(static_cast<std::size_t>(crs));
  for (std::int64_t i = 0; i < crs; ++i) {
    const std::int64_t sx = i % shape.s;
    const std::int64_t r = (i / shape.s) % shape.r;
    const std::int64_t c = i / (shape.s * shape.r);
    red[i] = {r, sx * shape.n, c * hwn + r * wn + sx * shape.n};
  }

  const bool span_q = shape.stride_w == 1;
  engine::run(grid, out, [&](const engine::Block& blk) {
    RowRun* runs = engine::scratch<RowRun>(static_cast<std::size_t>(grid.ml));
    int num_runs = 0;
    const std::int64_t q_extent = shape.q();
    for (int i = 0; i < blk.mv;) {
      const std::int64_t row = blk.m0 + i;
      const std::int64_t n = row % shape.n;
      const std::int64_t q = (row / shape.n) % q_extent;
      const std::int64_t p = row / (shape.n * q_extent);
      const std::int64_t h0 = p * shape.stride_h - shape.pad_h;
      const std::int64_t col = (q * shape.stride_w - shape.pad_w) * shape.n + n;
      const std::int64_t rest = span_q ? (q_extent - q) * shape.n - n : shape.n - n;
      const int len = static_cast<int>(std::min<std::int64_t>(rest, blk.mv - i));
      const bool inside = h0 >= 0 && h0 + shape.r <= shape.h && col >= 0 &&
                          col + (shape.s - 1) * shape.n + len <= wn;
      runs[num_runs++] = {h0, col, h0 * wn + col, i, len, inside};
      i += len;
    }
    return [&, runs, num_runs, n0 = blk.n0](std::int64_t k0, int dv, float* sa) {
      const RedEntry* e = red + k0;
      for (int u = 0; u < num_runs; ++u) {
        const RowRun& run = runs[u];
        if (run.inside) {
          for (int d = 0; d < dv; ++d) {
            copy_run(input + (run.base + e[d].offset), run.len, sa + run.i0 + d * grid.ml);
          }
          continue;
        }
        for (int d = 0; d < dv; ++d) {
          float* to = sa + run.i0 + d * grid.ml;
          const std::int64_t hh = run.h0 + e[d].r;
          if (hh < 0 || hh >= shape.h) {
            std::fill_n(to, run.len, 0.0f);  // padding rows
            continue;
          }
          // Rows [lo, hi) read input columns inside [0, W); the rest are
          // padding.
          const std::int64_t at = run.col + e[d].sn;
          const int lo = static_cast<int>(std::clamp<std::int64_t>(-at, 0, run.len));
          const int hi = static_cast<int>(std::clamp<std::int64_t>(wn - at, lo, run.len));
          std::fill_n(to, lo, 0.0f);
          copy_run(input + (run.base + e[d].offset + lo), hi - lo, to + lo);
          std::fill_n(to + hi, run.len - hi, 0.0f);
        }
      }
      return engine::Tiles<float>{sa, grid.ml, filters + k0 * nk + n0, nk, 1};
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
