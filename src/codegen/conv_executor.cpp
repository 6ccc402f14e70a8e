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
/// is the I[c, r, s, 0] part of the gather address, c·H·W·N + r·W·N + s·N.
struct RedEntry {
  std::int64_t r, s, offset;
};

/// A run of implicit-GEMM rows that share one (p, q), so one window: rows
/// i0 … i0 + len − 1 of the block, n ascending (n fastest, then q, then p,
/// matching O's layout). Their input elements are contiguous, so one bounds
/// check covers the run. (h0, w0) is the window's top-left input coordinate
/// and base the rest of the first row's gather address,
/// (p·stride_h − pad_h)·W·N + (q·stride_w − pad_w)·N + n.
struct RowRun {
  std::int64_t h0, w0, base;
  int i0, len;
};

/// dst[0, len) = src[0, len): a run is a few elements long, so it moves in
/// fixed 16-byte pieces rather than through a library call.
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
    red[i] = {r, sx, c * hwn + r * wn + sx * shape.n};
  }

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
      const std::int64_t w0 = q * shape.stride_w - shape.pad_w;
      const int len = static_cast<int>(std::min<std::int64_t>(shape.n - n, blk.mv - i));
      runs[num_runs++] = {h0, w0, h0 * wn + w0 * shape.n + n, i, len};
      i += len;
    }
    return [&, runs, num_runs, n0 = blk.n0](std::int64_t k0, int dv, float* sa) {
      const RedEntry* e = red + k0;
      for (int u = 0; u < num_runs; ++u) {
        const RowRun& run = runs[u];
        float* to = sa + run.i0;
        for (int d = 0; d < dv; ++d) {
          const std::int64_t hh = run.h0 + e[d].r;
          const std::int64_t ww = run.w0 + e[d].s;
          if (hh >= 0 && hh < shape.h && ww >= 0 && ww < shape.w) {
            copy_run(input + (run.base + e[d].offset), run.len, to + d * grid.ml);
          } else {
            std::fill_n(to + d * grid.ml, run.len, 0.0f);  // padding
          }
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
