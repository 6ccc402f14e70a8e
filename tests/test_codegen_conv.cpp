// Tests for the CONV parameterization: implicit-GEMM lowering, validity,
// analysis, and the functional executor against the naive direct reference,
// on hand-picked cases and a seeded sample of the legal space. CG = 1 outputs
// are also compared bit for bit with an ordered-sum oracle.

// The oracle must round each multiply and each add on its own, as the
// executor does, in every build (see conv_executor.cpp).
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "codegen/conv.hpp"
#include "codegen/conv_executor.hpp"
#include "codegen/gemm_executor.hpp"
#include "common/cpu_isa.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "telemetry/metrics.hpp"
#include "tuning/search_space.hpp"

namespace isaac::codegen {
namespace {

ConvTuning tiny_tuning() {
  ConvTuning t;
  t.tk = 2;
  t.tp = 1;
  t.tq = 1;
  t.tn = 2;
  t.bk = 8;
  t.bp = 2;
  t.bq = 2;
  t.bn = 4;
  t.u = 4;
  return t;
}

// ---------------------------------------------------------------- shapes --
TEST(ConvShape, DerivedDims) {
  ConvShape s;
  s.h = 8;
  s.w = 10;
  s.r = 3;
  s.s = 3;
  EXPECT_EQ(s.p(), 6);
  EXPECT_EQ(s.q(), 8);
  s.pad_h = s.pad_w = 1;
  EXPECT_EQ(s.p(), 8);
  EXPECT_EQ(s.q(), 10);
  s.stride_h = s.stride_w = 2;
  EXPECT_EQ(s.p(), 4);
  EXPECT_EQ(s.q(), 5);
}

TEST(ConvShape, FromNpqMatchesTable5Convention) {
  // Conv5 of Table 5: N=8, P=Q=54, K=64, C=64, R=S=3.
  const auto s = ConvShape::from_npq(8, 54, 54, 64, 64, 3, 3);
  EXPECT_EQ(s.p(), 54);
  EXPECT_EQ(s.q(), 54);
  EXPECT_EQ(s.npq(), 8 * 54 * 54);
  EXPECT_EQ(s.crs(), 64 * 3 * 3);
}

TEST(ConvShape, FlopsMatchImplicitGemm) {
  const auto s = ConvShape::from_npq(16, 7, 7, 512, 512, 3, 3);
  const auto g = conv_gemm_shape(s);
  EXPECT_DOUBLE_EQ(s.flops(), g.flops());
  EXPECT_EQ(g.m, s.npq());
  EXPECT_EQ(g.n, s.k);
  EXPECT_EQ(g.k, s.crs());
}

// -------------------------------------------------------------- validity --
TEST(ConvValidity, TypicalConfigLegal) {
  const auto s = ConvShape::from_npq(8, 54, 54, 64, 64, 3, 3);
  std::string why;
  EXPECT_TRUE(validate(s, tiny_tuning(), gpusim::gtx980ti(), &why)) << why;
}

TEST(ConvValidity, ThreadTileMustDivideBlockTile) {
  auto t = tiny_tuning();
  t.tk = 4;
  t.bk = 2;
  const auto s = ConvShape::from_npq(8, 54, 54, 64, 64, 3, 3);
  EXPECT_FALSE(validate(s, t, gpusim::gtx980ti()));
}

TEST(ConvValidity, OversizedSpatialTileRejected) {
  auto t = tiny_tuning();
  t.bp = 8;
  t.bq = 8;  // output is 3x3: hopeless tile
  ConvShape s = ConvShape::from_npq(4, 3, 3, 16, 16, 3, 3);
  std::string why;
  EXPECT_FALSE(validate(s, t, gpusim::gtx980ti(), &why));
  EXPECT_NE(why.find("exceeds output"), std::string::npos);
}

TEST(ConvValidity, GemmConstraintsPropagate) {
  auto t = tiny_tuning();
  t.cg = 64;  // CRS = 576 < ... fine; but make it beyond: use small filter
  ConvShape s = ConvShape::from_npq(8, 54, 54, 64, 2, 1, 1);  // CRS = 2
  EXPECT_FALSE(validate(s, t, gpusim::gtx980ti()));
}

// --------------------------------------------------------------- analysis --
TEST(ConvAnalyze, ProfileLowersToGemm) {
  const auto s = ConvShape::from_npq(8, 54, 54, 64, 64, 3, 3);
  const auto p = analyze(s, tiny_tuning(), gpusim::gtx980ti());
  const auto gt = conv_gemm_tuning(tiny_tuning());
  EXPECT_EQ(p.threads_per_block, gt.threads_per_block());
  EXPECT_DOUBLE_EQ(p.useful_flops, s.flops());
  EXPECT_GT(p.fma_insts, 0.0);
  // Indirection table adds integer and load traffic over the plain GEMM.
  const auto plain = analyze(conv_gemm_shape(s), gt, gpusim::gtx980ti());
  EXPECT_GT(p.ld_global_insts, plain.ld_global_insts);
  EXPECT_GT(p.int_insts, plain.int_insts);
}

TEST(ConvAnalyze, CompulsoryTrafficUsesUniqueInput) {
  // 3x3 filter: implicit-GEMM A would be ~9x the input; compulsory traffic
  // must reflect the unique C*H*W*N input instead.
  const auto s = ConvShape::from_npq(8, 54, 54, 64, 64, 3, 3);
  const auto p = analyze(s, tiny_tuning(), gpusim::gtx980ti());
  const double unique = 64.0 * s.h * s.w * 8 * 4;
  const double implicit_a = static_cast<double>(s.npq()) * s.crs() * 4;
  EXPECT_LT(p.dram_read_bytes, implicit_a);
  EXPECT_GE(p.dram_read_bytes, unique);
}

TEST(ConvAnalyze, DeepReductionCanSplit) {
  // Conv8-like: tiny NPQ, huge CRS — the regime where CG/CL wins (paper §7.4).
  const auto s = ConvShape::from_npq(16, 7, 7, 128, 832, 5, 5);
  auto t = tiny_tuning();
  t.cg = 8;
  t.cl = 2;
  std::string why;
  ASSERT_TRUE(validate(s, t, gpusim::tesla_p100(), &why)) << why;
  const auto p = analyze(s, t, gpusim::tesla_p100());
  EXPECT_GT(p.atom_global_insts, 0.0);
  EXPECT_EQ(p.extra_launches, 1);
}

TEST(ConvAnalyze, IllegalThrows) {
  auto t = tiny_tuning();
  t.bk = 4;  // tk=2 ok, but make block tiny and thread tile not dividing
  t.tk = 8;
  const auto s = ConvShape::from_npq(8, 54, 54, 64, 64, 3, 3);
  EXPECT_THROW(analyze(s, t, gpusim::gtx980ti()), std::invalid_argument);
}

// --------------------------------------------------------------- executor --
struct ConvCase {
  ConvShape shape;
  ConvTuning tuning;
};

class ConvExecutorMatchesReference : public ::testing::TestWithParam<ConvCase> {};

/// Run the executor and the reference on seeded operands, both outputs
/// starting at `init`, and return the largest difference (NaN if any). A NaN
/// `init` checks that beta = 0 never reads the output: the reference then
/// starts from zeros, which it computes the same result from.
double conv_max_diff(const ConvShape& s, const ConvTuning& t, float beta, float init) {
  Rng rng(static_cast<std::uint64_t>(s.c * 7 + s.k * 3 + s.n));

  std::vector<float> input(static_cast<std::size_t>(s.c * s.h * s.w * s.n));
  std::vector<float> filters(static_cast<std::size_t>(s.c * s.r * s.s * s.k));
  for (auto& x : input) x = static_cast<float>(rng.uniform(-1, 1));
  for (auto& x : filters) x = static_cast<float>(rng.uniform(-1, 1));

  const std::size_t out_size = static_cast<std::size_t>(s.k * s.p() * s.q() * s.n);
  std::vector<float> out(out_size, init), out_ref(out_size, std::isnan(init) ? 0.0f : init);

  execute_conv(s, t, 1.0f, input.data(), filters.data(), beta, out.data());
  reference_conv(s, 1.0f, input.data(), filters.data(), beta, out_ref.data());

  double max_diff = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double diff = std::abs(out[i] - out_ref[i]);
    if (std::isnan(diff)) return diff;
    max_diff = std::max(max_diff, diff);
  }
  return max_diff;
}

TEST_P(ConvExecutorMatchesReference, Float) {
  const ConvShape& s = GetParam().shape;
  const ConvTuning& t = GetParam().tuning;
  EXPECT_LT(conv_max_diff(s, t, 0.0f, 0.5f), 1e-3 * static_cast<double>(s.crs()))
      << s.to_string() << " / " << t.to_string();
}

ConvCase cc(ConvShape s, ConvTuning t) { return ConvCase{s, t}; }

ConvShape strided_padded() {
  ConvShape s;
  s.n = 2;
  s.c = 3;
  s.h = 11;
  s.w = 9;
  s.k = 4;
  s.r = 3;
  s.s = 3;
  s.pad_h = 1;
  s.pad_w = 1;
  s.stride_h = 2;
  s.stride_w = 2;
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSplits, ConvExecutorMatchesReference,
    ::testing::Values(
        // Basic 3x3, exact-ish tiles.
        cc(ConvShape::from_npq(4, 8, 8, 8, 4, 3, 3), tiny_tuning()),
        // 1x1 "pointwise" (degenerates to plain GEMM).
        cc(ConvShape::from_npq(4, 6, 6, 16, 8, 1, 1), tiny_tuning()),
        // Single-image single-filter signal processing case (N=C=K=1, §3.3).
        cc(ConvShape::from_npq(1, 16, 16, 1, 1, 5, 5),
           [] {
             auto t = tiny_tuning();
             t.bk = 8;
             t.tk = 1;
             t.bn = 1;
             t.tn = 1;
             t.bp = 4;
             t.bq = 4;
             t.tp = 2;
             t.tq = 2;
             return t;
           }()),
        // Ragged spatial extents.
        cc(ConvShape::from_npq(3, 7, 5, 6, 5, 3, 3), tiny_tuning()),
        // Split reduction along C (CL and CG).
        cc(ConvShape::from_npq(4, 8, 8, 8, 32, 3, 3),
           [] {
             auto t = tiny_tuning();
             t.cl = 2;
             t.cg = 4;
             return t;
           }()),
        // Padding + stride.
        cc(strided_padded(), [] {
          auto t = tiny_tuning();
          t.bk = 4;
          t.bn = 2;
          return t;
        }())));

TEST(ConvExecutor, BetaScalesExistingOutput) {
  const auto s = ConvShape::from_npq(2, 4, 4, 2, 2, 3, 3);
  std::vector<float> input(static_cast<std::size_t>(s.c * s.h * s.w * s.n), 0.0f);
  std::vector<float> filters(static_cast<std::size_t>(s.crs() * s.k), 0.0f);
  std::vector<float> out(static_cast<std::size_t>(s.k * s.p() * s.q() * s.n), 2.0f);
  execute_conv(s, tiny_tuning(), 1.0f, input.data(), filters.data(), 0.5f, out.data());
  for (float v : out) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(ConvExecutor, EmptyProblemThrows) {
  ConvShape s;
  s.c = 0;
  std::vector<float> dummy(16);
  EXPECT_THROW(execute_conv(s, tiny_tuning(), 1.0f, dummy.data(), dummy.data(), 0.0f,
                            dummy.data()),
               std::invalid_argument);
}

TEST(ConvExecutor, BetaZeroIgnoresNaNOutput) {
  for (const int cg : {1, 2}) {
    auto t = tiny_tuning();
    t.cg = cg;
    const auto s = ConvShape::from_npq(3, 5, 7, 13, 6, 3, 3);
    EXPECT_LT(conv_max_diff(s, t, 0.0f, std::numeric_limits<float>::quiet_NaN()),
              1e-3 * static_cast<double>(s.crs()))
        << "cg=" << cg;
  }
}

TEST(ConvExecutor, BetaHalfWithRaggedTailsAndReductionSplit) {
  // NPQ = 105 over 16-row tiles and K = 13 over 8-column tiles leave ragged
  // tails in both dimensions; CG > 1 takes the scale-then-accumulate path.
  const auto s = ConvShape::from_npq(3, 5, 7, 13, 6, 3, 3);
  for (const int cg : {1, 4}) {
    for (const int cl : {1, 2}) {
      auto t = tiny_tuning();
      t.cg = cg;
      t.cl = cl;
      EXPECT_LT(conv_max_diff(s, t, 0.5f, 0.75f), 1e-3 * static_cast<double>(s.crs()))
          << "cg=" << cg << " cl=" << cl;
    }
  }
}

TEST(ConvExecutor, OnePoolPassPerCallWithoutSplit) {
  telemetry::set_enabled(true);
  telemetry::Counter& passes = telemetry::counter("pool.parallel_for");
  const auto s = ConvShape::from_npq(4, 8, 8, 16, 8, 3, 3);
  std::vector<float> input(static_cast<std::size_t>(s.c * s.h * s.w * s.n), 1.0f);
  std::vector<float> filters(static_cast<std::size_t>(s.crs() * s.k), 1.0f);
  std::vector<float> out(static_cast<std::size_t>(s.k * s.npq()), 1.0f);
  for (const int cg : {1, 2}) {
    auto t = tiny_tuning();
    t.cg = cg;
    const std::uint64_t before = passes.value();
    execute_conv(s, t, 1.0f, input.data(), filters.data(), 0.5f, out.data());
    EXPECT_EQ(passes.value() - before, static_cast<std::uint64_t>(cg)) << "cg=" << cg;
  }
  telemetry::set_enabled(false);
}

/// The implicit GEMM as the executor sums it with CG = 1: each output is the
/// ascending sum over red = (c·R + r)·S + s from zero, a padded tap
/// contributing 0·F, one rounded multiply and one rounded add per step, then
/// alpha·sum, plus beta·O unless beta = 0.
void ordered_sum_conv(const ConvShape& s, float alpha, const float* input, const float* filters,
                      float beta, float* output) {
  const std::int64_t P = s.p(), Q = s.q();
  for (std::int64_t k = 0; k < s.k; ++k) {
    for (std::int64_t p = 0; p < P; ++p) {
      for (std::int64_t q = 0; q < Q; ++q) {
        for (std::int64_t n = 0; n < s.n; ++n) {
          float sum = 0.0f;
          for (std::int64_t red = 0; red < s.crs(); ++red) {
            const std::int64_t sx = red % s.s;
            const std::int64_t r = (red / s.s) % s.r;
            const std::int64_t c = red / (s.s * s.r);
            const std::int64_t hh = p * s.stride_h + r - s.pad_h;
            const std::int64_t ww = q * s.stride_w + sx - s.pad_w;
            const bool inside = hh >= 0 && hh < s.h && ww >= 0 && ww < s.w;
            const float iv = inside ? input[((c * s.h + hh) * s.w + ww) * s.n + n] : 0.0f;
            sum += iv * filters[red * s.k + k];
          }
          float& out = output[((k * P + p) * Q + q) * s.n + n];
          out = beta == 0.0f ? alpha * sum : alpha * sum + beta * out;
        }
      }
    }
  }
}

ConvShape padded_single_image() {
  ConvShape s;
  s.n = 1;
  s.c = 3;
  s.h = 9;
  s.w = 7;
  s.k = 5;
  s.r = 3;
  s.s = 3;
  s.pad_h = 1;
  s.pad_w = 1;
  return s;
}

/// Padded by two columns against a five-wide filter: at s = 0 and 1 the
/// first output columns read padding, at s = 3 and 4 the last ones do.
ConvShape wide_padded() {
  ConvShape s;
  s.n = 2;
  s.c = 2;
  s.h = 6;
  s.w = 7;
  s.k = 5;
  s.r = 3;
  s.s = 5;
  s.pad_h = 1;
  s.pad_w = 2;
  return s;
}

/// Strided along H only, so a run still spans the q of an output row.
ConvShape row_strided() {
  ConvShape s;
  s.n = 3;
  s.c = 5;
  s.h = 12;
  s.w = 11;
  s.k = 6;
  s.r = 3;
  s.s = 3;
  s.pad_h = 2;
  s.pad_w = 1;
  s.stride_h = 2;
  return s;
}

ConvShape strided_pointwise() {
  ConvShape s = ConvShape::from_npq(3, 5, 4, 7, 6, 1, 1);
  s.h = 10;
  s.w = 8;
  s.stride_h = 2;
  s.stride_w = 2;
  return s;
}

TEST(ConvExecutor, BitIdenticalToOrderedSum) {
  // The filters are read in place; the im2col gather is staged in runs of
  // rows that are contiguous in the input, except for the 1×1, stride-1,
  // unpadded conv, whose A is the input read in place. With stride_w = 1 a
  // run spans every q of an output row the block holds, and a padded run
  // splits per (r, s) into a zero head, one copy and a zero tail; with
  // stride_w > 1 a run is one window. Unpadded shapes (runs over several q,
  // blocks that end mid-row), an N = 1 conv with padding, a conv padded by
  // two columns (whole rows of zeros at both edges), a stride_h = 2,
  // stride_w = 1 conv, a stride-2 padded conv (per-window runs), a 1×1
  // conv read in place and a strided 1×1 conv that is gathered; CL = 1 and
  // 2, and block heights ML = 1 … 64 with a ragged last row block, on every
  // micro-kernel variant the CPU supports. ML = 1 and 2 (and the last
  // blocks of ML ≥ 4) leave rows under one 16-byte vector, which multiply
  // as column vectors over the filters' contiguous K. The last shape (19
  // MFLOP) is over the engine's inline threshold, so its blocks spread
  // across the pool, at CL = 1 and 2.
  std::vector<ConvTuning> by_cl;
  for (const int cl : {1, 2}) {
    auto t = tiny_tuning();
    t.cl = cl;
    by_cl.push_back(t);
  }
  std::vector<ConvTuning> sweep = by_cl;
  for (const int bn : {1, 2, 4, 8, 16, 32, 64}) {
    auto t = tiny_tuning();
    t.tn = 1;
    t.tk = 1;
    t.bp = 1;
    t.bq = 1;
    t.bn = bn;
    t.bk = bn % 16 == 0 ? 4 : 8;
    sweep.push_back(t);
  }
  struct Case {
    ConvShape shape;
    std::vector<ConvTuning> tunings;
  };
  const Case cases[] = {{ConvShape::from_npq(4, 8, 8, 8, 4, 3, 3), sweep},
                        {ConvShape::from_npq(3, 7, 5, 6, 5, 3, 3), sweep},
                        {strided_padded(), sweep},
                        {padded_single_image(), sweep},
                        {wide_padded(), sweep},
                        {row_strided(), sweep},
                        {ConvShape::from_npq(5, 6, 7, 11, 9, 1, 1), sweep},
                        {strided_pointwise(), sweep},
                        {ConvShape::from_npq(8, 16, 16, 32, 16, 3, 3), by_cl}};
  std::vector<cpu::Isa> isas;
  for (const cpu::Isa isa : {cpu::Isa::sse2, cpu::Isa::avx2, cpu::Isa::avx512}) {
    if (cpu::supported(isa)) isas.push_back(isa);
  }
  for (const Case& c : cases) {
    const ConvShape& s = c.shape;
    Rng rng(static_cast<std::uint64_t>(s.npq() + s.k));
    std::vector<float> input(static_cast<std::size_t>(s.c * s.h * s.w * s.n));
    std::vector<float> filters(static_cast<std::size_t>(s.crs() * s.k));
    std::vector<float> init(static_cast<std::size_t>(s.k * s.npq()));
    for (std::vector<float>* v : {&input, &filters, &init}) {
      for (float& x : *v) x = static_cast<float>(rng.uniform(-1, 1));
    }
    for (const float beta : {0.0f, 0.5f}) {
      std::vector<float> want = init;
      ordered_sum_conv(s, 1.5f, input.data(), filters.data(), beta, want.data());
      for (const ConvTuning& t : c.tunings) {
        for (const cpu::Isa isa : isas) {
          std::vector<float> got = init;
          detail::with_isa(isa, [&] {
            execute_conv(s, t, 1.5f, input.data(), filters.data(), beta, got.data());
          });
          EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
              << s.to_string() << " / " << t.to_string() << " beta=" << beta << " "
              << cpu::name(isa);
        }
      }
    }
  }
}

TEST(ConvExecutor, SampledLegalTuningsMatchReference) {
  // Legal => correct over a seeded reservoir sample of the legal space: the
  // pruned walk over prefix_constraints, gated by validate().
  constexpr std::size_t kSample = 32;
  const auto dev = gpusim::tesla_p100();
  const tuning::ConvSearchSpace space;
  for (const ConvShape& s : {ConvShape::from_npq(2, 5, 6, 12, 5, 3, 3), strided_padded()}) {
    const tuning::ConstraintSet cs = space.prefix_constraints(s, dev);
    Rng rng(static_cast<std::uint64_t>(s.npq()));
    std::vector<ConvTuning> sample;
    std::int64_t seen = 0;
    tuning::walk_legal(space.domains(), cs.empty() ? nullptr : &cs,
                       [&](const std::vector<std::size_t>& choice, std::uint64_t) {
                         const ConvTuning t = space.decode(choice);
                         if (!validate(s, t, dev)) return true;
                         ++seen;
                         if (sample.size() < kSample) {
                           sample.push_back(t);
                         } else if (const auto r = rng.uniform_int(0, seen - 1);
                                    r < static_cast<std::int64_t>(kSample)) {
                           sample[static_cast<std::size_t>(r)] = t;
                         }
                         return true;
                       });
    ASSERT_EQ(sample.size(), kSample) << s.to_string();
    for (const ConvTuning& t : sample) {
      EXPECT_LT(conv_max_diff(s, t, 0.5f, 0.75f), 1e-3 * static_cast<double>(s.crs()))
          << s.to_string() << " / " << t.to_string();
    }
  }
}

}  // namespace
}  // namespace isaac::codegen
