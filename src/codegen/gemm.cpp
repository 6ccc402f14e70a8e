#include "codegen/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "common/strings.hpp"
#include "gpusim/occupancy.hpp"

namespace isaac::codegen {

using gpusim::DataType;

std::string GemmShape::to_string() const {
  return strings::format("gemm[%lldx%lldx%lld %s %c%c]", static_cast<long long>(m),
                         static_cast<long long>(n), static_cast<long long>(k),
                         gpusim::dtype_name(dtype), trans_a ? 'T' : 'N', trans_b ? 'T' : 'N');
}

std::string GemmTuning::to_string() const {
  return strings::format("ms%d ns%d ml%d nl%d u%d ks%d kl%d kg%d v%d", ms, ns, ml, nl, u, ks,
                         kl, kg, vec);
}

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }

int dtype_reg_words(DataType dt) { return dt == DataType::F64 ? 2 : 1; }

}  // namespace

int estimate_registers(const GemmShape& shape, const GemmTuning& tuning) {
  // Accumulators dominate: MS*NS values, double-width for f64, packed in
  // pairs for fp16x2.
  int acc = tuning.ms * tuning.ns * dtype_reg_words(shape.dtype);
  if (shape.dtype == DataType::F16 && tuning.ns % 2 == 0) acc = (acc + 1) / 2;

  // Operand fetch registers for the inner product step (MS + NS) plus the
  // staging registers for the cooperative prefetch.
  const int threads = tuning.threads_per_block();
  const int fetch_elems =
      static_cast<int>(ceil_div(static_cast<std::int64_t>(tuning.ml + tuning.nl) * tuning.u *
                                    tuning.kl,
                                threads));
  int fetch = (tuning.ms + tuning.ns) * dtype_reg_words(shape.dtype) +
              std::max(2, fetch_elems) * dtype_reg_words(shape.dtype);

  // Addressing, loop counters, predicates spill space.
  int addressing = 18;
  if (tuning.kl > 1) addressing += 4;
  if (tuning.kg > 1) addressing += 2;
  if (shape.trans_a) addressing += 2;
  if (!shape.trans_b) addressing += 2;

  return std::max(24, acc + fetch + addressing);
}

int smem_bytes(const GemmShape& shape, const GemmTuning& tuning) {
  const int dsize = static_cast<int>(gpusim::dtype_size(shape.dtype));
  // Double-buffered k-major staging tiles: [U*KL][ML] for A, [U*KL][NL] for B.
  const int staging = (tuning.ml + tuning.nl) * tuning.u * tuning.kl * dsize * 2;
  // K_L reduction epilogue: fp32 partial tile exchanged through shared memory.
  const int epilogue = tuning.kl > 1 ? tuning.ml * tuning.nl * 4 : 0;
  return std::max(staging, epilogue);
}

bool validate(const GemmShape& shape, const GemmTuning& tuning,
              const gpusim::DeviceDescriptor& dev, std::string* why) {
  // The reason is built only when asked for: ranking validates every point
  // of X̂ with why == nullptr. A reason is a literal or a callable that
  // formats one.
  const auto fail = [why](const auto& reason) {
    if (why) {
      if constexpr (std::is_invocable_v<decltype(reason)>) {
        *why = reason();
      } else {
        *why = reason;
      }
    }
    return false;
  };

  if (shape.m <= 0 || shape.n <= 0 || shape.k <= 0) return fail("empty problem");

  for (int v : {tuning.ms, tuning.ns, tuning.ml, tuning.nl, tuning.u, tuning.ks, tuning.kl,
                tuning.kg, tuning.vec}) {
    if (!is_pow2(v)) return fail("parameters must be positive powers of two");
  }

  if (tuning.ml % tuning.ms != 0) return fail("ML must be a multiple of MS");
  if (tuning.nl % tuning.ns != 0) return fail("NL must be a multiple of NS");
  if (tuning.u % tuning.ks != 0) return fail("U must be a multiple of KS");
  // Vectorized loads cap at 128 bits (ld.global.v4.f32 / v8.f16).
  if (tuning.vec * static_cast<int>(gpusim::dtype_size(shape.dtype)) > 16) {
    return fail("vectorized load wider than 128 bits");
  }

  const int threads = tuning.threads_per_block();
  if (threads > dev.max_threads_per_block) {
    return fail([&] {
      return strings::format("block of %d threads exceeds device limit %d", threads,
                             dev.max_threads_per_block);
    });
  }
  // Real ISAAC kernels launch warp-aligned blocks: sub-warp or ragged blocks
  // waste scheduler slots and are rejected as illegal.
  if (threads < dev.warp_size) return fail("block smaller than a warp");
  if (threads % dev.warp_size != 0) return fail("block size not a multiple of the warp size");

  // The cooperative prefetch must divide evenly among the block's threads
  // (each thread loads the same number of elements), and each thread's share
  // must be divisible by the vector width.
  const std::int64_t tile_elems_a =
      static_cast<std::int64_t>(tuning.ml) * tuning.u * tuning.kl;
  const std::int64_t tile_elems_b =
      static_cast<std::int64_t>(tuning.nl) * tuning.u * tuning.kl;
  if (tile_elems_a % threads != 0 || tile_elems_b % threads != 0) {
    return fail("prefetch tile does not divide evenly among threads");
  }
  if ((tile_elems_a / threads) % tuning.vec != 0 ||
      (tile_elems_b / threads) % tuning.vec != 0) {
    return fail("per-thread fetch not divisible by vector width");
  }

  // Fully unrolled inner loop must stay within a sane code-size budget —
  // kernels beyond it blow up compile time and instruction cache (the
  // "compilable" half of the paper's legality definition).
  const std::int64_t unrolled_insts =
      static_cast<std::int64_t>(tuning.u) *
      (static_cast<std::int64_t>(tuning.ms) * tuning.ns + tuning.ms + tuning.ns);
  if (unrolled_insts > 4096) {
    return fail([&] {
      return strings::format("unrolled inner loop of %lld instructions exceeds budget",
                             static_cast<long long>(unrolled_insts));
    });
  }

  // Reduction splits must leave every group at least one prefetch round.
  if (tuning.kg > shape.k) return fail("KG exceeds K");
  const std::int64_t k_eff = ceil_div(shape.k, tuning.kg);
  if (static_cast<std::int64_t>(tuning.u) * tuning.kl > std::max<std::int64_t>(k_eff, 1)) {
    return fail("U*KL exceeds the per-block reduction depth");
  }

  // Global f16 atomics do not exist on these architectures: a grid-level
  // split cannot accumulate half precision.
  if (tuning.kg > 1 && shape.dtype == DataType::F16) {
    return fail("KG>1 requires global atomics, unavailable for f16");
  }

  const int smem = smem_bytes(shape, tuning);
  if (smem > dev.smem_per_block_bytes) {
    return fail([&] {
      return strings::format("shared memory %d B exceeds block limit %d B", smem,
                             dev.smem_per_block_bytes);
    });
  }

  const int regs = estimate_registers(shape, tuning);
  if (regs > dev.max_registers_per_thread) {
    return fail([&] {
      return strings::format("estimated %d registers exceed limit %d", regs,
                             dev.max_registers_per_thread);
    });
  }

  // Must be schedulable: at least one block per SM.
  const auto occ = gpusim::occupancy(dev, threads, regs, smem);
  if (occ.blocks_per_sm <= 0) {
    return fail([&] { return std::string("kernel cannot launch: ") + occ.limiter + " limit"; });
  }
  return true;
}

gpusim::KernelProfile analyze(const GemmShape& shape, const GemmTuning& tuning,
                              const gpusim::DeviceDescriptor& dev) {
  std::string why;
  if (!validate(shape, tuning, dev, &why)) {
    throw std::invalid_argument("analyze: illegal config: " + why);
  }

  gpusim::KernelProfile p;
  const int dsize = static_cast<int>(gpusim::dtype_size(shape.dtype));
  const int threads = tuning.threads_per_block();

  // Padded bounds handling inflates the effective problem to tile multiples;
  // the extra work is real work on padded data.
  std::int64_t m = shape.m, n = shape.n, k = shape.k;
  const bool padded = tuning.bounds == gpusim::BoundsMode::Padded;
  if (padded) {
    m = ceil_div(m, tuning.ml) * tuning.ml;
    n = ceil_div(n, tuning.nl) * tuning.nl;
    k = ceil_div(k, static_cast<std::int64_t>(tuning.u) * tuning.kl) * tuning.u * tuning.kl;
  }

  const std::int64_t grid_m = ceil_div(m, tuning.ml);
  const std::int64_t grid_n = ceil_div(n, tuning.nl);
  const std::int64_t k_eff = ceil_div(k, tuning.kg);  // per-block reduction depth
  const std::int64_t k_thread = ceil_div(k_eff, tuning.kl);  // per-thread depth
  const std::int64_t rounds = ceil_div(k_eff, static_cast<std::int64_t>(tuning.u) * tuning.kl);

  p.label = shape.to_string() + " / " + tuning.to_string();
  p.grid_blocks = grid_m * grid_n * tuning.kg;
  p.threads_per_block = threads;
  p.regs_per_thread = estimate_registers(shape, tuning);
  p.smem_bytes_per_block = smem_bytes(shape, tuning);
  p.dtype = shape.dtype;
  p.bounds = tuning.bounds;
  p.useful_flops = shape.flops();

  // fp16x2 pairing: two MACs per instruction when NS accumulates in pairs.
  p.uses_fp16x2 = shape.dtype == DataType::F16 && tuning.ns % 2 == 0;

  // ---- per-thread instruction mix ----
  const double mac_count = static_cast<double>(k_thread) * tuning.ms * tuning.ns;
  p.fma_insts = p.uses_fp16x2 ? mac_count / 2.0 : mac_count;

  const double fetch_a = static_cast<double>(tuning.ml) * tuning.u * tuning.kl / threads;
  const double fetch_b = static_cast<double>(tuning.nl) * tuning.u * tuning.kl / threads;
  p.ld_global_insts = static_cast<double>(rounds) * (fetch_a + fetch_b) / tuning.vec;

  // Shared-memory traffic. Staging stores vectorize unless that operand is
  // transposed in flight; operand loads in the inner loop vectorize by the
  // micro-tile evenness.
  const bool transpose_a = shape.trans_a;   // see layout note in gemm.hpp
  const bool transpose_b = !shape.trans_b;
  const double st_a = static_cast<double>(rounds) * fetch_a / (transpose_a ? 1 : tuning.vec);
  const double st_b = static_cast<double>(rounds) * fetch_b / (transpose_b ? 1 : tuning.vec);
  int smem_vec = 1;
  if (tuning.ms % 4 == 0 && tuning.ns % 4 == 0) {
    smem_vec = 4;
  } else if (tuning.ms % 2 == 0 && tuning.ns % 2 == 0) {
    smem_vec = 2;
  }
  p.st_shared_insts = st_a + st_b;
  p.ld_shared_insts =
      static_cast<double>(k_thread) * (tuning.ms + tuning.ns) / smem_vec;
  p.smem_conflict_ways = 1.0 + (transpose_a ? 0.5 : 0.0) + (transpose_b ? 0.5 : 0.0);

  p.bar_syncs = 2.0 * static_cast<double>(rounds);

  // Loop bookkeeping, address updates, predicate recomputation at tile edges.
  p.int_insts = static_cast<double>(rounds) *
                    (10.0 + 2.0 * (fetch_a + fetch_b) / tuning.vec) +
                static_cast<double>(k_thread) * 0.5 + 2.0 * tuning.ms * tuning.ns /
                    std::max(1, smem_vec);

  // Epilogue: K_L reduction through shared memory, then stores or atomics.
  const double out_elems = static_cast<double>(tuning.ms) * tuning.ns;
  if (tuning.kl > 1) {
    p.st_shared_insts += out_elems;
    p.ld_shared_insts += out_elems * (tuning.kl - 1) / tuning.kl;
    p.fma_insts += out_elems * (tuning.kl - 1) / tuning.kl;
    p.bar_syncs += 2.0;
  }
  const double stores = p.uses_fp16x2 ? out_elems / 2.0 : out_elems;
  if (tuning.kg > 1) {
    p.atom_global_insts = stores / tuning.kl;
    p.extra_launches = 1;  // C must be zero-initialized before accumulation
  } else {
    p.st_global_insts = stores / tuning.kl;
  }

  // ---- latency-hiding hints ----
  p.ilp_arith = std::min<double>(tuning.ms * tuning.ns, 16.0) *
                std::min<double>(tuning.ks, 2.0);
  p.mlp_mem = std::max(1.0, (fetch_a + fetch_b) / tuning.vec);
  p.ilp_smem = smem_vec * 2.0;

  // ---- DRAM traffic ----
  const double a_bytes = static_cast<double>(m) * k * dsize;
  const double b_bytes = static_cast<double>(k) * n * dsize;
  p.dram_read_bytes = a_bytes + b_bytes;
  p.requested_read_bytes =
      static_cast<double>(p.grid_blocks) * (tuning.ml + tuning.nl) * k_eff * dsize;

  // Coalescing from the contiguous run length each tile row fetch sees
  // (32-byte DRAM sectors).
  const double contig_a = (transpose_a ? tuning.u * tuning.kl : tuning.ml) * dsize;
  const double contig_b = (transpose_b ? tuning.u * tuning.kl : tuning.nl) * dsize;
  const double eff_a = std::min(1.0, contig_a / 32.0);
  const double eff_b = std::min(1.0, contig_b / 32.0);
  p.coalescing_efficiency =
      (a_bytes * eff_a + b_bytes * eff_b) / std::max(1.0, a_bytes + b_bytes);

  // Wave-level reuse hints: blocks are scheduled n-fastest, then m, then the
  // K_G slice, so co-resident blocks share B column panels and A row panels.
  const auto occ = gpusim::occupancy(dev, threads, p.regs_per_thread, p.smem_bytes_per_block);
  const double omega = std::max(1.0, static_cast<double>(occ.blocks_per_sm) * dev.num_sms);
  const double cols_dist = std::min<double>(static_cast<double>(grid_n), omega);
  const double rows_dist =
      std::min<double>(static_cast<double>(grid_m), std::ceil(omega / static_cast<double>(grid_n)));
  const double slices = std::clamp(
      std::ceil(omega / static_cast<double>(grid_m * grid_n)), 1.0,
      static_cast<double>(tuning.kg));
  p.wave_unique_bytes_hint =
      (rows_dist * tuning.ml + cols_dist * tuning.nl) * static_cast<double>(k_eff) * dsize *
      slices;
  p.slice_working_set_bytes = (rows_dist * tuning.ml + cols_dist * tuning.nl) *
                              tuning.u * tuning.kl * dsize * slices;

  // Writes: one C pass for KG==1; KG atomic passes (read-modify-write) plus
  // the zero-init pass otherwise.
  const double c_bytes = static_cast<double>(m) * n * dsize;
  p.dram_write_bytes = tuning.kg == 1 ? c_bytes : c_bytes * (1.0 + 2.0 * tuning.kg);
  if (padded) {
    // Pad/unpad copies stream A and B in and C out again, in separate passes
    // that cannot overlap the main kernel (read + write each).
    p.extra_stream_bytes = 2.0 * (a_bytes + b_bytes + c_bytes);
    p.extra_launches += 3;
  }

  // ---- boundary handling ----
  const bool has_edges = (shape.m % tuning.ml) || (shape.n % tuning.nl) ||
                         (shape.k % (static_cast<std::int64_t>(tuning.u) * tuning.kl *
                                     tuning.kg));
  if (padded || !has_edges) {
    p.bounds_overhead_factor = 1.0;
  } else if (tuning.bounds == gpusim::BoundsMode::Predicated) {
    p.bounds_overhead_factor = 1.02;  // §8.3: predication is nearly free
  } else {
    p.bounds_overhead_factor = 1.18;  // §8.3: CUDA-C style bounds checks
  }

  return p;
}

}  // namespace isaac::codegen
