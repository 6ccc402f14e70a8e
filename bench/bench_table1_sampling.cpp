// Table 1: proportion of samples accepted by the categorical generative model
// vs naive uniform sampling, "when each parameter is constrained to be a
// power of two between 1 and 16".
//
//                paper:  Categorical   Uniform
//        GEMM            20%           0.1%
//        CONV            15%           0.1%
//
// The reproduction reports the same two columns for both generators (legality
// judged by codegen::validate against random shapes on the P100 model).
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "gpusim/device.hpp"
#include "tuning/collector.hpp"
#include "tuning/generative.hpp"
#include "tuning/search_space.hpp"

namespace {

using namespace isaac;

struct Rates {
  double categorical = 0.0;
  double uniform = 0.0;
};

template <typename Space, typename LegalFn>
Rates measure(const Space& space, const LegalFn& legal, std::size_t probe, std::size_t draws,
              Rng& rng) {
  tuning::CategoricalModel model(space.domains(), /*alpha=*/100.0);
  const auto uniform_stats = model.fit(legal, probe, rng);

  tuning::AcceptanceStats cat_stats;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < draws; ++i) {
    model.sample_legal(legal, rng, out, cat_stats, 1);
  }
  return {cat_stats.rate(), uniform_stats.rate()};
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_table1_sampling",
                "Table 1: generative-model vs uniform sampling acceptance");
  cli.add_flag("full", "use a 200k-probe fit instead of 60k", false);
  cli.add_int("seed", "rng seed", 0x7AB1);
  if (!cli.parse(argc, argv)) return 0;
  const bool full = cli.get_flag("full");
  // Probing runs the validator only (~1 us per probe), so a deep fit is
  // cheap; the α = 100 prior needs many acceptances to sharpen.
  const std::size_t probe = full ? 1000000 : 250000;
  const std::size_t draws = full ? 50000 : 20000;

  const auto& dev = gpusim::tesla_p100();
  bench::banner("Table 1 — Proportion of samples accepted: categorical vs uniform", dev);
  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));

  // Shapes drawn from the collector's distribution; the legality predicate
  // couples the sampled tuning with a fresh random shape each probe, exactly
  // like the data-generation phase.
  tuning::CollectorConfig shape_cfg;

  const tuning::GemmSearchSpace gemm_space(/*cap16=*/true);
  Rng gemm_shape_rng = rng.fork(1);
  const auto gemm_rates = measure(
      gemm_space,
      [&](const std::vector<std::size_t>& c) {
        const auto shape = tuning::random_gemm_shape(shape_cfg, gemm_shape_rng);
        return codegen::validate(shape, gemm_space.decode(c), dev);
      },
      probe, draws, rng);

  const tuning::ConvSearchSpace conv_space(/*cap16=*/true);
  Rng conv_shape_rng = rng.fork(2);
  const auto conv_rates = measure(
      conv_space,
      [&](const std::vector<std::size_t>& c) {
        const auto shape = tuning::random_conv_shape(shape_cfg, conv_shape_rng);
        return codegen::validate(shape, conv_space.decode(c), dev);
      },
      probe, draws, rng);

  Table table({"", "Categorical (measured)", "Uniform (measured)", "Categorical (paper)",
               "Uniform (paper)"});
  auto pct = [](double r) { return Table::fmt_double(100.0 * r, 2) + "%"; };
  table.add_row({"GEMM", pct(gemm_rates.categorical), pct(gemm_rates.uniform), "20%", "0.1%"});
  table.add_row({"CONV", pct(conv_rates.categorical), pct(conv_rates.uniform), "15%", "0.1%"});
  table.print(std::cout);

  std::printf("\nShape to match: categorical acceptance exceeds uniform by a large factor,\n"
              "making 50k-kernel training sets collectable in hours. (The paper reports two\n"
              "orders of magnitude; the factorized model's gain depends on how much of the\n"
              "legality is explained by per-parameter marginals.)\n");
  const bool ok = gemm_rates.categorical > 5.0 * gemm_rates.uniform &&
                  conv_rates.categorical > 3.0 * conv_rates.uniform;
  std::printf("ratio GEMM: %.1fx   CONV: %.1fx   [%s]\n",
              gemm_rates.categorical / std::max(gemm_rates.uniform, 1e-9),
              conv_rates.categorical / std::max(conv_rates.uniform, 1e-9),
              ok ? "shape holds" : "shape NOT matched");
  return 0;
}
