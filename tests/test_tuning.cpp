// Tests for the tuning module: search spaces, the categorical generative
// model (Dirichlet prior, acceptance behaviour — the machinery behind
// Table 1), datasets, and the data collector.
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <sstream>

#include "gpusim/device.hpp"
#include "gpusim/simulator.hpp"
#include "tuning/collector.hpp"
#include "tuning/dataset.hpp"
#include "tuning/feature_batch.hpp"
#include "tuning/generative.hpp"
#include "tuning/search_space.hpp"

namespace isaac::tuning {
namespace {

// ----------------------------------------------------------- search space --

/// GEMM's candidate values for `field`, as its parameter table lists them.
std::span<const int> gemm_candidates(int codegen::GemmTuning::*field) {
  return GemmParameters::table[dim_of<GemmParameters>(field)].values;
}
TEST(SearchSpace, GemmSizeIsDomainProduct) {
  const GemmSearchSpace space;
  std::size_t expect = 1;
  for (const auto& d : space.domains()) expect *= d.values.size();
  EXPECT_EQ(space.size(), expect);
  EXPECT_EQ(space.num_parameters(), 9u);
}

TEST(SearchSpace, Cap16RestrictsDomains) {
  const GemmSearchSpace space(/*cap16=*/true);
  for (const auto& d : space.domains()) {
    for (int v : d.values) {
      EXPECT_GE(v, 1);
      EXPECT_LE(v, 16);
    }
  }
  EXPECT_LT(space.size(), GemmSearchSpace(false).size());
}

TEST(SearchSpace, DecodeRoundTrip) {
  const GemmSearchSpace space;
  std::vector<std::size_t> choice(space.num_parameters(), 0);
  const auto t = space.decode(choice);
  EXPECT_EQ(t.ms, gemm_candidates(&codegen::GemmTuning::ms).front());
  EXPECT_EQ(t.kg, gemm_candidates(&codegen::GemmTuning::kg).front());
  EXPECT_THROW(space.decode({0, 1}), std::invalid_argument);
}

TEST(SearchSpace, UniformSamplesWithinDomains) {
  const GemmSearchSpace space;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    std::vector<std::size_t> choice;
    const auto t = space.sample_uniform(rng, &choice);
    ASSERT_EQ(choice.size(), space.num_parameters());
    for (std::size_t d = 0; d < choice.size(); ++d) {
      EXPECT_LT(choice[d], space.domains()[d].values.size());
    }
    EXPECT_GT(t.ms, 0);
  }
}

TEST(SearchSpace, ForEachVisitsEveryPointOnce) {
  // Cap to 16 keeps the space enumerable in-test.
  const ConvSearchSpace capped(true);
  // Count a small prefix space instead: restrict by early stop.
  std::size_t count = 0;
  const std::size_t limit = 100000;
  capped.for_each([&](const codegen::ConvTuning&) { return ++count < limit; });
  EXPECT_EQ(count, std::min(capped.size(), limit));
}

TEST(SearchSpace, BatchedGemmPinsGlobalSplit) {
  const BatchedGemmSearchSpace space;
  ASSERT_EQ(space.num_parameters(), GemmSearchSpace().num_parameters());
  for (const auto& d : space.domains()) {
    if (d.name == "kg") {
      EXPECT_EQ(d.values, std::vector<int>{1});
    }
  }
  EXPECT_EQ(space.size() * gemm_candidates(&codegen::GemmTuning::kg).size(),
            GemmSearchSpace().size());
}

TEST(SearchSpace, GemmForEachMatchesSize) {
  GemmSearchSpace space(true);
  std::size_t count = 0;
  space.for_each([&](const codegen::GemmTuning&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, space.size());
}

// A space with a domain emptied has an empty X̂: no point to visit, and the
// prefix builders return no predicates instead of taking the empty
// domain's minimum or maximum.
TEST(SearchSpace, EmptyDomainHasNoPointsAndNoPredicates) {
  struct HollowGemmSpace : GemmSearchSpace {
    HollowGemmSpace() { domains_[2].values.clear(); }
  };
  struct HollowConvSpace : ConvSearchSpace {
    HollowConvSpace() { domains_[4].values.clear(); }
  };
  const gpusim::DeviceDescriptor& dev = gpusim::tesla_p100();
  codegen::GemmShape gemm;
  gemm.m = gemm.n = gemm.k = 512;
  const auto conv = codegen::ConvShape::from_npq(8, 54, 54, 64, 64, 3, 3);
  const auto count_points = [](const auto& space, const auto& shape,
                               const gpusim::DeviceDescriptor& device) {
    std::size_t n = 0;
    const auto visit = [&](const auto&) {
      ++n;
      return true;
    };
    space.for_each(visit);
    space.for_each_legal(shape, device, visit);
    return n;
  };
  const HollowGemmSpace hollow_gemm;
  const HollowConvSpace hollow_conv;
  EXPECT_EQ(hollow_gemm.size(), 0u);
  EXPECT_EQ(hollow_conv.size(), 0u);
  EXPECT_TRUE(hollow_gemm.prefix_constraints(gemm, dev).empty());
  EXPECT_TRUE(hollow_conv.prefix_constraints(conv, dev).empty());
  EXPECT_EQ(count_points(hollow_gemm, gemm, dev), 0u);
  EXPECT_EQ(count_points(hollow_conv, conv, dev), 0u);
}

// -------------------------------------------------------- generative model --
TEST(Generative, PriorMakesDistributionUniform) {
  const GemmSearchSpace space;
  CategoricalModel model(space.domains(), 100.0);
  // Without fitting, every value of a parameter is equally likely.
  const auto& d0 = space.domains()[0];
  for (std::size_t v = 0; v < d0.values.size(); ++v) {
    EXPECT_NEAR(model.probability(0, v), 1.0 / static_cast<double>(d0.values.size()), 1e-12);
  }
}

TEST(Generative, ProbabilitiesSumToOne) {
  const GemmSearchSpace space;
  CategoricalModel model(space.domains(), 100.0);
  Rng rng(1);
  model.fit([](const std::vector<std::size_t>& c) { return c[0] % 2 == 0; }, 2000, rng);
  for (std::size_t p = 0; p < space.num_parameters(); ++p) {
    double total = 0.0;
    for (std::size_t v = 0; v < space.domains()[p].values.size(); ++v) {
      total += model.probability(p, v);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Generative, FitShiftsMassTowardAcceptedValues) {
  const GemmSearchSpace space;
  CategoricalModel model(space.domains(), 10.0);  // weak prior to see the shift
  Rng rng(2);
  // Accept only when parameter 0 takes its first value.
  model.fit([](const std::vector<std::size_t>& c) { return c[0] == 0; }, 5000, rng);
  EXPECT_GT(model.probability(0, 0), model.probability(0, 1) * 2.0);
}

TEST(Generative, DirichletPriorKeepsAllValuesReachable) {
  const GemmSearchSpace space;
  CategoricalModel model(space.domains(), 100.0);
  Rng rng(3);
  model.fit([](const std::vector<std::size_t>& c) { return c[0] == 0; }, 5000, rng);
  // Even the "never accepted" values keep non-zero probability (paper: "we
  // never really want any such probability to be exactly zero").
  for (std::size_t v = 0; v < space.domains()[0].values.size(); ++v) {
    EXPECT_GT(model.probability(0, v), 0.0);
  }
}

TEST(Generative, ModelBeatsUniformOnRealLegality) {
  // The headline property behind Table 1: after fitting, categorical
  // sampling accepts at a much higher rate than uniform sampling.
  const auto& dev = gpusim::gtx980ti();
  codegen::GemmShape shape;
  shape.m = shape.n = 1024;
  shape.k = 4096;

  const GemmSearchSpace space;
  const auto legal = [&](const std::vector<std::size_t>& c) {
    return codegen::validate(shape, space.decode(c), dev);
  };

  CategoricalModel model(space.domains(), 100.0);
  Rng rng(11);
  // The probing run must be long enough to overcome the α = 100 prior.
  const auto uniform_stats = model.fit(legal, 30000, rng);

  AcceptanceStats cat_stats;
  std::vector<std::size_t> out;
  for (int i = 0; i < 3000; ++i) {
    model.sample_legal(legal, rng, out, cat_stats, 1);
  }
  EXPECT_GT(cat_stats.rate(), uniform_stats.rate() * 3.0)
      << "categorical " << cat_stats.rate() << " vs uniform " << uniform_stats.rate();
}

TEST(Generative, SampleLegalRespectsAttemptCap) {
  const GemmSearchSpace space;
  CategoricalModel model(space.domains(), 100.0);
  Rng rng(4);
  std::vector<std::size_t> out;
  AcceptanceStats stats;
  const bool ok = model.sample_legal([](const std::vector<std::size_t>&) { return false; }, rng,
                                     out, stats, 50);
  EXPECT_FALSE(ok);
  EXPECT_EQ(stats.attempted, 50u);
  EXPECT_EQ(stats.accepted, 0u);
}

TEST(Generative, InvalidConstructionThrows) {
  const GemmSearchSpace space;
  EXPECT_THROW(CategoricalModel(space.domains(), 0.0), std::invalid_argument);
  EXPECT_THROW(CategoricalModel({ParameterDomain{"empty", {}}}, 1.0), std::invalid_argument);
}

// ------------------------------------------------------------------ dataset --
TEST(Dataset, FeatureEncodingArityAndPositivity) {
  codegen::GemmShape s;
  s.m = 2560;
  s.n = 16;
  s.k = 2560;
  s.trans_a = true;
  const auto f = features(s, codegen::GemmTuning{});
  EXPECT_EQ(f.size(), kNumFeatures);
  for (double v : f) EXPECT_GE(v, 1.0);  // log-safe by construction
  EXPECT_DOUBLE_EQ(f[0], 2560.0);
  EXPECT_DOUBLE_EQ(f[4], 2.0);  // trans_a encoded as 2
  EXPECT_DOUBLE_EQ(f[5], 1.0);
}

TEST(Dataset, FeaturesIntoMatchesAllocatingFeatures) {
  codegen::GemmShape s;
  s.m = 896;
  s.n = 128;
  s.k = 1024;
  s.trans_b = true;
  codegen::GemmTuning t;
  t.ms = 8;
  t.kg = 4;
  const auto legacy = features(s, t);
  double flat[kNumFeatures];
  features_into(s, t, flat);
  for (std::size_t i = 0; i < kNumFeatures; ++i) EXPECT_DOUBLE_EQ(flat[i], legacy[i]) << i;

  const auto cs = codegen::ConvShape::from_npq(8, 14, 14, 128, 64, 3, 3);
  const auto clegacy = features(cs, codegen::ConvTuning{});
  features_into(cs, codegen::ConvTuning{}, flat);
  for (std::size_t i = 0; i < kNumFeatures; ++i) EXPECT_DOUBLE_EQ(flat[i], clegacy[i]) << i;
}

TEST(FeatureBatch, AppendResetAndCapacityReuse) {
  FeatureBatch batch(3);
  EXPECT_TRUE(batch.empty());
  double* r0 = batch.append_row();
  r0[0] = 1.0;
  r0[1] = 2.0;
  r0[2] = 3.0;
  double* r1 = batch.append_row();
  r1[2] = 9.0;
  EXPECT_EQ(batch.rows(), 2u);
  EXPECT_EQ(batch.arity(), 3u);
  EXPECT_DOUBLE_EQ(batch.row(0)[1], 2.0);
  EXPECT_DOUBLE_EQ(batch.row(1)[2], 9.0);
  EXPECT_DOUBLE_EQ(batch.row(1)[0], 0.0);  // appended rows start zeroed

  const double* storage = batch.data();
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.arity(), 3u);
  batch.resize(2);
  EXPECT_EQ(batch.data(), storage);  // shrink/regrow reuses capacity
  EXPECT_EQ(batch.rows(), 2u);

  batch.reset(5, 4);
  EXPECT_EQ(batch.arity(), 5u);
  EXPECT_EQ(batch.rows(), 4u);
  EXPECT_THROW(batch.reset(0), std::invalid_argument);
}

TEST(Dataset, ConvFeaturesUseImplicitGemm) {
  const auto s = codegen::ConvShape::from_npq(16, 7, 7, 512, 512, 3, 3);
  const auto f = features(s, codegen::ConvTuning{});
  EXPECT_DOUBLE_EQ(f[0], static_cast<double>(s.npq()));
  EXPECT_DOUBLE_EQ(f[1], 512.0);
  EXPECT_DOUBLE_EQ(f[2], static_cast<double>(s.crs()));
}

TEST(Dataset, BatchedGemmFeaturesFlattenBatchIntoN) {
  codegen::BatchedGemmShape s;
  s.batch = 32;
  s.gemm.m = 64;
  s.gemm.n = 16;
  s.gemm.k = 256;
  const auto f = features(s, codegen::GemmTuning{});
  EXPECT_EQ(f.size(), kNumFeatures);
  EXPECT_DOUBLE_EQ(f[0], 64.0);
  EXPECT_DOUBLE_EQ(f[1], 32.0 * 16.0);
  EXPECT_DOUBLE_EQ(f[2], 256.0);
}

TEST(Dataset, AddValidatesArity) {
  Dataset d;
  Sample s;
  s.x = {1.0, 2.0};
  EXPECT_THROW(d.add(s), std::invalid_argument);
}

TEST(Dataset, SplitAndTake) {
  Dataset d;
  for (int i = 0; i < 10; ++i) {
    Sample s;
    s.x.assign(kNumFeatures, static_cast<double>(i + 1));
    s.y = i;
    d.add(s);
  }
  const auto [head, tail] = d.split(3);
  EXPECT_EQ(head.size(), 3u);
  EXPECT_EQ(tail.size(), 7u);
  EXPECT_EQ(d.take(4).size(), 4u);
  EXPECT_EQ(d.take(100).size(), 10u);
  EXPECT_THROW(d.split(11), std::invalid_argument);
}

TEST(Dataset, CsvRoundTrip) {
  Dataset d;
  for (int i = 0; i < 5; ++i) {
    Sample s;
    s.x.assign(kNumFeatures, 1.5 * (i + 1));
    s.y = 100.0 + i;
    d.add(s);
  }
  std::stringstream ss;
  d.save_csv(ss);
  const Dataset back = Dataset::load_csv(ss);
  ASSERT_EQ(back.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_DOUBLE_EQ(back[i].y, d[i].y);
    EXPECT_DOUBLE_EQ(back[i].x[3], d[i].x[3]);
  }
}

namespace {

// One valid CSV body (header + single row) to perturb in the hardening tests.
std::string valid_csv_text() {
  Dataset d;
  Sample s;
  s.x.assign(kNumFeatures, 2.0);
  s.y = 123.0;
  d.add(s);
  std::stringstream ss;
  d.save_csv(ss);
  return ss.str();
}

std::string load_csv_error(const std::string& text) {
  std::stringstream ss(text);
  try {
    Dataset::load_csv(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

}  // namespace

TEST(Dataset, LoadCsvRejectsTruncatedRowWithLineNumber) {
  // Drop the last two fields of the data row (line 2).
  std::string text = valid_csv_text();
  std::stringstream in(text);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  row = row.substr(0, row.rfind(',', row.rfind(',') - 1));
  const std::string err = load_csv_error(header + "\n" + row + "\n");
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("expected 16"), std::string::npos) << err;
  EXPECT_NE(err.find("got 14"), std::string::npos) << err;
}

TEST(Dataset, LoadCsvRejectsJunkTokenWithPosition) {
  // std::stod would have parsed "12x4" as 12; from_chars must reject it and
  // say where it sits.
  std::string text = valid_csv_text();
  const std::size_t pos = text.find("2,", text.find('\n'));  // first data field
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 1, "12x4");
  const std::string err = load_csv_error(text);
  EXPECT_NE(err.find("'12x4' is not a number"), std::string::npos) << err;
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(Dataset, LoadCsvRejectsEmptyField) {
  std::string header = valid_csv_text().substr(0, valid_csv_text().find('\n') + 1);
  std::string row;
  for (std::size_t i = 0; i < kNumFeatures; ++i) row += "1,";
  row += "\n";  // empty y field
  const std::string err = load_csv_error(header + row);
  EXPECT_NE(err.find("empty field"), std::string::npos) << err;
  EXPECT_NE(err.find("column 16"), std::string::npos) << err;
}

TEST(Dataset, LoadCsvRejectsNonFiniteValue) {
  std::string text = valid_csv_text();
  const std::size_t pos = text.find("123");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 3, "inf");
  const std::string err = load_csv_error(text);
  EXPECT_NE(err.find("non-finite value 'inf'"), std::string::npos) << err;
}

TEST(Dataset, LoadCsvSkipsBlankLinesAndKeepsLineNumbersHonest) {
  // A blank line between rows is ignored, but the error for a later bad row
  // still reports its real (file) line number.
  const std::string text = valid_csv_text();
  const std::string header = text.substr(0, text.find('\n') + 1);
  const std::string row = text.substr(text.find('\n') + 1);
  const std::string err = load_csv_error(header + "\n" + row + "junk\n");
  EXPECT_NE(err.find("line 4"), std::string::npos) << err;
}

TEST(Dataset, ShuffleIsSeedDeterministic) {
  Dataset d;
  for (int i = 0; i < 50; ++i) {
    Sample s;
    s.x.assign(kNumFeatures, static_cast<double>(i));
    s.y = i;
    d.add(s);
  }
  Dataset d2 = d;
  Rng r1(7), r2(7);
  d.shuffle(r1);
  d2.shuffle(r2);
  for (std::size_t i = 0; i < d.size(); ++i) EXPECT_DOUBLE_EQ(d[i].y, d2[i].y);
}

// ---------------------------------------------------------------- collector --
TEST(Collector, ProducesRequestedSamples) {
  gpusim::Simulator sim(gpusim::gtx980ti(), 0.03, 99);
  CollectorConfig cfg;
  cfg.num_samples = 300;
  cfg.probe_samples = 30000;
  cfg.seed = 42;
  const auto report = collect_gemm(sim, cfg);
  EXPECT_GE(report.dataset.size(), 280u);  // a few rejection timeouts allowed
  EXPECT_GT(report.generation.rate(), report.probe.rate());
  for (const auto& s : report.dataset.samples()) {
    EXPECT_GT(s.y, 0.0);             // positive GFLOPS
    EXPECT_LT(s.y, 25000.0);         // below any sane peak
    for (double v : s.x) EXPECT_GE(v, 1.0);
  }
}

TEST(Collector, DeterministicAcrossRuns) {
  gpusim::Simulator sim(gpusim::gtx980ti(), 0.03, 99);
  CollectorConfig cfg;
  cfg.num_samples = 100;
  cfg.probe_samples = 5000;
  cfg.seed = 7;
  const auto r1 = collect_gemm(sim, cfg);
  const auto r2 = collect_gemm(sim, cfg);
  ASSERT_EQ(r1.dataset.size(), r2.dataset.size());
  for (std::size_t i = 0; i < r1.dataset.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.dataset[i].y, r2.dataset[i].y);
  }
}

TEST(Collector, ConvCollectionWorks) {
  gpusim::Simulator sim(gpusim::tesla_p100(), 0.03, 5);
  CollectorConfig cfg;
  cfg.num_samples = 150;
  cfg.probe_samples = 20000;
  const auto report = collect_conv(sim, cfg);
  EXPECT_GE(report.dataset.size(), 120u);
  for (const auto& s : report.dataset.samples()) EXPECT_GT(s.y, 0.0);
}

TEST(Collector, BatchedGemmCollectionWorks) {
  gpusim::Simulator sim(gpusim::tesla_p100(), 0.03, 5);
  CollectorConfig cfg;
  cfg.num_samples = 150;
  cfg.probe_samples = 20000;
  const auto report = collect_batched_gemm(sim, cfg);
  EXPECT_GE(report.dataset.size(), 120u);
  for (const auto& s : report.dataset.samples()) EXPECT_GT(s.y, 0.0);
}

TEST(Collector, ShapeDistributionInBounds) {
  CollectorConfig cfg;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const auto s = random_gemm_shape(cfg, rng);
    EXPECT_GE(s.m, cfg.min_mn);
    EXPECT_LE(s.m, cfg.max_mn);
    EXPECT_GE(s.k, cfg.min_k);
    EXPECT_LE(s.k, cfg.max_k);
  }
}

}  // namespace
}  // namespace isaac::tuning
