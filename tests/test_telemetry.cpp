// Tests for the runtime telemetry layer: metric correctness under
// contention, histogram percentiles against stats::percentile, the
// disabled-path contract (histograms record nothing, counters always
// count), per-shard cache accounting, the cold two-tier dispatch span tree,
// and snapshot JSON serialization.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/isaac.hpp"
#include "core/profile_cache.hpp"
#include "gpusim/device.hpp"
#include "mlp/regressor.hpp"
#include "support/counter_delta.hpp"
#include "telemetry/telemetry.hpp"
#include "tuning/collector.hpp"

namespace isaac {
namespace {

/// Telemetry is process-global; each test starts from a clean enabled state
/// and leaves the layer off so unrelated suites keep the zero-overhead path.
struct TelemetryGuard {
  TelemetryGuard() {
    telemetry::set_enabled(true);
    telemetry::set_tracing(true);
    telemetry::reset_for_testing();
  }
  ~TelemetryGuard() {
    telemetry::set_enabled(false);
    telemetry::set_tracing(false);
    telemetry::reset_for_testing();
  }
};

/// One small trained model shared by the dispatch tests (same budget as
/// test_core's shared_model: training is the expensive part).
const mlp::Regressor& shared_model() {
  static const mlp::Regressor model = [] {
    gpusim::Simulator sim(gpusim::tesla_p100(), 0.03, 123);
    tuning::CollectorConfig cfg;
    cfg.num_samples = 2500;
    cfg.seed = 31337;
    const auto report = tuning::collect_gemm(sim, cfg);
    mlp::TrainConfig tc;
    tc.net.hidden = {48, 48};
    tc.epochs = 10;
    return mlp::train(report.dataset, tc);
  }();
  return model;
}

// ------------------------------------------------------------------ metrics --

TEST(TelemetryMetrics, CounterLosesNoIncrementsUnderContention) {
  TelemetryGuard guard;
  telemetry::Counter& c = telemetry::counter("test.hammer");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 200000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(TelemetryMetrics, DisabledRecordsNothing) {
  TelemetryGuard guard;
  telemetry::set_enabled(false);
  telemetry::gauge("test.off_gauge").set(42);
  telemetry::histogram("test.off_hist").record(123.0);
  telemetry::set_enabled(true);
  const auto snap = telemetry::snapshot();
  const auto* h = snap.find_histogram("test.off_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 0u);
}

TEST(TelemetryMetrics, CountersCountWhileDisabled) {
  // Each runtime event is counted once, in its telemetry counter, and that
  // count is live whether or not telemetry is enabled: the dispatch path's
  // tier-1 prediction and refinement upgrade move their counters by exactly
  // one on a cold select, while histograms stay off.
  const mlp::Regressor& m = shared_model();
  TelemetryGuard guard;
  telemetry::set_enabled(false);
  telemetry::set_tracing(false);

  const test::CounterDelta macro("test.off_macro");
  ISAAC_TM_COUNT("test.off_macro");
  EXPECT_EQ(macro.value(), 1u);

  core::ContextOptions opts;
  opts.noise_sigma = 0.0;
  opts.search.budget = 10;
  opts.search.reeval_reps = 1;
  opts.search.max_candidates = 4000;
  const test::CounterDelta predictions("dispatch.leader_predict");
  const test::CounterDelta refinements("refine.upgraded");
  core::Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(m);
  codegen::GemmShape shape;
  shape.m = 160;
  shape.n = 40;
  shape.k = 224;
  ctx.select<core::GemmOp>(shape);
  ctx.drain_background();
  EXPECT_EQ(predictions.value(), 1u);
  EXPECT_EQ(refinements.value(), 1u);
  EXPECT_EQ(telemetry::histogram("dispatch.select_us").count(), 0u);
}

TEST(TelemetryMetrics, ResetKeepsInstrumentAddressesStable) {
  TelemetryGuard guard;
  telemetry::Counter& before = telemetry::counter("test.stable");
  before.add(7);
  EXPECT_EQ(before.value(), 7u);
  telemetry::reset_for_testing();
  telemetry::Counter& after = telemetry::counter("test.stable");
  EXPECT_EQ(&before, &after);
  EXPECT_EQ(after.value(), 0u);
  after.add(1);
  EXPECT_EQ(before.value(), 1u);
}

TEST(TelemetryMetrics, HistogramPercentilesTrackStatsPercentile) {
  TelemetryGuard guard;
  telemetry::Histogram& h = telemetry::histogram("test.latency_us");
  Rng rng(0xFEED);
  std::vector<double> raw;
  raw.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    // Heavy-tailed like a latency distribution: exp of a uniform exponent.
    const double v = std::floor(std::exp(rng.uniform(0.0, 11.0))) + 1.0;
    raw.push_back(v);
    h.record(v);
  }
  EXPECT_EQ(h.count(), raw.size());
  // Log-linear buckets with 8 sub-buckets per octave bound the per-sample
  // value error at 1/16; rank selection is exact, so the extracted
  // percentiles must track stats::percentile within that relative error.
  for (const double q : {0.50, 0.90, 0.99, 0.999}) {
    const double expected = stats::percentile(raw, q);
    const double got = h.percentile(q);
    EXPECT_NEAR(got, expected, expected / 16.0 + 1.0)
        << "q=" << q << " expected=" << expected << " got=" << got;
  }
  EXPECT_EQ(h.min(), 2u);  // exp(0)=1 floored + 1
  EXPECT_GE(h.max(), static_cast<std::uint64_t>(stats::max(raw) * 0.9));
}

TEST(TelemetryMetrics, GaugeLastWriterWins) {
  TelemetryGuard guard;
  telemetry::Gauge& g = telemetry::gauge("test.depth");
  g.set(3);
  g.add(2);
  EXPECT_EQ(g.value(), 5);
  g.set(-1);
  EXPECT_EQ(g.value(), -1);
}

// -------------------------------------------------------------------- cache --

TEST(TelemetryCache, CountsHitsMissesStoresUpgrades) {
  TelemetryGuard guard;
  core::ProfileCache cache;  // in-memory
  codegen::GemmShape shape;
  shape.m = shape.n = shape.k = 96;
  const std::string dev = "test-device";
  const codegen::GemmTuning tuning{};

  EXPECT_FALSE(cache.lookup<core::GemmOp>(dev, shape).has_value());  // miss
  cache.store<core::GemmOp>(
      dev, shape, tuning,
      core::ProfileCache::provenance("predict", 0, core::EntryTier::provisional));
  EXPECT_TRUE(cache.lookup<core::GemmOp>(dev, shape).has_value());  // provisional hit
  EXPECT_TRUE(cache.upgrade<core::GemmOp>(
      dev, shape, tuning,
      core::ProfileCache::provenance("exhaustive", 10, core::EntryTier::refined)));
  EXPECT_FALSE(cache.upgrade<core::GemmOp>(
      dev, shape, tuning,
      core::ProfileCache::provenance("exhaustive", 10, core::EntryTier::refined)));
  EXPECT_TRUE(cache.lookup<core::GemmOp>(dev, shape).has_value());  // refined hit

  const auto snap = telemetry::snapshot(false);
  EXPECT_EQ(snap.counter_value("cache.miss"), 1u);
  EXPECT_EQ(snap.counter_value("cache.hit"), 2u);
  EXPECT_EQ(snap.counter_value("cache.hit_provisional"), 1u);
  EXPECT_EQ(snap.counter_value("cache.store"), 1u);
  EXPECT_EQ(snap.counter_value("cache.upgrade"), 1u);
  EXPECT_EQ(snap.counter_value("cache.upgrade_reject"), 1u);
}

TEST(TelemetryCache, CountersCoherentUnderThreads) {
  TelemetryGuard guard;
  core::ProfileCache cache;
  const std::string dev = "test-device";
  constexpr std::size_t kThreads = 8;
  constexpr std::int64_t kShapes = 64;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &dev] {
      for (std::int64_t i = 0; i < kShapes; ++i) {
        codegen::GemmShape s;
        s.m = s.n = s.k = 16 + i;
        (void)cache.lookup<core::GemmOp>(dev, s);
        cache.store<core::GemmOp>(dev, s, codegen::GemmTuning{});
        (void)cache.lookup<core::GemmOp>(dev, s);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = telemetry::snapshot(false);
  const std::uint64_t hits = snap.counter_value("cache.hit");
  // Every first+second lookup and every store is accounted exactly once.
  EXPECT_EQ(hits + snap.counter_value("cache.miss"), 2 * kThreads * kShapes);
  EXPECT_EQ(snap.counter_value("cache.store"), kThreads * kShapes);
  // The second lookup of each iteration follows that thread's own store, so
  // at least one hit per (thread, shape) pair is guaranteed.
  EXPECT_GE(hits, kThreads * kShapes);
}

// -------------------------------------------------------------------- spans --

TEST(TelemetryTrace, ColdTwoTierDispatchLinksSelectPredictRefine) {
  const mlp::Regressor& m = shared_model();  // train before clearing the ring
  TelemetryGuard guard;

  core::ContextOptions opts;
  opts.noise_sigma = 0.0;
  opts.search.budget = 10;
  opts.search.reeval_reps = 1;
  opts.search.max_candidates = 4000;
  core::Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(m);

  codegen::GemmShape shape;
  shape.m = 192;
  shape.n = 48;
  shape.k = 256;
  ctx.select<core::GemmOp>(shape);
  ctx.drain_background();

  const auto snap = telemetry::snapshot();

  // Counters: a cold dispatch is one miss, one tier-1 prediction, one
  // enqueued refinement that lands as an upgrade.
  EXPECT_GE(snap.counter_value("dispatch.select"), 1u);
  EXPECT_GE(snap.counter_value("cache.miss"), 1u);
  EXPECT_GE(snap.counter_value("dispatch.leader_predict"), 1u);
  EXPECT_GE(snap.counter_value("refine.enqueued"), 1u);
  EXPECT_GE(snap.counter_value("refine.upgraded"), 1u);
  EXPECT_GE(snap.counter_value("cache.upgrade"), 1u);
  const auto* select_us = snap.find_histogram("dispatch.select_us");
  ASSERT_NE(select_us, nullptr);
  EXPECT_GE(select_us->count, 1u);

  // Span tree: refine.run (background thread) links through select.predict
  // to the dispatch.select root — the cold dispatch reconstructs end to end
  // from one snapshot.
  std::map<std::uint64_t, const telemetry::SpanRecord*> by_id;
  for (const auto& s : snap.spans) by_id[s.id] = &s;

  const auto root_of = [&](const telemetry::SpanRecord& s) {
    const telemetry::SpanRecord* cur = &s;
    std::vector<std::string> path{cur->name};
    while (cur->parent != 0) {
      const auto it = by_id.find(cur->parent);
      if (it == by_id.end()) break;
      cur = it->second;
      path.push_back(cur->name);
    }
    return path;  // leaf-to-root names
  };

  bool found_refine_chain = false;
  bool found_queue_chain = false;
  for (const auto& s : snap.spans) {
    const std::string name = s.name;
    if (name != "refine.run" && name != "refine.queue") continue;
    const auto path = root_of(s);
    const bool reaches_select = !path.empty() && path.back() == "dispatch.select";
    if (name == "refine.run" && reaches_select) found_refine_chain = true;
    if (name == "refine.queue" && reaches_select) found_queue_chain = true;
    if (name == "refine.run") {
      EXPECT_NE(s.parent, 0u) << "background refinement span must not be a root";
    }
  }
  EXPECT_TRUE(found_refine_chain)
      << "no refine.run span linked back to a dispatch.select root";
  EXPECT_TRUE(found_queue_chain)
      << "no refine.queue span linked back to a dispatch.select root";

  // The select root also directly parents the tier-1 prediction span.
  bool predict_under_select = false;
  for (const auto& s : snap.spans) {
    if (std::string(s.name) != "select.predict") continue;
    const auto it = by_id.find(s.parent);
    if (it != by_id.end() && std::string(it->second->name) == "dispatch.select") {
      predict_under_select = true;
    }
  }
  EXPECT_TRUE(predict_under_select);

  // A second select of the same shape is a pure cache hit: no new leader.
  const std::uint64_t leaders = snap.counter_value("dispatch.leader_predict");
  ctx.select<core::GemmOp>(shape);
  const auto snap2 = telemetry::snapshot(false);
  EXPECT_GE(snap2.counter_value("dispatch.hit"), 1u);
  EXPECT_EQ(snap2.counter_value("dispatch.leader_predict"), leaders);
}

// ----------------------------------------------------------------- snapshot --

/// Minimal recursive-descent JSON syntax checker — enough to prove the
/// serializer emits well-formed JSON (the CI gate re-parses dumps with a real
/// parser; this keeps the contract enforced in-tree).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool valid() {
    skip();
    if (!value()) return false;
    skip();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip();
    if (peek('}')) return true;
    while (true) {
      skip();
      if (!string()) return false;
      skip();
      if (!expect(':')) return false;
      skip();
      if (!value()) return false;
      skip();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip();
    if (peek(']')) return true;
    while (true) {
      skip();
      if (!value()) return false;
      skip();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    return expect('"');
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }
  void skip() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool expect(char c) { return peek(c); }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(TelemetrySnapshot, JsonSerializationRoundTrip) {
  TelemetryGuard guard;
  telemetry::counter("test.json_counter").add(42);
  telemetry::gauge("test.json_gauge").set(-7);
  telemetry::Histogram& h = telemetry::histogram("test.json_hist_us");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  { telemetry::Span span("test.json_span"); }

  const auto snap = telemetry::snapshot();
  EXPECT_EQ(snap.counter_value("test.json_counter"), 42u);
  const auto* hs = snap.find_histogram("test.json_hist_us");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 100u);
  EXPECT_EQ(hs->min, 1u);
  ASSERT_FALSE(snap.spans.empty());

  const std::string json = telemetry::to_json(snap);
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;

  // The serializer is deterministic (name-sorted sections, fixed field
  // order), so the snapshot's content round-trips as exact substrings.
  EXPECT_NE(json.find("\"telemetry\""), std::string::npos);
  EXPECT_NE(json.find("\"uptime_us\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\":42"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\":-7"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_hist_us\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":100"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_span\""), std::string::npos);
  EXPECT_NE(json.find("\"spans_dropped\":0"), std::string::npos);

  // Serializing a second snapshot of unchanged state yields identical bytes
  // except the uptime stamp — cheap proof the serializer has no hidden
  // nondeterminism (map iteration order, pointer formatting, ...).
  auto strip_uptime = [](std::string s) {
    const auto a = s.find("\"uptime_us\":");
    const auto b = s.find(',', a);
    return s.erase(a, b - a);
  };
  const std::string json2 = telemetry::to_json(telemetry::snapshot());
  EXPECT_EQ(strip_uptime(json), strip_uptime(json2));
}

TEST(TelemetryTrace, RingBoundsMemoryAndCountsDrops) {
  TelemetryGuard guard;
  telemetry::set_trace_capacity(64);
  for (int i = 0; i < 200; ++i) {
    telemetry::Span span("test.flood");
  }
  std::uint64_t dropped = 0;
  const auto spans = telemetry::trace_spans(&dropped);
  EXPECT_LE(spans.size(), 64u);
  EXPECT_EQ(spans.size() + dropped, 200u);
  telemetry::set_trace_capacity(1 << 15);  // restore the default for later tests
}

}  // namespace
}  // namespace isaac
