// Failpoint registry semantics: spec grammar, trigger modes, deterministic
// probabilistic sequences, exactly-N behavior under concurrency, and the
// executors' once-per-call evaluation of `execute.throw`. Every test disarms
// what it armed.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "codegen/batched_gemm_executor.hpp"
#include "common/failpoint.hpp"

namespace fp = isaac::failpoint;

namespace {

/// Evaluate `name` n times and return the fire decisions in hit order.
std::vector<bool> sequence(const std::string& name, int n) {
  std::vector<bool> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(fp::site(name).should_fire());
  return out;
}

}  // namespace

TEST(FailpointSpec, ParsesEveryMode) {
  EXPECT_EQ(fp::Spec::parse("off").mode, fp::Spec::Mode::off);

  const auto once = fp::Spec::parse("once");
  EXPECT_EQ(once.mode, fp::Spec::Mode::once);
  EXPECT_EQ(once.count, 1u);

  const auto count = fp::Spec::parse("count:7");
  EXPECT_EQ(count.mode, fp::Spec::Mode::count);
  EXPECT_EQ(count.count, 7u);

  const auto prob = fp::Spec::parse("prob:0.25");
  EXPECT_EQ(prob.mode, fp::Spec::Mode::prob);
  EXPECT_DOUBLE_EQ(prob.probability, 0.25);
  EXPECT_EQ(prob.seed, 0u);

  const auto seeded = fp::Spec::parse(" prob:1:42 ");  // whitespace tolerated
  EXPECT_EQ(seeded.mode, fp::Spec::Mode::prob);
  EXPECT_DOUBLE_EQ(seeded.probability, 1.0);
  EXPECT_EQ(seeded.seed, 42u);
}

TEST(FailpointSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(fp::Spec::parse(""), std::invalid_argument);
  EXPECT_THROW(fp::Spec::parse("bogus"), std::invalid_argument);
  EXPECT_THROW(fp::Spec::parse("off:1"), std::invalid_argument);
  EXPECT_THROW(fp::Spec::parse("once:1"), std::invalid_argument);
  EXPECT_THROW(fp::Spec::parse("count"), std::invalid_argument);
  EXPECT_THROW(fp::Spec::parse("count:"), std::invalid_argument);
  EXPECT_THROW(fp::Spec::parse("count:x"), std::invalid_argument);
  EXPECT_THROW(fp::Spec::parse("count:-1"), std::invalid_argument);
  EXPECT_THROW(fp::Spec::parse("prob"), std::invalid_argument);
  EXPECT_THROW(fp::Spec::parse("prob:nope"), std::invalid_argument);
  EXPECT_THROW(fp::Spec::parse("prob:1.5"), std::invalid_argument);
  EXPECT_THROW(fp::Spec::parse("prob:-0.1"), std::invalid_argument);
  EXPECT_THROW(fp::Spec::parse("prob:0.5:seed"), std::invalid_argument);
  // The string arm overload goes through the same parser.
  EXPECT_THROW(fp::arm("test.badspec", "nope:1"), std::invalid_argument);
}

TEST(Failpoint, DisarmedSitesNeverFire) {
  const std::string name = "test.disarmed";
  for (const bool fired : sequence(name, 100)) EXPECT_FALSE(fired);
  EXPECT_EQ(fp::fires(name), 0u);
  // Disarmed evaluations do not consume hit indices: the armed sequence
  // below starts at index 0 regardless of the probes above.
  fp::arm(name, "once");
  EXPECT_TRUE(fp::site(name).should_fire());
  fp::disarm(name);
}

TEST(Failpoint, OnceFiresExactlyOnce) {
  const std::string name = "test.once";
  fp::arm(name, "once");
  const auto seq = sequence(name, 50);
  EXPECT_TRUE(seq.front());
  for (std::size_t i = 1; i < seq.size(); ++i) EXPECT_FALSE(seq[i]);
  EXPECT_EQ(fp::fires(name), 1u);
  fp::disarm(name);
}

TEST(Failpoint, CountFiresFirstNThenStops) {
  const std::string name = "test.count";
  fp::arm(name, "count:5");
  int fired = 0;
  for (const bool f : sequence(name, 40)) fired += f ? 1 : 0;
  EXPECT_EQ(fired, 5);
  // Re-arming restarts the sequence from hit index 0.
  fp::arm(name, "count:2");
  const auto seq = sequence(name, 10);
  EXPECT_TRUE(seq[0]);
  EXPECT_TRUE(seq[1]);
  for (std::size_t i = 2; i < seq.size(); ++i) EXPECT_FALSE(seq[i]);
  fp::disarm(name);
}

TEST(Failpoint, ProbabilisticSequenceIsDeterministic) {
  // Same spec + seed ⇒ the identical fire sequence across two arm cycles:
  // the per-hit decision is a pure function of (seed, hit index), not a
  // shared RNG stream.
  const std::string name = "test.prob.deterministic";
  fp::arm(name, "prob:0.3:1234");
  const auto first = sequence(name, 400);
  fp::arm(name, "prob:0.3:1234");
  const auto second = sequence(name, 400);
  EXPECT_EQ(first, second);

  // The sequence is non-trivial (some fires, some non-fires) and roughly
  // tracks p — loose bounds, this is a hash not a coin, but 400 draws at
  // p=0.3 landing outside [60, 180] would mean the decision hash is broken.
  int fired = 0;
  for (const bool f : first) fired += f ? 1 : 0;
  EXPECT_GT(fired, 60);
  EXPECT_LT(fired, 180);

  // A different seed draws a different sequence.
  fp::arm(name, "prob:0.3:99");
  EXPECT_NE(sequence(name, 400), first);
  fp::disarm(name);
}

TEST(Failpoint, ProbabilityEndpointsAreExact) {
  const std::string name = "test.prob.endpoints";
  fp::arm(name, "prob:1");
  for (const bool f : sequence(name, 50)) EXPECT_TRUE(f);
  fp::arm(name, "prob:0");
  for (const bool f : sequence(name, 50)) EXPECT_FALSE(f);
  fp::disarm(name);
}

TEST(Failpoint, ThrowMacroThrowsFailpointErrorWithSiteName) {
  fp::arm("test.macro.throw", "once");
  try {
    ISAAC_FAILPOINT("test.macro.throw");
    FAIL() << "armed failpoint did not throw";
  } catch (const fp::FailpointError& e) {
    EXPECT_EQ(e.name(), "test.macro.throw");
  }
  // Spent its one shot: the next pass is clean.
  EXPECT_NO_THROW(ISAAC_FAILPOINT("test.macro.throw"));
  fp::disarm("test.macro.throw");
}

TEST(Failpoint, ExpressionMacroReportsFires) {
  fp::arm("test.macro.fired", "count:2");
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (ISAAC_FAILPOINT_FIRED("test.macro.fired")) ++fired;
  }
  EXPECT_EQ(fired, 2);
  fp::disarm("test.macro.fired");
}

TEST(Failpoint, DisarmAllLeavesNothingArmed) {
  fp::arm("test.sweep.a", "once");
  fp::arm("test.sweep.b", "prob:1");
  EXPECT_TRUE(fp::any_armed());
  fp::disarm_all();
  EXPECT_FALSE(fp::site("test.sweep.a").should_fire());
  EXPECT_FALSE(fp::site("test.sweep.b").should_fire());
}

TEST(Failpoint, CountFiresExactlyNAcrossThreads) {
  // Hit indices are claimed with one fetch_add, so count:N fires exactly N
  // times no matter how many threads race the site. (This test is the
  // TSan-coverage entry point for the registry.)
  const std::string name = "test.count.mt";
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  constexpr int kLimit = 64;
  fp::arm(name, "count:64");
  std::atomic<int> fired{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        if (fp::site(name).should_fire()) fired.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(fired.load(), kLimit);
  EXPECT_EQ(fp::fires(name), static_cast<std::uint64_t>(kLimit));
  EXPECT_EQ(fp::hits(name), static_cast<std::uint64_t>(kThreads * kPerThread));
  fp::disarm(name);
}

TEST(Failpoint, ExecuteThrowFiresOncePerBatchedCall) {
  // count:N counts executor calls, not batch members: a batched call
  // evaluates the site exactly once, however many matrices it multiplies.
  const std::string name = "execute.throw";
  isaac::codegen::BatchedGemmShape shape;
  shape.batch = 4;
  shape.gemm.m = shape.gemm.n = shape.gemm.k = 8;
  isaac::codegen::GemmTuning tuning;
  tuning.ms = tuning.ns = 2;
  tuning.ml = tuning.nl = 8;
  tuning.u = 4;
  std::vector<float> a(4 * 64, 1.0f), b(4 * 64, 1.0f), c(4 * 64, 0.0f);
  const auto run = [&] {
    isaac::codegen::execute_batched_gemm(shape, tuning, 1.0f, a.data(), 8, 64, b.data(), 8, 64,
                                         0.0f, c.data(), 8, 64);
  };

  const std::uint64_t fires_before = fp::fires(name);
  fp::arm(name, "count:1");
  EXPECT_THROW(run(), fp::FailpointError);
  EXPECT_NO_THROW(run());
  EXPECT_EQ(fp::fires(name) - fires_before, 1u);
  EXPECT_EQ(fp::hits(name), 2u);
  fp::disarm(name);
  for (float v : c) EXPECT_FLOAT_EQ(v, 8.0f);
}
