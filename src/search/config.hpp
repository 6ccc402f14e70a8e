// SearchConfig: how much a tuning search may spend. Shared by runtime
// inference (core/inference.hpp) and the cached dispatch path
// (core::Context). The search itself is always the paper's model top-k
// (search/model_topk.hpp).
//
// The budget counts *measured device evaluations* — the expensive resource.
// Model scoring, legality checks and ranking are considered free: the search
// may consult the validator and the regressor as much as it likes before
// spending a unit of budget. The search is *anytime*: stopping the drive loop
// early still yields the best configuration among the evaluations performed
// so far.
//
// Zero-valued fields mean "use the operation's default" and are resolved
// against OperationTraits<Op>::default_search() by core::tune<Op>().
#pragma once

#include <atomic>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace isaac::search {

struct SearchConfig {
  /// Maximum measured device evaluations. 0 (the default) = the op's
  /// default; SIZE_MAX = unlimited (every ranked legal point is re-timed).
  /// The driver clamps any budget to |X̂|, the space's distinct point
  /// count.
  std::size_t budget = 0;

  /// Timing repetitions per measured candidate (median taken).
  int reeval_reps = 5;

  /// MLP scoring batch for the ranking. Sized so one chunk's
  /// activations (batch × widest layer floats, 512 × 128 × 4 B = 256 KB) stay
  /// L2-resident during the forward pass. Every pool thread that ranks keeps
  /// a block this size for the life of the process, so it is kept small.
  /// Scores are bit-identical for any chunking, so this is a pure throughput
  /// and memory knob.
  std::size_t batch = 512;

  /// Cap on the legal candidates the ranking scores (0 = the op's
  /// default; for ops whose default is 0, the ranking is dense). Applied by
  /// deterministic striding with the op's seed grid re-appended, for spaces
  /// too large to score densely.
  std::size_t max_candidates = 0;

  /// Measured candidates retained (best first) in TuneResult::top.
  std::size_t keep_top = 100;

  // ---- failure-domain knobs (DESIGN.md, "Failure domains") ----

  /// Extra attempts per failing measurement before the failure propagates.
  /// A throwing measure() is retried in place with capped exponential
  /// backoff — transient injected/transient device faults never abort a
  /// search; persistent ones still fail deterministically after the retries.
  int measure_retries = 2;

  /// Base backoff before the first retry; doubles per attempt up to the cap.
  double retry_backoff_ms = 0.5;
  double retry_backoff_cap_ms = 8.0;

  /// Wall-clock deadline for the whole drive loop (0 = none). Anytime
  /// semantics: an expired search stops between batches and returns its
  /// best-so-far instead of throwing.
  double timeout_ms = 0.0;

  /// Cooperative cancellation (non-owning; nullptr = never cancelled).
  /// core::tune<Op>() checks it before ranking, the ranking before each walk
  /// chunk and scoring slice, and the drive loop between batches — Context
  /// points refinements at its shutdown flag so teardown never waits out a
  /// full search.
  const std::atomic<bool>* cancel = nullptr;

  bool cancelled() const noexcept {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }

  /// Throw std::invalid_argument with the offending field for values that
  /// have no sane meaning (NaN/negative time budgets, negative retries).
  /// Zero-valued size fields stay legal — they mean "use the op default".
  /// `resolved` additionally requires the post-resolution invariants
  /// (reeval_reps/batch/keep_top ≥ 1) that core::tune relies on downstream.
  void validate(bool resolved = false) const {
    if (measure_retries < 0) {
      throw std::invalid_argument("SearchConfig: measure_retries must be >= 0");
    }
    if (!(retry_backoff_ms >= 0.0) || std::isnan(retry_backoff_ms)) {
      throw std::invalid_argument("SearchConfig: retry_backoff_ms must be >= 0");
    }
    if (!(retry_backoff_cap_ms >= 0.0) || std::isnan(retry_backoff_cap_ms)) {
      throw std::invalid_argument("SearchConfig: retry_backoff_cap_ms must be >= 0");
    }
    if (std::isnan(timeout_ms) || timeout_ms < 0.0) {
      throw std::invalid_argument("SearchConfig: timeout_ms must be >= 0");
    }
    if (reeval_reps < 0) {
      throw std::invalid_argument("SearchConfig: reeval_reps must be >= 0 (0 = op default)");
    }
    if (resolved) {
      if (reeval_reps < 1) throw std::invalid_argument("SearchConfig: resolved reeval_reps < 1");
      if (batch < 1) throw std::invalid_argument("SearchConfig: resolved batch < 1");
      if (keep_top < 1) throw std::invalid_argument("SearchConfig: resolved keep_top < 1");
      if (budget < 1) throw std::invalid_argument("SearchConfig: resolved budget < 1");
    }
  }
};

}  // namespace isaac::search
