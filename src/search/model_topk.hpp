// The paper's §6 runtime ranking: score the legal space with the trained
// regressor (cheap: batched MLP forward passes in parallel) and keep the best
// predictions. core::tune<Op>() then re-times only those winners on the
// device (search/driver.hpp) — the re-timing that "smooths out the inherent
// noise of our predictive model".
//
// Two rankings share one scoring core: `rank_legal_space` (dense, the k
// winners tune<Op>() re-times, decoded by `ranked_tunings`) and
// `rank_strided_probe` (bounded-work, what the zero-measurement dispatch
// fast path in core::predict<Op>() takes on cold shapes).
//
// Dense ranking is one streaming pass that never materializes the legal
// space:
//
//  * Enumeration is the constraint-propagating pruned walk
//    (tuning::walk_legal + the op's prefix_constraints), chunked for the
//    pool: whole illegal subtrees are skipped unvisited, so iteration cost
//    scales with the legal space X, not |X̂|. Every survivor still passes the
//    full validate gate, so the scored set is exactly the generate-and-test
//    sweep's.
//
//  * Each pool chunk decodes a walked point once, validates and featurizes
//    that same Tuning into a per-thread block of config.batch rows
//    (tuning::FeatureBatch), scores each full block on its own thread
//    (Regressor::predict_gflops_rows, thread-local forward workspaces), and
//    keeps a bounded top-k. The chunks' survivors are merged with one
//    partial sort, and only the k winners are ever built as choice vectors.
//
//  * A row's score never depends on which rows share its block, and the
//    order — score descending, then choice ascending — is a strict total
//    order, so winners, scores and order are bit-identical to scoring the
//    whole legal space and sorting it, whatever the chunking or thread count.
//
// Ranking cost is bounded by SearchConfig::max_candidates: oversized legal
// spaces are deterministically strided and the op's seed grid re-appended so
// subsampling can never lose the well-known-good region. The capped ranking
// and the probe re-append the seed grid through one helper, by exact
// flat-index membership in their ascending picks. Both rankings need an
// exact |X̂|: a saturated size() throws std::length_error. The dense ranking
// polls SearchConfig::cancel before each walk chunk and scoring slice, so a
// cancelled search stops within one chunk.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <ranges>
#include <stdexcept>

#include "common/page_allocator.hpp"
#include "common/thread_pool.hpp"
#include "search/config.hpp"
#include "search/legal_walk.hpp"
#include "search/problem.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "tuning/dataset.hpp"
#include "tuning/feature_batch.hpp"

namespace isaac::search {

/// A model-ranked slice of the legal space. `order` indexes `candidates`/
/// `scores` best-first and is truncated to the requested k; `visited`/`legal`
/// account the X̂ traffic the ranking spent so callers can merge it into
/// their own stats, and `scored` counts the points the model scored.
///
/// rank_legal_space keeps only the ≤ k winners: `candidates`/`scores` are
/// already best-first and `order` is 0..k-1. rank_strided_probe keeps every
/// scored point (its probed legal points plus the seed grid).
template <typename Op>
struct RankedCandidates {
  std::vector<Choice> candidates;
  std::vector<double> scores;      // predicted GFLOPS, aligned with candidates
  std::vector<std::size_t> order;  // best-first indices into candidates, ≤ k
  std::size_t visited = 0;         // X̂ points legality-checked
  std::size_t legal = 0;           // subset that passed validation
  std::size_t scored = 0;          // points the model scored
};

/// Decode a flat lexicographic index into an existing choice vector
/// (dimension 0 least significant — the order SearchSpace::for_each walks),
/// reusing the caller's storage.
inline void choice_from_flat_into(std::size_t flat,
                                  const std::vector<tuning::ParameterDomain>& domains,
                                  Choice& c) {
  c.resize(domains.size());
  for (std::size_t d = 0; d < domains.size(); ++d) {
    c[d] = flat % domains[d].values.size();
    flat /= domains[d].values.size();
  }
}

/// Decode a flat lexicographic index into a fresh choice vector.
inline Choice choice_from_flat(std::size_t flat,
                               const std::vector<tuning::ParameterDomain>& domains) {
  Choice c;
  choice_from_flat_into(flat, domains, c);
  return c;
}

/// The flat lexicographic index of a choice: choice_from_flat's inverse.
inline std::uint64_t flat_from_choice(const Choice& c,
                                      const std::vector<tuning::ParameterDomain>& domains) {
  std::uint64_t flat = 0;
  for (std::size_t d = domains.size(); d-- > 0;) flat = flat * domains[d].values.size() + c[d];
  return flat;
}

namespace detail {

/// Re-append the op's seed grid after a stride: call `fn(tuning, choice)`
/// for every legal seed-grid point whose flat index is not among `picks`
/// (ascending flat indices, found by binary search), each point once, in
/// seed-grid order — so no subsampled ranking can lose the well-known-good
/// region.
template <typename Op, typename Picks, typename Fn>
void for_each_unpicked_seed(const SearchProblem<Op>& problem, const Picks& picks, const Fn& fn) {
  using Traits = typename SearchProblem<Op>::Traits;
  const auto& domains = problem.space->domains();
  std::vector<std::uint64_t> seen;
  Choice c;
  for (const auto& seed : Traits::seed_grid()) {
    if (!problem.space->encode(seed, c)) continue;  // value outside this space's domains
    const auto t = problem.decode(c);
    if (!problem.legal(t)) continue;
    const std::uint64_t flat = flat_from_choice(c, domains);
    if (std::ranges::binary_search(picks, flat)) continue;
    if (std::ranges::find(seen, flat) != seen.end()) continue;
    seen.push_back(flat);
    fn(t, c);
  }
}

/// Ranking needs exact 64-bit flat indices (and choice keys); a saturated
/// size() has none.
template <typename Op>
void require_exact_size(const SearchProblem<Op>& problem) {
  if (problem.space->size() == std::numeric_limits<std::size_t>::max()) {
    throw std::length_error("ranking: search space too large for 64-bit flat indices");
  }
}

/// The legal space as ascending flat indices (odometer order): the
/// constraint-propagating pruned walk over the problem's prefix_constraints,
/// chunked for the pool by surviving prefix, every emitted point gated by
/// problem.legal. Chunk concatenation preserves the order and the gate keeps
/// the result exactly the generate-and-test sweep's survivors — the walk
/// only skips subtrees validate would reject point by point. Capped dense
/// ranking strides this list, which needs the legal count up front. Needs
/// an exact |X̂|: a saturated size() throws std::length_error. The list is
/// built on a pool thread and can run to megabytes, so its buffer is mapped
/// from the OS and leaves no resident pages behind (PageAllocator); the
/// per-chunk parts are small and stay plain vectors, so the walk makes no
/// system call per growth step. `emitted`, when set, receives the number of
/// points the walk emitted, i.e. the points it validated. A set `cancel`
/// skips every chunk not yet started, so a cancelled enumeration returns a
/// partial list within one chunk.
template <typename Op>
PageVector<std::uint64_t> enumerate_legal(const SearchProblem<Op>& problem,
                                          std::size_t* emitted = nullptr,
                                          const std::atomic<bool>* cancel = nullptr) {
  require_exact_size(problem);
  const auto& domains = problem.space->domains();
  const tuning::ConstraintSet cs = core::OperationTraits<Op>::prefix_constraints(
      *problem.shape, *problem.device, *problem.space);
  const tuning::ConstraintSet* csp = cs.empty() ? nullptr : &cs;
  const WalkChunkPlan plan = plan_legal_walk(domains, csp);
  std::vector<std::vector<std::uint64_t>> parts(plan.prefixes.size());
  std::atomic<std::size_t> visits{0};
  ThreadPool::global().parallel_for_each(plan.prefixes.size(), [&](std::size_t ci) {
    if (cancel && cancel->load(std::memory_order_relaxed)) return;
    auto& part = parts[ci];
    std::size_t visited = 0;
    run_walk_chunk(domains, csp, plan, ci, [&](const Choice& c, std::uint64_t flat) {
      ++visited;
      if (problem.legal(c)) part.push_back(flat);
      return true;
    });
    visits.fetch_add(visited, std::memory_order_relaxed);
  });
  if (emitted) *emitted = visits.load(std::memory_order_relaxed);
  std::size_t n = 0;
  for (const auto& part : parts) n += part.size();
  PageVector<std::uint64_t> legal;
  legal.reserve(n);
  for (const auto& part : parts) legal.insert(legal.end(), part.begin(), part.end());
  return legal;
}

/// Score `out.candidates` with the model and fill `out.order` with the
/// best-first top k (predicted GFLOPS, deterministic choice tie-break) —
/// the strided probe's scorer, which keeps every scored candidate.
/// Featurization writes in place into one flat batch; scoring reuses
/// per-thread forward workspaces — no per-candidate allocations.
/// problem.model is read for the whole pass, so under hot-swappable models
/// the caller must pin one snapshot per ranking (Context::model_snapshot());
/// the whole order then reflects a single model version, never a mid-swap
/// mixture.
template <typename Op>
void score_and_order(const SearchProblem<Op>& problem, const SearchConfig& config,
                     std::size_t top_k, RankedCandidates<Op>& out) {
  if (out.candidates.empty()) return;
  // Size rows by the *op's* feature arity (every featurize_into writes
  // tuning::kNumFeatures), not the model's: a model trained with a different
  // feature set must surface as the scorer's clean arity throw, not as
  // out-of-row writes.
  tuning::FeatureBatch batch(tuning::kNumFeatures, out.candidates.size());
  ThreadPool::global().parallel_for_each(out.candidates.size(), [&](std::size_t i) {
    problem.featurize_into(problem.space->decode(out.candidates[i]), batch.row(i));
  });
  const std::size_t chunk = config.batch > 0 ? config.batch : 8192;
  out.scores = problem.model->predict_gflops_chunked(batch, chunk);
  out.scored = out.candidates.size();

  // Only the first k ranks are ever consumed, so a partial sort suffices —
  // O(n log k) on the latency-critical dispatch path.
  out.order.resize(out.candidates.size());
  for (std::size_t i = 0; i < out.order.size(); ++i) out.order[i] = i;
  const std::size_t k =
      std::min<std::size_t>(std::max<std::size_t>(top_k, 1), out.order.size());
  std::partial_sort(out.order.begin(), out.order.begin() + static_cast<std::ptrdiff_t>(k),
                    out.order.end(), [&](std::size_t a, std::size_t b) {
                      if (out.scores[a] != out.scores[b]) return out.scores[a] > out.scores[b];
                      return out.candidates[a] < out.candidates[b];  // deterministic tie-break
                    });
  out.order.resize(k);
}

/// A choice as one integer whose order is Choice's (std::vector's
/// lexicographic, dimension 0 most significant): the mixed-radix number with
/// digit d weighted by Π_{e>d} |D_e|. Exact whenever |X̂| fits 64 bits, so a
/// scored point carries 8 bytes instead of a heap-allocated choice vector.
class ChoiceKeys {
 public:
  explicit ChoiceKeys(const std::vector<tuning::ParameterDomain>& domains)
      : weights_(domains.size()) {
    std::uint64_t w = 1;
    for (std::size_t d = domains.size(); d-- > 0;) {
      weights_[d] = w;
      w *= domains[d].values.size();
    }
  }

  std::uint64_t key(const Choice& c) const {
    std::uint64_t k = 0;
    for (std::size_t d = 0; d < c.size(); ++d) k += c[d] * weights_[d];
    return k;
  }

  Choice choice(std::uint64_t key) const {
    Choice c(weights_.size());
    for (std::size_t d = 0; d < c.size(); ++d) {
      c[d] = key / weights_[d];
      key %= weights_[d];
    }
    return c;
  }

 private:
  std::vector<std::uint64_t> weights_;
};

/// A scored point of the legal space: predicted GFLOPS and its choice key.
struct ScoredPoint {
  double score = 0.0;
  std::uint64_t key = 0;
};

/// The ranking order: score descending, then choice ascending — a strict
/// total order over distinct points (for non-NaN scores).
inline bool ranks_before(const ScoredPoint& a, const ScoredPoint& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.key < b.key;
}

/// The k best points offered so far. The first k are kept as they come;
/// from then on they form a heap whose front is the worst kept point, so a
/// point that cannot make the cut costs one comparison.
class TopK {
 public:
  explicit TopK(std::size_t k) : k_(k) {}

  void offer(const ScoredPoint& p) {
    if (heap_.size() < k_) {
      heap_.push_back(p);
      if (heap_.size() == k_) std::make_heap(heap_.begin(), heap_.end(), ranks_before);
    } else if (ranks_before(p, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), ranks_before);
      heap_.back() = p;
      std::push_heap(heap_.begin(), heap_.end(), ranks_before);
    }
  }

  std::vector<ScoredPoint> take() { return std::move(heap_); }

 private:
  std::size_t k_;
  std::vector<ScoredPoint> heap_;
};

/// One thread's staging block: featurized rows awaiting one model call, with
/// their choice keys. Thread-local, so a ranking pass allocates only when a
/// block outgrows every earlier one on that thread.
struct ScoreStage {
  tuning::FeatureBatch rows;
  std::vector<std::uint64_t> keys;
  std::vector<double> scores;
  std::size_t staged = 0;
};

/// Streams legal points through the calling thread's staging block into a
/// bounded top-k: stage rows until the block is full, score it with one
/// serial model call, offer every row to the top-k. One instance per pool
/// chunk, never shared across threads; finish() scores the partial block.
template <typename Op>
class BlockRanker {
 public:
  using Tuning = typename SearchProblem<Op>::Tuning;

  /// Rows are sized by the *op's* feature arity (every featurize_into writes
  /// tuning::kNumFeatures), not the model's: a model trained with a different
  /// feature set must surface as the scorer's clean arity throw, not as
  /// out-of-row writes.
  BlockRanker(const SearchProblem<Op>& problem, const ChoiceKeys& keys, std::size_t block,
              std::size_t k)
      : problem_(problem), keys_(keys), stage_(thread_stage()), top_(k) {
    stage_.rows.reset(tuning::kNumFeatures, block);
    stage_.keys.resize(block);
    stage_.scores.resize(block);
    stage_.staged = 0;
  }

  /// Stage one legal point; `t` must be the decode of `c`.
  void add(const Tuning& t, const Choice& c) {
    problem_.featurize_into(t, stage_.rows.row(stage_.staged));
    stage_.keys[stage_.staged] = keys_.key(c);
    if (++stage_.staged == stage_.rows.rows()) flush();
  }

  std::vector<ScoredPoint> finish() {
    flush();
    return top_.take();
  }

 private:
  static ScoreStage& thread_stage() {
    thread_local ScoreStage stage;
    return stage;
  }

  void flush() {
    if (stage_.staged == 0) return;
    problem_.model->predict_gflops_rows(stage_.rows, 0, stage_.staged, stage_.scores.data());
    for (std::size_t i = 0; i < stage_.staged; ++i) {
      top_.offer({stage_.scores[i], stage_.keys[i]});
    }
    stage_.staged = 0;
  }

  const SearchProblem<Op>& problem_;
  const ChoiceKeys& keys_;
  ScoreStage& stage_;
  TopK top_;
};

/// Run `rank_slice(begin, end)` — which returns that range's top-k
/// survivors — over [0, n) cut into contiguous slices, one pool task each
/// (four per worker, the pool's own oversubscription for uneven chunks).
template <typename Fn>
std::vector<std::vector<ScoredPoint>> rank_slices(std::size_t n, const Fn& rank_slice) {
  const std::size_t slices = std::min(n, 4 * ThreadPool::global().size());
  std::vector<std::vector<ScoredPoint>> parts(slices);
  ThreadPool::global().parallel_for_each(slices, [&](std::size_t s) {
    parts[s] = rank_slice(s * n / slices, (s + 1) * n / slices);
  });
  return parts;
}

}  // namespace detail

/// Dense ranking — tune<Op>()'s path, one streaming pass: the pool-chunked
/// pruned walk decodes, validates, featurizes and scores every legal point
/// in config.batch-row blocks, each chunk keeping a bounded top k, and the
/// chunk survivors merge into the best-first k winners (see the file
/// comment). With config.max_candidates set and exceeded, the legal flat
/// indices are enumerated first, strided down to the cap, and the picks plus
/// the seed grid streamed through the same blocks. Requires problem.model,
/// pinned for the whole pass (see score_and_order). A set config.cancel
/// skips the walk chunks and scoring slices not yet started; `scored`
/// counts what was scored before the cancel.
template <typename Op>
RankedCandidates<Op> rank_legal_space(const SearchProblem<Op>& problem,
                                      const SearchConfig& config, std::size_t top_k) {
  telemetry::Span span("rank.dense");
  ISAAC_TM_COUNT("rank.dense");
  if (problem.model == nullptr) {
    throw std::invalid_argument("rank_legal_space: ranking requires a trained model");
  }
  detail::require_exact_size(problem);
  RankedCandidates<Op> out;
  // The walk conceptually covers all of X̂ (pruned subtrees are rejected
  // wholesale), so the stats stay on a full sweep's footing.
  out.visited = problem.space->size();

  const auto& domains = problem.space->domains();
  const detail::ChoiceKeys keys(domains);
  const std::size_t block = config.batch > 0 ? config.batch : 8192;
  const std::size_t k = std::max<std::size_t>(top_k, 1);
  std::vector<std::vector<detail::ScoredPoint>> parts;

  const std::size_t cap = config.max_candidates;
  if (cap == 0) {
    const tuning::ConstraintSet cs = core::OperationTraits<Op>::prefix_constraints(
        *problem.shape, *problem.device, *problem.space);
    const tuning::ConstraintSet* csp = cs.empty() ? nullptr : &cs;
    const WalkChunkPlan plan = plan_legal_walk(domains, csp);
    if (plan.prefixes.empty()) return out;
    std::atomic<std::size_t> legal{0};
    parts = detail::rank_slices(plan.prefixes.size(), [&](std::size_t begin, std::size_t end) {
      detail::BlockRanker<Op> ranker(problem, keys, block, k);
      std::size_t kept = 0;
      for (std::size_t ci = begin; ci < end && !config.cancelled(); ++ci) {
        run_walk_chunk(domains, csp, plan, ci, [&](const Choice& c, std::uint64_t) {
          const auto t = problem.decode(c);
          if (problem.legal(t)) {
            ++kept;
            ranker.add(t, c);
          }
          return true;
        });
      }
      legal.fetch_add(kept, std::memory_order_relaxed);
      return ranker.finish();
    });
    out.legal = legal.load();
    out.scored = out.legal;
  } else {
    const PageVector<std::uint64_t> legal =
        detail::enumerate_legal(problem, nullptr, config.cancel);
    out.legal = legal.size();
    if (legal.empty()) return out;
    // Stride oversized sets down to the cap: ascending, distinct picks, read
    // in place from the legal list (step 1 keeps every point).
    const bool subsample = legal.size() > cap;
    const std::size_t kept = subsample ? cap : legal.size();
    const double step = static_cast<double>(legal.size()) / static_cast<double>(kept);
    const auto picks = std::views::iota(std::size_t{0}, kept) |
                       std::views::transform([&](std::size_t i) {
                         return legal[static_cast<std::size_t>(static_cast<double>(i) * step)];
                       });
    std::atomic<std::size_t> scored{0};
    parts = detail::rank_slices(kept, [&](std::size_t begin, std::size_t end) {
      if (config.cancelled()) return std::vector<detail::ScoredPoint>{};
      detail::BlockRanker<Op> ranker(problem, keys, block, k);
      Choice c;
      for (std::size_t i = begin; i < end; ++i) {
        choice_from_flat_into(picks[i], domains, c);
        ranker.add(problem.decode(c), c);
      }
      scored.fetch_add(end - begin, std::memory_order_relaxed);
      return ranker.finish();
    });
    out.scored = scored.load();
    if (subsample) {
      // Re-append the seed grid so subsampling can never lose it.
      detail::BlockRanker<Op> ranker(problem, keys, block, k);
      detail::for_each_unpicked_seed(problem, picks, [&](const auto& t, const Choice& c) {
        ranker.add(t, c);
        ++out.scored;
      });
      parts.push_back(ranker.finish());
    }
  }

  // ---- merge the chunks' survivors into the k winners ---------------------
  std::vector<detail::ScoredPoint> merged;
  for (auto& part : parts) merged.insert(merged.end(), part.begin(), part.end());
  const std::size_t n = std::min(k, merged.size());
  std::partial_sort(merged.begin(), merged.begin() + static_cast<std::ptrdiff_t>(n),
                    merged.end(), detail::ranks_before);
  out.candidates.reserve(n);
  out.scores.reserve(n);
  out.order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.candidates.push_back(keys.choice(merged[i].key));
    out.scores.push_back(merged[i].score);
    out.order.push_back(i);
  }
  return out;
}

/// A ranking's winners, best first, decoded once into the list
/// search::drive() re-times.
template <typename Op>
std::vector<RankedTuning<typename SearchProblem<Op>::Tuning>> ranked_tunings(
    const SearchProblem<Op>& problem, const RankedCandidates<Op>& ranked) {
  std::vector<RankedTuning<typename SearchProblem<Op>::Tuning>> list;
  list.reserve(ranked.order.size());
  for (const std::size_t i : ranked.order) {
    list.push_back({problem.decode(ranked.candidates[i]), ranked.scores[i]});
  }
  return list;
}

/// Bounded-work ranking — the dispatch fast path: instead of sweeping all of
/// X̂, probe at most config.max_candidates points by deterministic flat-index
/// striding, filter those to the legal space, and always re-append the seed
/// grid. Total work is O(cap) legality checks plus one batched model pass, no
/// matter how large X̂ is — this is what lets a cold `select()` answer in
/// microseconds-to-milliseconds rather than sweep-the-space time.
/// `candidates` holds every probed legal point in stride order, then every
/// legal seed-grid point the stride missed. The returned `order` may be
/// empty for degenerate shapes whose sparse legal set the stride misses;
/// callers fall back to `rank_legal_space` (and from there, to reporting
/// "no legal configuration"). Needs an exact |X̂|: a saturated size() throws
/// std::length_error.
template <typename Op>
RankedCandidates<Op> rank_strided_probe(const SearchProblem<Op>& problem,
                                        const SearchConfig& config, std::size_t top_k) {
  telemetry::Span span("rank.probe");
  ISAAC_TM_COUNT("rank.probe");
  detail::require_exact_size(problem);
  RankedCandidates<Op> out;
  const auto& domains = problem.space->domains();
  const std::size_t total = problem.space->size();
  const std::size_t cap =
      config.max_candidates > 0 ? std::min(config.max_candidates, total) : total;
  const tuning::ConstraintSet cs = core::OperationTraits<Op>::prefix_constraints(
      *problem.shape, *problem.device, *problem.space);

  // Cheap necessary-condition pre-gate in front of the full validate.
  // Predicates can only reject points validate would also reject, so the
  // probed candidate set is bit-identical to the unfiltered probe's — the
  // definite failures just skip the decode + validate.
  std::vector<int> values(domains.size());
  const auto plausible = [&](const Choice& probe) {
    if (cs.empty()) return true;
    for (std::size_t d = 0; d < domains.size(); ++d) {
      values[d] = domains[d].values[probe[d]];
    }
    return cs.accepts(values.data());
  };
  // step ≥ 1, so the picks are ascending and distinct.
  const double step =
      static_cast<double>(total) / static_cast<double>(std::max<std::size_t>(cap, 1));
  const auto picks = std::views::iota(std::size_t{0}, cap) |
                     std::views::transform([&](std::size_t i) {
                       return static_cast<std::size_t>(static_cast<double>(i) * step);
                     });
  Choice c;
  for (const std::size_t flat : picks) {
    choice_from_flat_into(flat, domains, c);
    ++out.visited;
    if (!plausible(c)) continue;
    if (!problem.legal(c)) continue;
    ++out.legal;
    out.candidates.push_back(c);
  }
  detail::for_each_unpicked_seed(problem, picks, [&](const auto&, const Choice& seed) {
    out.candidates.push_back(seed);
  });

  detail::score_and_order(problem, config, top_k, out);
  return out;
}

}  // namespace isaac::search
