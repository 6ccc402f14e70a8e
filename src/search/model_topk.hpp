// The paper's §6 runtime ranking: score the legal space with the trained
// regressor (cheap: batched MLP forward passes in parallel) and keep the best
// predictions. core::tune<Op>() then re-times only those winners on the
// device (search/driver.hpp) — the re-timing that "smooths out the inherent
// noise of our predictive model".
//
// Two rankings share one scoring stage: `rank_legal_space` (dense, the k
// winners tune<Op>() re-times, decoded by `ranked_tunings`) and
// `rank_strided_probe` (bounded-work, what the zero-measurement dispatch
// fast path in core::predict<Op>() takes on cold shapes). Both cut their
// work into contiguous pool slices, and each slice scores its legal points
// through its own stage (detail::SliceScorer) on its own thread.
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
//  * Each slice decodes a walked point once, validates and featurizes that
//    same Tuning into a per-thread block of config.batch rows
//    (tuning::FeatureBatch), scores each full block on its own thread
//    (Regressor::predict_gflops_rows, thread-local forward workspaces), and
//    keeps a bounded top-k. The slices' survivors are merged with one
//    partial sort, and only the k winners are ever built as choice vectors.
//
//  * The stage stages a row only when the slice has not seen its exact bits
//    before, so the model runs once per distinct row and every point with
//    that row gets its score. Implicit-GEMM featurization gives many conv
//    tunings one row; GEMM's rows are all distinct, and a slice whose first
//    full block repeats no row turns the memo off.
//
//  * A row's score never depends on which rows share its block, and the
//    order — score descending, then choice ascending — is a strict total
//    order, so winners, scores and order are bit-identical to scoring the
//    whole legal space and sorting it, whatever the slicing, the memo or the
//    thread count.
//
// The probe rides the same chunked walk down to a leaf level whose subtrees
// span about four of its flat-index stride picks. Each slice checks only the
// picks inside its surviving leaves, point by point, then validates and
// scores them; picks under a rejected prefix are never decoded. The slices
// join in slice order, so its candidates and scores keep the stride order.
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
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <ranges>
#include <stdexcept>
#include <type_traits>
#include <vector>

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
/// scored point (its probed legal points plus the seed grid), and `checked`
/// counts the picks it tested point by point; the rest of its `visited`
/// picks lay under prefixes the walk rejected whole.
template <typename Op>
struct RankedCandidates {
  std::vector<Choice> candidates;
  std::vector<double> scores;      // predicted GFLOPS, aligned with candidates
  std::vector<std::size_t> order;  // best-first indices into candidates, ≤ k
  std::size_t visited = 0;         // X̂ points covered: checked, or pruned with a prefix
  std::size_t legal = 0;           // subset that passed validation
  std::size_t scored = 0;          // points the model scored
  std::size_t model_rows = 0;      // rows the model ran: scored points' distinct rows
  std::size_t checked = 0;         // probe picks tested point by point (probe only)
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

/// One thread's scoring state, reused slice after slice, so a ranking pass
/// allocates only when a slice outgrows every earlier one on that thread.
struct ScoreStage {
  /// A point waiting for its row's score: its choice key and the row's id.
  struct Pending {
    std::uint64_t key = 0;
    std::size_t id = 0;
  };
  tuning::FeatureBatch rows;      // new rows awaiting one model call
  std::size_t staged = 0;         // rows staged in `rows`
  std::vector<double> scores;     // the slice's scored rows, by row id
  std::vector<double> memo_rows;  // the slice's distinct rows, by row id
  std::vector<std::size_t> memo;  // open addressing over memo_rows: id + 1, 0 = empty
  std::vector<Pending> pending;   // points in add order, emitted at the next flush
};

/// A row's exact bits, hashed.
inline std::uint64_t row_hash(const double* row) {
  std::uint64_t h = 0;
  for (std::size_t f = 0; f < tuning::kNumFeatures; ++f) {
    h = (h ^ std::bit_cast<std::uint64_t>(row[f])) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 32;
  }
  return h;
}

/// One slice's scoring stage, shared by both rankings. Legal points go in
/// with add(); each comes out as `sink(ScoredPoint)`, in add order, once the
/// block holding its row is scored. Rows are staged in `block`-row blocks and
/// each full block is one serial model call on the calling thread.
///
/// The row memo maps a row's exact bits to its row id, so the model runs once
/// per distinct row and every point with that row gets its score. A row's
/// score does not depend on its block (Regressor::predict_gflops_rows), so
/// this changes no score. Implicit-GEMM featurization gives many conv
/// tunings one row; GEMM's legal rows are all distinct. So the first full
/// block decides: if no point in it repeated a row, the memo is off for the
/// rest of the slice and the stage scores every point's row as it comes.
/// One instance per slice, never shared across threads; finish() scores the
/// partial block and returns the rows the model ran.
template <typename Op, typename Sink>
class SliceScorer {
 public:
  using Tuning = typename SearchProblem<Op>::Tuning;

  /// Rows are sized by the *op's* feature arity (every featurize_into writes
  /// tuning::kNumFeatures), not the model's: a model trained with a different
  /// feature set must surface as the scorer's clean arity throw, not as
  /// out-of-row writes.
  SliceScorer(const SearchProblem<Op>& problem, const ChoiceKeys& keys, std::size_t block,
              Sink sink)
      : problem_(problem), keys_(keys), sink_(std::move(sink)), stage_(thread_stage()) {
    stage_.rows.reset(tuning::kNumFeatures, block);
    stage_.staged = 0;
    stage_.scores.clear();
    stage_.memo_rows.clear();
    stage_.memo.assign(std::bit_ceil(2 * block), 0);
    stage_.pending.clear();
  }

  /// Stage one legal point; `t` must be the decode of `c`.
  void add(const Tuning& t, const Choice& c) {
    double* row = stage_.rows.row(stage_.staged);
    problem_.featurize_into(t, row);
    const std::size_t next = stage_.scores.size() + stage_.staged;
    const std::size_t id = memo_on_ ? intern(row, next) : next;
    stage_.pending.push_back({keys_.key(c), id});
    if (id == next && ++stage_.staged == stage_.rows.rows()) flush();
  }

  std::size_t finish() {
    flush();
    return model_rows_;
  }

 private:
  static ScoreStage& thread_stage() {
    thread_local ScoreStage stage;
    return stage;
  }

  /// The id of the row equal to `row` bit for bit, or `next` after recording
  /// `row` as new.
  std::size_t intern(const double* row, std::size_t next) {
    constexpr std::size_t bytes = tuning::kNumFeatures * sizeof(double);
    auto& memo = stage_.memo;
    for (std::size_t i = row_hash(row) & (memo.size() - 1);; i = (i + 1) & (memo.size() - 1)) {
      if (memo[i] == 0) {
        memo[i] = next + 1;
        break;
      }
      if (std::memcmp(stage_.memo_rows.data() + (memo[i] - 1) * tuning::kNumFeatures, row,
                      bytes) == 0) {
        return memo[i] - 1;
      }
    }
    stage_.memo_rows.insert(stage_.memo_rows.end(), row, row + tuning::kNumFeatures);
    if (2 * (next + 1) > memo.size()) rehash(2 * memo.size());
    return next;
  }

  void rehash(std::size_t size) {
    auto& memo = stage_.memo;
    memo.assign(size, 0);
    const std::size_t n = stage_.memo_rows.size() / tuning::kNumFeatures;
    for (std::size_t id = 0; id < n; ++id) {
      std::size_t i = row_hash(stage_.memo_rows.data() + id * tuning::kNumFeatures) & (size - 1);
      while (memo[i] != 0) i = (i + 1) & (size - 1);
      memo[i] = id + 1;
    }
  }

  void flush() {
    const std::size_t n = stage_.staged;
    if (n > 0) {
      const std::size_t base = stage_.scores.size();
      stage_.scores.resize(base + n);
      problem_.model->predict_gflops_rows(stage_.rows, 0, n, stage_.scores.data() + base);
      model_rows_ += n;
      stage_.staged = 0;
    }
    for (const auto& p : stage_.pending) sink_(ScoredPoint{stage_.scores[p.id], p.key});
    if (memo_on_ && n == stage_.rows.rows() && model_rows_ == n && stage_.pending.size() == n) {
      memo_on_ = false;  // the slice's first full block repeated no row
    }
    stage_.pending.clear();
    if (!memo_on_) stage_.scores.clear();  // no later point reads an earlier row
  }

  const SearchProblem<Op>& problem_;
  const ChoiceKeys& keys_;
  Sink sink_;
  ScoreStage& stage_;
  bool memo_on_ = true;
  std::size_t model_rows_ = 0;
};

/// Run `slice(begin, end)` over [0, n) cut into contiguous slices, one pool
/// task each (four per worker, the pool's own oversubscription for uneven
/// chunks), and return the slices' results in slice order.
template <typename Fn>
auto run_slices(std::size_t n, const Fn& slice) {
  std::vector<std::invoke_result_t<const Fn&, std::size_t, std::size_t>> parts(
      std::min(n, 4 * ThreadPool::global().size()));
  const std::size_t slices = parts.size();
  ThreadPool::global().parallel_for_each(slices, [&](std::size_t s) {
    parts[s] = slice(s * n / slices, (s + 1) * n / slices);
  });
  return parts;
}

/// The strided probe's i-th pick, ⌊i·step⌋ in double arithmetic: the one
/// expression that defines the probe's candidate set.
inline std::uint64_t probe_pick(std::size_t i, double step) {
  return static_cast<std::uint64_t>(static_cast<double>(i) * step);
}

/// The first pick index in [0, cap) whose pick is ≥ `flat`, or cap when
/// there is none: probe_pick inverted. The quotient only estimates it, so
/// the estimate is corrected against probe_pick itself, whose picks never
/// decrease as i grows.
inline std::size_t first_pick_at(std::uint64_t flat, double step, std::size_t cap) {
  const double guess = std::ceil(static_cast<double>(flat) / step);
  std::size_t i = guess < static_cast<double>(cap) ? static_cast<std::size_t>(guess) : cap;
  while (i > 0 && probe_pick(i - 1, step) >= flat) --i;
  while (i < cap && probe_pick(i, step) < flat) ++i;
  return i;
}

/// The probe walk's leaf level: the lowest dimension whose subtree spans
/// about four picks (stride[leaf] ≥ 4·step), or stride.size() — the whole
/// space as one leaf — when none does.
inline std::size_t probe_leaf_level(const std::vector<std::uint64_t>& stride, double step) {
  std::size_t leaf = 0;
  while (leaf < stride.size() && static_cast<double>(stride[leaf]) < 4.0 * step) ++leaf;
  return leaf;
}

/// The best k of the points `feed(scorer)` adds to one slice's scorer; adds
/// the rows the model ran to `model_rows`.
template <typename Op, typename Feed>
std::vector<ScoredPoint> top_k_of(const SearchProblem<Op>& problem, const ChoiceKeys& keys,
                                  std::size_t block, std::size_t k,
                                  std::atomic<std::size_t>& model_rows, const Feed& feed) {
  TopK top(k);
  SliceScorer scorer(problem, keys, block, [&top](const ScoredPoint& p) { top.offer(p); });
  feed(scorer);
  model_rows.fetch_add(scorer.finish(), std::memory_order_relaxed);
  return top.take();
}

}  // namespace detail

/// Dense ranking — tune<Op>()'s path, one streaming pass: the pool-chunked
/// pruned walk decodes, validates, featurizes and scores every legal point
/// through per-slice scoring stages, each slice keeping a bounded top k, and
/// the slice survivors merge into the best-first k winners (see the file
/// comment). With config.max_candidates set and exceeded, the legal flat
/// indices are enumerated first, strided down to the cap, and the picks plus
/// the seed grid streamed through the same stages. Requires problem.model,
/// pinned for the whole pass: under hot-swappable models the caller pins one
/// snapshot per ranking (Context::model_snapshot()), so the order reflects a
/// single model version. A set config.cancel skips the walk chunks and
/// scoring slices not yet started; `scored` counts what was scored before
/// the cancel.
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
  std::atomic<std::size_t> model_rows{0};
  std::vector<std::vector<detail::ScoredPoint>> parts;

  const std::size_t cap = config.max_candidates;
  if (cap == 0) {
    const tuning::ConstraintSet cs = core::OperationTraits<Op>::prefix_constraints(
        *problem.shape, *problem.device, *problem.space);
    const tuning::ConstraintSet* csp = cs.empty() ? nullptr : &cs;
    const WalkChunkPlan plan = plan_legal_walk(domains, csp);
    if (plan.prefixes.empty()) return out;
    std::atomic<std::size_t> legal{0};
    parts = detail::run_slices(plan.prefixes.size(), [&](std::size_t begin, std::size_t end) {
      return detail::top_k_of(problem, keys, block, k, model_rows, [&](auto& scorer) {
        std::size_t kept = 0;
        for (std::size_t ci = begin; ci < end && !config.cancelled(); ++ci) {
          run_walk_chunk(domains, csp, plan, ci, [&](const Choice& c, std::uint64_t) {
            const auto t = problem.decode(c);
            if (problem.legal(t)) {
              ++kept;
              scorer.add(t, c);
            }
            return true;
          });
        }
        legal.fetch_add(kept, std::memory_order_relaxed);
      });
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
    parts = detail::run_slices(kept, [&](std::size_t begin, std::size_t end) {
      if (config.cancelled()) return std::vector<detail::ScoredPoint>{};
      scored.fetch_add(end - begin, std::memory_order_relaxed);
      return detail::top_k_of(problem, keys, block, k, model_rows, [&](auto& scorer) {
        Choice c;
        for (std::size_t i = begin; i < end; ++i) {
          choice_from_flat_into(picks[i], domains, c);
          scorer.add(problem.decode(c), c);
        }
      });
    });
    out.scored = scored.load();
    if (subsample) {
      // Re-append the seed grid so subsampling can never lose it.
      parts.push_back(detail::top_k_of(problem, keys, block, k, model_rows, [&](auto& scorer) {
        detail::for_each_unpicked_seed(problem, picks, [&](const auto& t, const Choice& c) {
          scorer.add(t, c);
          ++out.scored;
        });
      }));
    }
  }
  out.model_rows = model_rows.load();

  // ---- merge the slices' survivors into the k winners ---------------------
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
/// striding (pick i is ⌊i·step⌋, step = |X̂| / cap), filter those to the
/// legal space, and always re-append the seed grid. This is what lets a cold
/// `select()` answer in milliseconds rather than sweep-the-space time.
///
/// The picks are reached through the dense ranking's pruned walk: the
/// pool-chunked prefix walk (plan_legal_walk) stops at a leaf level whose
/// subtrees span about four picks (probe_leaf_level; the chunk's own prefix
/// when the split sits at or below it). For each surviving leaf the slice
/// finds the leaf's first pick (first_pick_at), decodes only the dimensions
/// below the leaf and checks them in the walk's order — unary mask, then the
/// multi-dimension predicates, highest dimension first — before the full
/// validate. Picks under a rejected prefix are never decoded; they are still
/// `visited`, since the stride defines the candidate set, and `checked`
/// counts the rest. Work is O(legal leaves + checked picks) plus the model
/// pass, bounded by O(cap) however large X̂ is. The predicates are necessary
/// conditions of validate, so the candidate set is the plain stride's.
///
/// `candidates` holds every probed legal point in stride order (chunks and
/// leaves ascend in flat order, and the slices join in slice order), then
/// every legal seed-grid point the stride missed; `scores` is aligned with
/// it and `order` holds the best-first top k (score descending, then choice
/// ascending). The returned `order` may be empty for degenerate shapes whose
/// sparse legal set the stride misses; callers fall back to
/// `rank_legal_space` (and from there, to reporting "no legal
/// configuration"). Requires problem.model whenever a point is legal, pinned
/// as for rank_legal_space. Needs an exact |X̂|: a saturated size() throws
/// std::length_error.
template <typename Op>
RankedCandidates<Op> rank_strided_probe(const SearchProblem<Op>& problem,
                                        const SearchConfig& config, std::size_t top_k) {
  telemetry::Span span("rank.probe");
  ISAAC_TM_COUNT("rank.probe");
  detail::require_exact_size(problem);
  const auto& domains = problem.space->domains();
  const std::size_t nd = domains.size();
  const detail::ChoiceKeys keys(domains);
  const std::size_t block = config.batch > 0 ? config.batch : 8192;
  const std::size_t total = problem.space->size();
  const std::size_t cap =
      config.max_candidates > 0 ? std::min(config.max_candidates, total) : total;
  const tuning::ConstraintSet cs = core::OperationTraits<Op>::prefix_constraints(
      *problem.shape, *problem.device, *problem.space);
  const tuning::ConstraintSet* csp = cs.empty() ? nullptr : &cs;

  // step ≥ 1, so the picks are ascending and distinct.
  const double step =
      static_cast<double>(total) / static_cast<double>(std::max<std::size_t>(cap, 1));
  const auto picks = std::views::iota(std::size_t{0}, cap) |
                     std::views::transform([step](std::size_t i) {
                       return detail::probe_pick(i, step);
                     });
  const WalkChunkPlan plan = plan_legal_walk(domains, csp);
  const auto& [stride, masks] = plan.tables;
  const std::size_t leaf = std::min(detail::probe_leaf_level(stride, step), plan.split);
  const std::uint64_t leaf_span = leaf < nd ? stride[leaf] : total;

  struct Part {
    std::vector<Choice> candidates;
    std::vector<detail::ScoredPoint> points;  // aligned with candidates
    std::size_t model_rows = 0;
    std::size_t checked = 0;
  };
  auto parts = detail::run_slices(plan.prefixes.size(), [&](std::size_t begin, std::size_t end) {
    Part part;
    detail::SliceScorer scorer(problem, keys, block, [&part](const detail::ScoredPoint& p) {
      part.points.push_back(p);
    });
    std::vector<int> values(nd);
    Choice c;
    // Bind the dimensions below the leaf to the pick `offset` points into
    // its subtree, and check them as the walk would have.
    const auto lower_dims_pass = [&](std::uint64_t offset) {
      for (std::size_t d = 0; d < leaf; ++d) {
        c[d] = offset % domains[d].values.size();
        offset /= domains[d].values.size();
      }
      if (csp == nullptr) return true;
      for (std::size_t d = leaf; d-- > 0;) {
        if (!masks.empty() && !masks[d][c[d]]) return false;
        values[d] = domains[d].values[c[d]];
        if (!cs.check_multi_at(d, values.data())) return false;
      }
      return true;
    };
    const auto visit_leaf = [&](const Choice& root, std::uint64_t base) {
      const std::uint64_t leaf_end = base + leaf_span;
      std::size_t i = detail::first_pick_at(base, step, cap);
      if (i == cap || picks[i] >= leaf_end) return true;
      c = root;
      for (std::size_t d = leaf; d < nd; ++d) values[d] = domains[d].values[c[d]];
      for (; i < cap && picks[i] < leaf_end; ++i) {
        ++part.checked;
        if (!lower_dims_pass(picks[i] - base)) continue;
        const auto t = problem.decode(c);
        if (!problem.legal(t)) continue;
        part.candidates.push_back(c);
        scorer.add(t, c);
      }
      return true;
    };
    for (std::size_t ci = begin; ci < end; ++ci) {
      run_walk_chunk(domains, csp, plan, ci, visit_leaf, leaf);
    }
    part.model_rows = scorer.finish();
    return part;
  });

  RankedCandidates<Op> out;
  out.visited = cap;
  std::vector<detail::ScoredPoint> points;
  for (auto& part : parts) {
    out.candidates.insert(out.candidates.end(), std::make_move_iterator(part.candidates.begin()),
                          std::make_move_iterator(part.candidates.end()));
    points.insert(points.end(), part.points.begin(), part.points.end());
    out.model_rows += part.model_rows;
    out.checked += part.checked;
  }
  out.legal = out.candidates.size();
  {
    detail::SliceScorer scorer(problem, keys, block, [&points](const detail::ScoredPoint& p) {
      points.push_back(p);
    });
    detail::for_each_unpicked_seed(problem, picks, [&](const auto& t, const Choice& seed) {
      out.candidates.push_back(seed);
      scorer.add(t, seed);
    });
    out.model_rows += scorer.finish();
  }
  out.scored = out.candidates.size();

  out.scores.reserve(points.size());
  for (const auto& p : points) out.scores.push_back(p.score);
  // Only the first k ranks are ever consumed, so a partial sort suffices —
  // O(n log k) on the latency-critical dispatch path.
  out.order.resize(points.size());
  for (std::size_t i = 0; i < out.order.size(); ++i) out.order[i] = i;
  const std::size_t k =
      std::min<std::size_t>(std::max<std::size_t>(top_k, 1), out.order.size());
  std::partial_sort(out.order.begin(), out.order.begin() + static_cast<std::ptrdiff_t>(k),
                    out.order.end(), [&](std::size_t a, std::size_t b) {
                      return detail::ranks_before(points[a], points[b]);
                    });
  out.order.resize(k);
  return out;
}

}  // namespace isaac::search
