// The generate-and-test reference rankings, shared by tests/test_search.cpp
// (the bit-for-bit ordering oracles) and bench/bench_inference_throughput.cpp
// (the rank-throughput baseline and the enumeration head-to-head).
//
// reference_rank is the pipeline rank_legal_space ran before the pruned walk
// and the FeatureBatch rewrite: a sweep of every point of X̂ gated by
// validate, a stride subsample with seed re-append, vector-of-vectors
// featurization through the reference scorer (reference_scorer.hpp), and a
// partial sort with the shared tie-break. reference_probe is
// rank_strided_probe the same way: every stride pick validated, no prefix
// pre-gate. Neither reads prefix constraints, and both de-duplicate the seed
// grid by their own 64-bit hash rather than by the flat-index membership
// test the production code uses, so they stay oracles independent of the
// code they check.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.hpp"
#include "exhaustive_search.hpp"
#include "reference_scorer.hpp"
#include "search/model_topk.hpp"

namespace isaac::reference {

/// FNV-1a over the index vector: the key that de-duplicates the seed grid
/// against already-kept candidates.
inline std::uint64_t choice_hash(const search::Choice& c) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::size_t v : c) {
    h ^= static_cast<std::uint64_t>(v) + 0x9E3779B97F4A7C15ULL;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Append the op's legal seed-grid points to `candidates`, skipping any whose
/// hash is already in `present`.
template <typename Op>
void append_seed_grid(const search::SearchProblem<Op>& problem,
                      std::vector<search::Choice>& candidates,
                      std::unordered_set<std::uint64_t>& present) {
  for (const auto& t : core::OperationTraits<Op>::seed_grid()) {
    search::Choice c;
    if (!problem.space->encode(t, c)) continue;  // value outside this space's domains
    if (!problem.legal(c)) continue;
    if (present.insert(choice_hash(c)).second) candidates.push_back(std::move(c));
  }
}

/// Score every candidate with the reference scorer and order the best-first
/// top k (score descending, then choice ascending).
template <typename Op>
void score_and_order(const search::SearchProblem<Op>& problem,
                     const search::SearchConfig& config, std::size_t top_k,
                     search::RankedCandidates<Op>& out) {
  std::vector<std::vector<double>> rows(out.candidates.size());
  ThreadPool::global().parallel_for_each(out.candidates.size(), [&](std::size_t i) {
    rows[i] = tuning::features(*problem.shape, problem.space->decode(out.candidates[i]));
  });
  out.scores = predict_gflops_chunked(*problem.model, rows, config.batch);
  out.scored = out.candidates.size();
  out.order.resize(out.candidates.size());
  for (std::size_t i = 0; i < out.order.size(); ++i) out.order[i] = i;
  const std::size_t k = std::min(std::max<std::size_t>(top_k, 1), out.order.size());
  std::partial_sort(out.order.begin(), out.order.begin() + static_cast<std::ptrdiff_t>(k),
                    out.order.end(), [&](std::size_t a, std::size_t b) {
                      if (out.scores[a] != out.scores[b]) return out.scores[a] > out.scores[b];
                      return out.candidates[a] < out.candidates[b];
                    });
  out.order.resize(k);
}

/// Flat indices of every legal point of X̂ in ascending order, by
/// generate-and-test: flat-range chunks of X̂ swept on the pool, each point
/// checked with problem.legal, concatenated in chunk order. Requires an
/// exact (unsaturated) |X̂|.
template <typename Op>
std::vector<std::uint64_t> sweep_legal(const search::SearchProblem<Op>& problem) {
  const auto& domains = problem.space->domains();
  const std::size_t total = problem.space->size();
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  const std::size_t nchunks = (total + kChunk - 1) / kChunk;
  std::vector<std::vector<std::uint64_t>> parts(nchunks);
  ThreadPool::global().parallel_for_each(nchunks, [&](std::size_t ci) {
    const std::size_t begin = ci * kChunk;
    const std::size_t end = std::min(total, begin + kChunk);
    search::Choice c = search::choice_from_flat(begin, domains);
    auto& part = parts[ci];
    for (std::size_t flat = begin; flat < end; ++flat) {
      if (problem.legal(c)) part.push_back(flat);
      search::advance_choice(c, domains);
    }
  });
  std::vector<std::uint64_t> legal;
  for (const auto& part : parts) legal.insert(legal.end(), part.begin(), part.end());
  return legal;
}

/// The reference ranking over a precomputed sweep_legal(problem), so one
/// sweep can serve several configs. It keeps every scored candidate: its
/// best-first sequence (candidates[order[i]], scores[order[i]]) must match
/// search::rank_legal_space's winners exactly, as must the X̂ accounting.
template <typename Op>
search::RankedCandidates<Op> reference_rank(const search::SearchProblem<Op>& problem,
                                            const search::SearchConfig& config,
                                            std::size_t top_k,
                                            const std::vector<std::uint64_t>& legal) {
  search::RankedCandidates<Op> out;
  for (const std::uint64_t flat : legal) {
    out.candidates.push_back(search::choice_from_flat(flat, problem.space->domains()));
  }
  out.visited = problem.space->size();
  out.legal = out.candidates.size();
  if (out.candidates.empty()) return out;

  const std::size_t cap = config.max_candidates;
  if (cap > 0 && out.candidates.size() > cap) {
    std::vector<search::Choice> kept;
    std::unordered_set<std::uint64_t> in_kept;
    const double step = static_cast<double>(out.candidates.size()) / static_cast<double>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      search::Choice& c = out.candidates[static_cast<std::size_t>(i * step)];
      if (in_kept.insert(choice_hash(c)).second) kept.push_back(std::move(c));
    }
    append_seed_grid(problem, kept, in_kept);
    out.candidates = std::move(kept);
  }
  score_and_order(problem, config, top_k, out);
  return out;
}

/// The reference ranking, sweeping X̂ itself.
template <typename Op>
search::RankedCandidates<Op> reference_rank(const search::SearchProblem<Op>& problem,
                                            const search::SearchConfig& config,
                                            std::size_t top_k) {
  return reference_rank(problem, config, top_k, sweep_legal(problem));
}

/// The reference strided probe: the flat stride over X̂ (step |X̂| / cap),
/// every pick validated with no prefix pre-gate, the legal picks then every
/// hash-new legal seed point, scored and ordered like reference_rank. Its
/// candidates, score bits, order and X̂ accounting must match
/// search::rank_strided_probe's exactly.
template <typename Op>
search::RankedCandidates<Op> reference_probe(const search::SearchProblem<Op>& problem,
                                             const search::SearchConfig& config,
                                             std::size_t top_k) {
  search::RankedCandidates<Op> out;
  const std::size_t total = problem.space->size();
  const std::size_t cap =
      config.max_candidates > 0 ? std::min(config.max_candidates, total) : total;
  const double step =
      static_cast<double>(total) / static_cast<double>(std::max<std::size_t>(cap, 1));
  std::unordered_set<std::uint64_t> present;
  for (std::size_t i = 0; i < cap; ++i) {
    search::Choice c = search::choice_from_flat(
        static_cast<std::size_t>(static_cast<double>(i) * step), problem.space->domains());
    ++out.visited;
    if (!problem.legal(c)) continue;
    ++out.legal;
    if (present.insert(choice_hash(c)).second) out.candidates.push_back(std::move(c));
  }
  append_seed_grid(problem, out.candidates, present);
  if (!out.candidates.empty()) score_and_order(problem, config, top_k, out);
  return out;
}

}  // namespace isaac::reference
