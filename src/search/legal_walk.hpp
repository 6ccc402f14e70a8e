// Chunking the constraint-propagating pruned walk (tuning/search_space.hpp)
// across the thread pool without materializing index vectors.
//
// The serial walk binds dimensions from the highest index down; splitting it
// at a dimension S turns every surviving prefix over dimensions [S..D-1] into
// an independent subtree walk over [0..S-1]. Prefixes are enumerated serially
// (the prefix predicates prune there too, so this is cheap relative to the
// subtrees) and handed to the pool as chunks. Chunk i's points all precede
// chunk i+1's in flat (odometer) order, so per-chunk results concatenated in
// chunk order reproduce the serial walk — and therefore the generate-and-test
// sweep filtered by codegen::validate — exactly. That order identity is what
// lets rank_legal_space (search/model_topk.hpp) enumerate the legal space
// through the walk without moving a single candidate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "search/problem.hpp"

namespace isaac::search {

/// A pruned walk split for the pool: dimensions [split..D-1] pre-bound to
/// each surviving prefix, subtrees over [0..split-1] left to walk. Prefixes
/// are stored in ascending flat order; flat_bases[i] is the flat-index
/// contribution of prefix i's bound dimensions (exact only when |X̂| fits
/// 64 bits — callers on saturated spaces must ignore it).
struct WalkChunkPlan {
  std::size_t split = 0;
  std::vector<Choice> prefixes;
  std::vector<std::uint64_t> flat_bases;
};

/// Choose the split dimension and enumerate the surviving prefixes. Aims for
/// enough chunks to keep the pool busy with headroom for imbalance (pruned
/// subtrees vary wildly in size) while the serial prefix pass stays
/// negligible. An empty plan (no prefixes) means the pruned space — or X̂
/// itself — is empty.
inline WalkChunkPlan plan_legal_walk(const std::vector<tuning::ParameterDomain>& domains,
                                     const tuning::ConstraintSet* constraints) {
  WalkChunkPlan plan;
  const std::size_t nd = domains.size();
  if (nd == 0) return plan;
  for (const auto& d : domains) {
    if (d.values.empty()) return plan;
  }
  if (nd == 1) {
    // Single dimension: one chunk covering the whole (tiny) walk.
    plan.split = 1;
    plan.prefixes.push_back(Choice(1, 0));
    plan.flat_bases.push_back(0);
    return plan;
  }
  const std::size_t target = std::max<std::size_t>(64, 8 * ThreadPool::global().size());
  std::size_t split = nd - 1;
  std::size_t count = domains[split].values.size();
  while (split > 1 && count < target) {
    --split;
    count *= domains[split].values.size();
  }
  plan.split = split;
  Choice choice(nd, 0);
  std::vector<int> values(nd, 0);
  tuning::walk_legal_levels(domains, constraints, nd - 1, split, choice, values, 0,
                            [&](const Choice& c, std::uint64_t flat) {
                              plan.prefixes.push_back(c);
                              plan.flat_bases.push_back(flat);
                              return true;
                            });
  return plan;
}

/// Walk chunk `ci` of a plan: bind its prefix, then walk the subtree over
/// dimensions [0..split-1], emitting `fn(choice, flat)` leaves in ascending
/// flat order. Predicates registered at dimensions ≥ split already passed
/// during planning and are not re-evaluated. Safe to call concurrently for
/// distinct chunks — each call owns its cursors.
template <typename Fn>
void run_walk_chunk(const std::vector<tuning::ParameterDomain>& domains,
                    const tuning::ConstraintSet* constraints, const WalkChunkPlan& plan,
                    std::size_t ci, const Fn& fn) {
  const std::size_t nd = domains.size();
  Choice choice = plan.prefixes[ci];
  std::vector<int> values(nd, 0);
  for (std::size_t d = plan.split; d < nd; ++d) {
    values[d] = domains[d].values[choice[d]];
  }
  tuning::walk_legal_levels(domains, constraints, plan.split - 1, 0, choice, values,
                            plan.flat_bases[ci], fn);
}

}  // namespace isaac::search
