// The test-side ground truth for the measured loop: every legal point of X̂
// in flat (odometer) order, as the list search::drive() re-times. Driving it
// with an unlimited budget measures the entire legal space X through the
// production loop; with a finite budget it measures the first `budget` legal
// points.
#pragma once

#include <vector>

#include "search/problem.hpp"

namespace isaac::search {

/// Advance `c` one step in the lexicographic (odometer) enumeration of the
/// domains' cartesian product — dimension 0 least significant; false when
/// the odometer wraps around, i.e. every point has been visited.
inline bool advance_choice(Choice& c, const std::vector<tuning::ParameterDomain>& domains) {
  for (std::size_t d = 0; d < domains.size(); ++d) {
    if (++c[d] < domains[d].values.size()) return true;
    c[d] = 0;
  }
  return false;
}

/// Every legal point of X̂, in flat order, by generate-and-test over the
/// whole space (no model, no prefix constraints); predicted GFLOPS stay 0.
template <typename Op>
std::vector<RankedTuning<typename SearchProblem<Op>::Tuning>> exhaustive_legal(
    const SearchProblem<Op>& problem) {
  std::vector<RankedTuning<typename SearchProblem<Op>::Tuning>> list;
  const auto& domains = problem.space->domains();
  if (problem.space->size() == 0) return list;
  Choice c(domains.size(), 0);
  do {
    const auto t = problem.decode(c);
    if (problem.legal(t)) list.push_back({t, 0.0});
  } while (advance_choice(c, domains));
  return list;
}

}  // namespace isaac::search
