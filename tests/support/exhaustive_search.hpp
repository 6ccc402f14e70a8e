// ExhaustiveSearch: the test-side ground truth for the search loop. It walks
// every point of X̂ in lexicographic (odometer) order and proposes the legal
// ones, so driving it through search::drive() with an unlimited budget
// measures the entire legal space X. With a finite budget it measures the
// first `budget` legal points.
#pragma once

#include <vector>

#include "search/strategy.hpp"

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

template <typename Op>
class ExhaustiveSearch final : public SearchStrategy<Op> {
 public:
  using Base = SearchStrategy<Op>;
  using Tuning = typename Base::Tuning;

  using Base::Base;

  const char* name() const override { return "exhaustive"; }

  std::vector<Proposal<Tuning>> propose(std::size_t max_batch) override {
    std::vector<Proposal<Tuning>> out;
    if (done_ || max_batch == 0) return out;
    const auto& domains = this->problem_.space->domains();
    if (odometer_.empty()) odometer_.assign(domains.size(), 0);
    while (out.size() < max_batch) {
      ++this->stats_.visited;
      if (this->problem_.legal(odometer_)) {
        ++this->stats_.legal;
        out.push_back(this->make_proposal(odometer_));
      }
      if (!advance_choice(odometer_, domains)) {
        done_ = true;
        break;
      }
    }
    return out;
  }

 private:
  Choice odometer_;
  bool done_ = false;
};

}  // namespace isaac::search
