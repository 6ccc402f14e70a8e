// RandomSearch: i.i.d. uniform draws from X̂, de-duplicated and filtered to
// the legal space before any budget is spent. The classic strong baseline —
// and the fallback the adaptive strategies reduce to when their structure
// cannot help.
#pragma once

#include <unordered_set>

#include "search/strategy.hpp"

namespace isaac::search {

/// FNV-1a over the index vector; collisions only cost a duplicate proposal.
inline std::uint64_t choice_hash(const Choice& c) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::size_t v : c) {
    h ^= static_cast<std::uint64_t>(v) + 0x9E3779B97F4A7C15ULL;
    h *= 1099511628211ULL;
  }
  return h;
}

template <typename Op>
class RandomSearch final : public SearchStrategy<Op> {
 public:
  using Base = SearchStrategy<Op>;
  using Tuning = typename Base::Tuning;

  using Base::Base;

  const char* name() const override { return "random"; }

  std::vector<Proposal<Tuning>> propose(std::size_t max_batch) override {
    std::vector<Proposal<Tuning>> out;
    // Legal fractions of ~1% are normal (Table 1), so allow generous
    // rejection headroom before concluding the space is drained.
    std::size_t attempts = 512 * max_batch + 4096;
    while (out.size() < max_batch && attempts-- > 0) {
      Choice c = this->random_choice();
      if (!seen_.insert(choice_hash(c)).second) continue;  // duplicate
      if (!this->check(c)) continue;
      out.push_back(this->make_proposal(std::move(c)));
    }
    if (out.empty() && max_batch > 0) {
      // Rejection sampling ran dry (sparse legal space): repair through the
      // shared wrap-around scan — the first unseen legal point at-or-after a
      // random start in flat order. Covering the whole (pruned) walk without
      // a hit proves the legal space is genuinely exhausted, so returning
      // empty is then truthful.
      auto unseen = this->scan_for_legal(
          this->random_choice(), [&](const Choice& c) { return seen_.contains(choice_hash(c)); });
      if (unseen) {
        seen_.insert(choice_hash(*unseen));
        out.push_back(this->make_proposal(std::move(*unseen)));
      }
    }
    return out;
  }

 private:
  std::unordered_set<std::uint64_t> seen_;
};

}  // namespace isaac::search
