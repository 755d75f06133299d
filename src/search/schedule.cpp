#include "search/schedule.h"

#include <algorithm>
#include <utility>

#include "util/error.h"

namespace sramlp::search {

StateCond element_state(const march::MarchElement& element) {
  StateCond cond;
  if (element.is_pause()) return cond;  // state-transparent
  const march::Operation first = element.ops.front();
  if (march::is_read(first)) cond.pre = march::value_of(first) ? 1 : 0;
  // The last operation fixes the departing value whether it reads (the
  // cell keeps what the read observed) or writes (the cell takes it).
  cond.post = march::value_of(element.ops.back()) ? 1 : 0;
  return cond;
}

std::string Candidate::key() const {
  std::string key;
  key.reserve(order.size() * 8);
  for (std::size_t s = 0; s < order.size(); ++s) {
    if (s != 0) key += ' ';
    key += std::to_string(order[s]);
    if (idle_after[s] != 0) {
      key += '+';
      key += std::to_string(idle_after[s]);
    }
  }
  return key;
}

Candidate identity_candidate(std::size_t elements) {
  Candidate candidate;
  candidate.order.resize(elements);
  for (std::size_t i = 0; i < elements; ++i) candidate.order[i] = i;
  candidate.idle_after.assign(elements, 0);
  return candidate;
}

bool order_is_valid(const std::vector<StateCond>& conds,
                    const std::vector<std::size_t>& order) {
  int cur = -1;  // unknown: satisfies no pre-condition
  for (const std::size_t index : order) {
    const StateCond& cond = conds[index];
    if (cond.pre >= 0 && cur != cond.pre) return false;
    if (cond.post >= 0) cur = cond.post;
  }
  return true;
}

std::vector<std::vector<std::size_t>> valid_orders(
    const std::vector<StateCond>& conds) {
  std::vector<std::size_t> order(conds.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<std::vector<std::size_t>> orders;
  do {
    if (order_is_valid(conds, order)) orders.push_back(order);
  } while (order.size() > 2 &&
           std::next_permutation(order.begin() + 1, order.end() - 1));
  return orders;
}

march::MarchTest build_schedule(const march::MarchTest& base,
                                const Candidate& candidate,
                                const std::string& name) {
  const std::vector<march::MarchElement>& elements = base.elements();
  SRAMLP_REQUIRE(candidate.order.size() == elements.size() &&
                     candidate.idle_after.size() == elements.size(),
                 "candidate does not match the base test's element count");
  std::vector<march::MarchElement> scheduled;
  scheduled.reserve(elements.size() * 2);
  for (std::size_t s = 0; s < candidate.order.size(); ++s) {
    scheduled.push_back(elements.at(candidate.order[s]));
    if (candidate.idle_after[s] > 0) {
      march::MarchElement pause;
      pause.pause_cycles =
          static_cast<std::size_t>(candidate.idle_after[s]);
      scheduled.push_back(pause);
    }
  }
  return march::MarchTest(name, std::move(scheduled));
}

}  // namespace sramlp::search
