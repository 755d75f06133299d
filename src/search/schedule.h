// Candidate schedule encoding for the peak-constrained March schedule
// search.
//
// A candidate is an order of the base test's elements plus idle cycles
// inserted between them.  It never touches the CONTENT of an element —
// every sensitise/observe operation pair the base test applies is still
// applied at every address — so a schedule differs from the base only in
// when each element runs:
//
//   * the element order is subject to the read-state chain: each element
//     has a pre-condition (the value its first read expects every cell to
//     hold) and a post-condition (the value its last operation leaves
//     behind); an order is valid when every pre-condition is established
//     by the schedule prefix, so the test still passes on a fault-free
//     array.  The first element (initialisation, the only one with no
//     pre-condition in a well-formed March test) and the last (final
//     observation) stay pinned;
//   * idle windows go between elements, in quanta of idle_quantum cycles
//     up to a total budget — pauses only add retention stress, never
//     reduce coverage — and re-phase the downstream elements against the
//     peak windows.
//
// Every reported schedule is additionally re-run cycle-accurate; one that
// broke the chain would be rejected there by its read mismatches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "march/test.h"

namespace sramlp::search {

/// Per-element boundary state conditions (see file comment).
/// -1 means "no constraint" (pre) / "leaves cells unchanged" (post).
struct StateCond {
  int pre = -1;
  int post = -1;
};

/// Derive the boundary conditions of one element.  Pause elements are
/// state-transparent (no pre, no post).
StateCond element_state(const march::MarchElement& element);

/// One candidate schedule over a base test of N elements.
struct Candidate {
  /// Permutation of [0, N): base element index executed at each slot.
  std::vector<std::size_t> order;
  /// Idle cycles inserted after each slot (same length; the last slot's
  /// entry stays 0 — trailing idle never lowers a peak window).
  std::vector<std::uint64_t> idle_after;

  /// Canonical text key — deterministic tie-breaks and dedup.
  std::string key() const;
};

/// The identity candidate: base order, no idle.
Candidate identity_candidate(std::size_t elements);

/// True when executing the elements in @p order satisfies every
/// pre-condition (cells start in an unknown state).
bool order_is_valid(const std::vector<StateCond>& conds,
                    const std::vector<std::size_t>& order);

/// Every valid order of the elements described by @p conds, in
/// lexicographic order, with the first and last elements pinned (the
/// identity order comes first when it is valid).
std::vector<std::vector<std::size_t>> valid_orders(
    const std::vector<StateCond>& conds);

/// Materialise the candidate as a runnable MarchTest: base elements in
/// candidate order with Del elements for the inserted idle.  @p name
/// becomes the test's name (keep it deterministic — it is serialized).
march::MarchTest build_schedule(const march::MarchTest& base,
                                const Candidate& candidate,
                                const std::string& name);

}  // namespace sramlp::search
