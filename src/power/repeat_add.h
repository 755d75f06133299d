// Exact repeated floating-point addition.
//
// Every accumulator of the cycle simulator — meter totals, trace windows
// and element slots, the decay-stress equivalents in ArrayStats — is a
// chain of sequential IEEE-754 additions of a few per-event constants,
// and the column engines must agree on those chains to the bit: the
// per-column reference engine adds a constant once per column and cycle,
// the bitsliced engine adds it in bulk.  IEEE addition is not
// distributive (0.1 added ten times is 0.9999999999999999, 10 * 0.1 is
// 1.0), so a bulk add must not be a multiplication.  repeat_add returns
// the bits of the sequential additions without performing them one by
// one:
//
//   While the accumulator stays inside one binade [2^p, 2^(p+1)), every
//   representable value there is an integer multiple of ulp = 2^(p-52),
//   so acc + e rounds to acc + round(e / ulp) * ulp.  The increment
//   depends on the accumulator only when e / ulp is a half-integer (a
//   tie rounds to the even neighbour), and then only through its last
//   significand bit.  Repeating a pattern k times therefore advances the
//   integer significand by a closed-form amount, as long as the result
//   stays inside the binade.  The period that crosses into the next
//   binade runs term by term.  Zero and subnormal accumulators share the
//   binade [0, 2^-1021), where every value is a multiple of 2^-1074.
//
// The cost is O(binades crossed x pattern terms), not O(additions).  A
// chain short enough, or crossing enough binades, that stepping costs
// more than adding (one from an accumulator far below its increment)
// runs as the plain loop, and so does a negative or non-finite
// accumulator or term.  Pinned against the plain
// loop on generated cases by test_power.cpp.
#pragma once

#include <cstdint>
#include <span>

namespace sramlp::power {

/// @p count sequential additions of @p value.
struct AddTerm {
  double value = 0.0;
  std::uint64_t count = 0;
};

/// The bits of @p periods repetitions of @p pattern added to @p acc in
/// order: for each period, for each term, term.count additions of
/// term.value.
double repeat_add(double acc, std::span<const AddTerm> pattern,
                  std::uint64_t periods);

/// About how many dependent additions one closed-form step costs.  A
/// step (splitting the accumulator, one increment per term, the period
/// arithmetic) takes ~15-30 ns and a dependent addition ~0.8 ns on a
/// 2 GHz Xeon; each binade crossed costs one more step.  A chain of at
/// most kStepAdds additions loops (inline for one value).  A longer one
/// takes one step inside its binade; if it leaves the binade, the rest
/// loops when its additions are at most kStepAdds per binade it would
/// still visit, plus each crossing period's own additions.
inline constexpr std::uint64_t kStepAdds = 32;

/// The bits of @p count sequential additions of @p value to @p acc.
inline double repeat_add(double acc, double value, std::uint64_t count) {
  if (count <= kStepAdds) {
    for (std::uint64_t i = 0; i < count; ++i) acc += value;
    return acc;
  }
  const AddTerm once{value, 1};
  return repeat_add(acc, std::span<const AddTerm>(&once, 1), count);
}

}  // namespace sramlp::power
