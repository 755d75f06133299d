#include "power/repeat_add.h"

#include <algorithm>
#include <bit>

namespace sramlp::power {

namespace {

/// Significands of one binade lie in [0, 2^53); reaching 2^53 leaves it.
constexpr std::uint64_t kSignificandEnd = std::uint64_t{1} << 53;

double add_loop(double acc, std::span<const AddTerm> pattern,
                std::uint64_t periods) {
  if (pattern.size() == 1) {  // one flat chain, not three nested loops
    const double value = pattern[0].value;
    const std::uint64_t adds = pattern[0].count * periods;
    for (std::uint64_t i = 0; i < adds; ++i) acc += value;
    return acc;
  }
  for (std::uint64_t k = 0; k < periods; ++k)
    for (const AddTerm& term : pattern)
      for (std::uint64_t i = 0; i < term.count; ++i) acc += term.value;
  return acc;
}

/// Sums and products of significand advances, saturated at
/// kSignificandEnd: any advance that large leaves the binade anyway.
std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  return std::min(a + b, kSignificandEnd);  // a, b <= 2^53: no wrap
}

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  std::uint64_t product = 0;
  if (__builtin_mul_overflow(a, b, &product)) return kSignificandEnd;
  return std::min(product, kSignificandEnd);
}

/// A finite non-negative double as significand * 2^exponent, in the
/// binade layout: normal values carry the implicit bit (significand in
/// [2^52, 2^53)); zero and subnormals share exponent -1074 with the
/// lowest normal binade.
struct Binade {
  std::uint64_t significand;
  int exponent;
};

/// False for negative (sign bit set), infinite and NaN values.
bool split(double v, Binade* out) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const auto field = static_cast<int>(bits >> 52);  // sign bit included
  if (field >= 0x7FF) return false;                 // negative, inf, NaN
  const std::uint64_t fraction = bits & (kSignificandEnd / 2 - 1);
  out->significand = field == 0 ? fraction : fraction | kSignificandEnd / 2;
  out->exponent = std::max(field, 1) - 1075;
  return true;
}

/// The double significand * 2^exponent for a significand below 2^53 in
/// the binade split() produced: the inverse of split().
double join(std::uint64_t significand, int exponent) {
  return std::bit_cast<double>(
      (static_cast<std::uint64_t>(exponent + 1074) << 52) + significand);
}

/// Significand increment of one addition of @p e in the binade whose ulp
/// is 2^@p u, by the parity of the accumulator's significand
/// (inc[0]: even, inc[1]: odd).  False when e cannot be stepped: it is
/// negative, non-finite, or too large to land in the same binade.
bool increments(double e, int u, std::uint64_t inc[2]) {
  Binade term;
  if (e == 0.0) {  // either zero leaves a non-negative accumulator as is
    inc[0] = inc[1] = 0;
    return true;
  }
  if (!split(e, &term)) return false;
  // e / ulp = term.significand * 2^shift.
  const int shift = term.exponent - u;
  if (shift >= 0) {
    if (shift >= 53 || term.significand >= (kSignificandEnd >> shift))
      return false;
    inc[0] = inc[1] = term.significand << shift;
    return true;
  }
  if (shift <= -55) {  // below a quarter ulp
    inc[0] = inc[1] = 0;
    return true;
  }
  const unsigned right = static_cast<unsigned>(-shift);
  const std::uint64_t n = term.significand >> right;
  const std::uint64_t rest =
      term.significand & ((std::uint64_t{1} << right) - 1);
  const std::uint64_t half = std::uint64_t{1} << (right - 1);
  if (rest != half) {
    inc[0] = inc[1] = n + (rest > half ? 1 : 0);
  } else {
    // A tie: M + n + 1/2 rounds to whichever of M + n, M + n + 1 is even.
    inc[0] = n + (n & 1);
    inc[1] = n + (~n & 1);
  }
  return true;
}

/// The binade index of a finite non-negative value (zero and subnormals
/// share the lowest one, as in split()); kNoBinade for negative,
/// infinite and NaN values.
constexpr int kNoBinade = 0x7FF;
int binade_of(double v) {
  const auto field = static_cast<int>(std::bit_cast<std::uint64_t>(v) >> 52);
  return field >= 0x7FF ? kNoBinade : std::max(field, 1);
}

/// Whether the plain loop costs less than stepping binade by binade
/// through the remaining @p periods from @p acc (which has left the
/// binade it started in).  Stepping costs about kStepAdds additions per
/// binade the chain visits, plus the additions of the period that
/// crosses each boundary; an accumulator below one period's sum crosses
/// once more to reach it.
bool loop_is_cheaper(double acc, std::span<const AddTerm> pattern,
                     std::uint64_t periods, std::uint64_t period_adds) {
  double period_sum = 0.0;
  for (const AddTerm& term : pattern)
    period_sum += term.value * static_cast<double>(term.count);
  const double end = acc + period_sum * static_cast<double>(periods);
  const int from = binade_of(std::max(acc, period_sum));
  const int to = binade_of(end);
  if (from == kNoBinade || to == kNoBinade) return true;  // overflow
  const auto crossings =
      static_cast<std::uint64_t>(to - from + (acc < period_sum ? 1 : 0));
  return sat_mul(period_adds, periods) <=
         sat_add(sat_mul(crossings + 1, kStepAdds),
                 sat_mul(crossings, period_adds));
}

/// Advance @p acc by as many whole periods (at most @p periods) as keep it
/// inside its binade, in closed form; returns the number advanced.
std::uint64_t advance_in_binade(double* acc, std::span<const AddTerm> pattern,
                                std::uint64_t periods) {
  Binade a;
  if (!split(*acc, &a)) return 0;
  const std::uint64_t m = a.significand;
  const int u = a.exponent;

  // One period's significand advance, and the parity it leaves, for each
  // parity the period can start from.
  std::uint64_t delta[2] = {0, 0};
  unsigned parity[2] = {0, 1};
  for (const AddTerm& term : pattern) {
    if (term.count == 0) continue;
    std::uint64_t inc[2];
    if (!increments(term.value, u, inc)) return 0;
    for (int s = 0; s < 2; ++s) {
      if (inc[0] == inc[1]) {
        delta[s] = sat_add(delta[s], sat_mul(term.count, inc[0]));
        parity[s] ^= static_cast<unsigned>(term.count & inc[0] & 1);
      } else {
        // The first tie depends on the parity; it leaves the significand
        // even, so every later one adds the even-parity increment.
        delta[s] = sat_add(delta[s],
                           sat_add(inc[parity[s]],
                                   sat_mul(term.count - 1, inc[0])));
        parity[s] = 0;
      }
    }
  }

  // Periods advance by d0, d1, d1, ... — or alternate d0, d1, d0, ... when
  // the parity flips back every period.
  const std::uint64_t room = kSignificandEnd - 1 - m;
  const unsigned s0 = static_cast<unsigned>(m & 1);
  const std::uint64_t d0 = delta[s0];
  const unsigned s1 = parity[s0];
  const std::uint64_t d1 = delta[s1];
  std::uint64_t k = 0;
  std::uint64_t advance = 0;
  if (s1 != s0 && parity[s1] == s0) {
    const std::uint64_t pair = d0 + d1;
    const std::uint64_t pairs =
        pair == 0 ? periods / 2 : std::min(periods / 2, room / pair);
    k = 2 * pairs;
    advance = pairs * pair;
    if (k < periods && d0 <= room - advance) {
      ++k;
      advance += d0;
    }
  } else if (d0 <= room) {
    const std::uint64_t rest =
        d1 == 0 ? periods - 1 : std::min(periods - 1, (room - d0) / d1);
    k = 1 + rest;
    advance = d0 + rest * d1;
  }
  if (k != 0) *acc = join(m + advance, u);
  return k;
}

}  // namespace

double repeat_add(double acc, std::span<const AddTerm> pattern,
                  std::uint64_t periods) {
  std::uint64_t adds = 0;
  bool steppable = binade_of(acc) != kNoBinade;
  for (const AddTerm& term : pattern) {
    adds = sat_add(adds, term.count);
    steppable = steppable && binade_of(term.value) != kNoBinade;
  }
  if (!steppable || sat_mul(adds, periods) <= kStepAdds)
    return add_loop(acc, pattern, periods);
  while (periods > 0) {
    // Most chains stay inside their binade: one step, nothing to weigh.
    periods -= advance_in_binade(&acc, pattern, periods);
    if (periods == 0) break;
    if (loop_is_cheaper(acc, pattern, periods, adds))
      return add_loop(acc, pattern, periods);
    // This period leaves the binade: term by term.
    for (const AddTerm& term : pattern)
      acc = repeat_add(acc, term.value, term.count);
    --periods;
  }
  return acc;
}

}  // namespace sramlp::power
