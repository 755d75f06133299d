#include "march/address_order.h"

#include "util/error.h"
#include "util/rng.h"

namespace sramlp::march {

namespace {

/// Kinds whose addresses at() computes from (rows, col_groups) alone.
bool is_computed(AddressOrderKind kind) {
  return kind == AddressOrderKind::kWordLineAfterWordLine ||
         kind == AddressOrderKind::kFastRow ||
         kind == AddressOrderKind::kAddressComplement;
}

}  // namespace

std::string to_string(AddressOrderKind kind) {
  switch (kind) {
    case AddressOrderKind::kWordLineAfterWordLine:
      return "word-line-after-word-line";
    case AddressOrderKind::kFastRow: return "fast-row";
    case AddressOrderKind::kPseudoRandom: return "pseudo-random";
    case AddressOrderKind::kAddressComplement: return "address-complement";
    case AddressOrderKind::kGrayCode: return "gray-code";
    case AddressOrderKind::kCustom: return "custom";
  }
  throw Error("invalid AddressOrderKind");
}

AddressOrder::AddressOrder(AddressOrderKind kind, std::size_t rows,
                           std::size_t col_groups, std::vector<Address> table)
    : kind_(kind), rows_(rows), col_groups_(col_groups),
      table_(std::move(table)) {
  SRAMLP_REQUIRE(rows_ >= 1 && col_groups_ >= 1, "empty address space");
  // Computed orders are permutations by construction.  Every table —
  // including the pseudo-random and Gray-code generators' own — keeps the
  // O(n) DOF-1 scan as a safety net.
  if (!is_computed(kind_)) validate_permutation();
}

void AddressOrder::validate_permutation() const {
  const std::size_t n = size();
  SRAMLP_REQUIRE(table_.size() == n,
                 "sequence length must equal rows * column groups");
  std::vector<bool> seen(n, false);
  for (const Address& a : table_) {
    SRAMLP_REQUIRE(a.row < rows_ && a.col < col_groups_,
                   "address outside the array");
    const std::size_t flat = a.row * col_groups_ + a.col;
    SRAMLP_REQUIRE(!seen[flat], "address visited twice (violates DOF-1)");
    seen[flat] = true;
  }
}

Address AddressOrder::at(std::size_t step, Direction direction) const {
  const std::size_t n = size();
  SRAMLP_REQUIRE(step < n, "step beyond sequence end");
  const std::size_t k = direction == Direction::kDown ? n - 1 - step : step;
  switch (kind_) {
    case AddressOrderKind::kWordLineAfterWordLine:
      return {k / col_groups_, k % col_groups_};
    case AddressOrderKind::kFastRow:
      return {k % rows_, k / rows_};
    case AddressOrderKind::kAddressComplement: {
      // i, N-1-i, i+1, N-2-i, ...: even steps climb from the low end, odd
      // steps descend from the high end; an odd N ends on the middle word.
      const std::size_t flat = k % 2 == 0 ? k / 2 : n - 1 - k / 2;
      return {flat / col_groups_, flat % col_groups_};
    }
    case AddressOrderKind::kPseudoRandom:
    case AddressOrderKind::kGrayCode:
    case AddressOrderKind::kCustom:
      return table_[k];
  }
  throw Error("invalid AddressOrderKind");
}

std::vector<Address> AddressOrder::sequence() const {
  std::vector<Address> seq;
  seq.reserve(size());
  for (std::size_t i = 0; i < size(); ++i)
    seq.push_back(at(i, Direction::kUp));
  return seq;
}

bool AddressOrder::is_word_line_after_word_line() const {
  // Factory-built WLAWL orders are tagged.  Any other order can still equal
  // it (a custom permutation, or fast-row over a single row), so scan; the
  // scan stops at the first differing address.
  if (kind_ == AddressOrderKind::kWordLineAfterWordLine) return true;
  for (std::size_t i = 0; i < size(); ++i) {
    const Address a = at(i, Direction::kUp);
    if (a.row != i / col_groups_ || a.col != i % col_groups_) return false;
  }
  return true;
}

AddressOrder AddressOrder::word_line_after_word_line(std::size_t rows,
                                                     std::size_t col_groups) {
  return AddressOrder(AddressOrderKind::kWordLineAfterWordLine, rows,
                      col_groups);
}

AddressOrder AddressOrder::fast_row(std::size_t rows, std::size_t col_groups) {
  return AddressOrder(AddressOrderKind::kFastRow, rows, col_groups);
}

AddressOrder AddressOrder::pseudo_random(std::size_t rows,
                                         std::size_t col_groups,
                                         std::uint64_t seed) {
  std::vector<Address> seq =
      word_line_after_word_line(rows, col_groups).sequence();
  util::Rng rng(seed);
  util::shuffle(seq, rng);
  return AddressOrder(AddressOrderKind::kPseudoRandom, rows, col_groups,
                      std::move(seq));
}

AddressOrder AddressOrder::address_complement(std::size_t rows,
                                              std::size_t col_groups) {
  return AddressOrder(AddressOrderKind::kAddressComplement, rows, col_groups);
}

AddressOrder AddressOrder::gray_code(std::size_t rows,
                                     std::size_t col_groups) {
  const std::size_t n = rows * col_groups;
  // Walk the reflected-Gray sequence of the next power of two and keep the
  // codes inside [0, n); a bijection filtered this way stays a permutation.
  std::size_t span = 1;
  while (span < n) span <<= 1;
  std::vector<Address> seq;
  seq.reserve(n);
  for (std::size_t i = 0; i < span; ++i) {
    const std::size_t gray = i ^ (i >> 1);
    if (gray < n) seq.push_back({gray / col_groups, gray % col_groups});
  }
  return AddressOrder(AddressOrderKind::kGrayCode, rows, col_groups,
                      std::move(seq));
}

AddressOrder AddressOrder::custom(std::size_t rows, std::size_t col_groups,
                                  std::vector<Address> sequence) {
  return AddressOrder(AddressOrderKind::kCustom, rows, col_groups,
                      std::move(sequence));
}

}  // namespace sramlp::march
