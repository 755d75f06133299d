// Address sequences — Degree Of Freedom 1 of March tests.
//
// "Any arbitrary address sequence can be defined as an up sequence, as long
//  as all addresses occur exactly once" (paper §3).  The low-power test mode
// requires the specific word-line-after-word-line order (all columns of row
// 0, then all columns of row 1, ...); any other order must fall back to
// functional mode.  The other generators exist to demonstrate that fault
// coverage is order-independent while the power saving is not.
//
// Addresses are (row, column-group) pairs; for bit-oriented memories the
// column group is simply the column.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "march/test.h"

namespace sramlp::march {

/// One word address inside the array.
struct Address {
  std::size_t row = 0;
  std::size_t col = 0;  ///< column group index (column when word width = 1)

  friend bool operator==(const Address&, const Address&) = default;
};

/// Built-in sequence families.
enum class AddressOrderKind {
  kWordLineAfterWordLine,  ///< row-major, column fastest (LP-mode order)
  kFastRow,                ///< column-major, row fastest
  kPseudoRandom,           ///< seeded shuffle (functional-mode-like)
  kAddressComplement,      ///< i, N-1-i, i+1, N-2-i, ...
  kGrayCode,               ///< reflected-Gray sequence over the flat index
  kCustom,                 ///< user-supplied permutation
};

std::string to_string(AddressOrderKind kind);

/// A concrete "up" sequence over all rows x column-groups.  The "down"
/// sequence of the same order is its exact reverse (paper §3).
///
/// Word-line-after-word-line, fast-row and address-complement orders are
/// pure functions of (rows, col_groups): at() computes their addresses in
/// O(1) and nothing is materialised, so building one costs O(1) at any
/// array size.  Gray-code (a filtered walk, not O(1)), pseudo-random and
/// custom orders keep an address table, validated once against DOF-1.
class AddressOrder {
 public:
  static AddressOrder word_line_after_word_line(std::size_t rows,
                                                std::size_t col_groups);
  static AddressOrder fast_row(std::size_t rows, std::size_t col_groups);
  static AddressOrder pseudo_random(std::size_t rows, std::size_t col_groups,
                                    std::uint64_t seed);
  static AddressOrder address_complement(std::size_t rows,
                                         std::size_t col_groups);
  static AddressOrder gray_code(std::size_t rows, std::size_t col_groups);
  /// @param sequence must visit every address exactly once (validated).
  static AddressOrder custom(std::size_t rows, std::size_t col_groups,
                             std::vector<Address> sequence);

  AddressOrderKind kind() const { return kind_; }
  std::size_t rows() const { return rows_; }
  std::size_t col_groups() const { return col_groups_; }
  std::size_t size() const { return rows_ * col_groups_; }

  /// The up sequence, materialised from at(): O(size) time and memory, for
  /// serialisation and tests rather than hot loops.
  std::vector<Address> sequence() const;

  /// Address at @p step walking the sequence in @p direction
  /// (kEither walks ascending).
  Address at(std::size_t step, Direction direction) const;

  /// True when the sequence equals the word-line-after-word-line order —
  /// the precondition of the low-power test mode.
  bool is_word_line_after_word_line() const;

 private:
  AddressOrder(AddressOrderKind kind, std::size_t rows,
               std::size_t col_groups, std::vector<Address> table = {});

  /// DOF-1 requirement on a table: every address occurs exactly once.
  void validate_permutation() const;

  AddressOrderKind kind_;
  std::size_t rows_;
  std::size_t col_groups_;
  /// Up sequence of the table-backed kinds (Gray code, pseudo-random,
  /// custom); empty for the computed ones.
  std::vector<Address> table_;
};

}  // namespace sramlp::march
