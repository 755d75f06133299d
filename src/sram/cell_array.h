// Packed bit storage for the cell matrix.
//
// Cells are stored 64 per uint64_t word in row-major flat order, so besides
// the checked per-cell accessors the array exposes word-parallel primitives
// over up-to-64-column row slices: gather (row_bits), scatter
// (set_row_bits) and compare-and-copy (copy_row_bits).  The bitsliced
// SramArray fast path uses them for whole-word March writes, read-compare
// fault detection and the faulty-swap overpowering check, replacing
// per-cell loops with one or two word operations.
#pragma once

#include <cstdint>
#include <vector>

#include "sram/geometry.h"

namespace sramlp::sram {

/// rows x cols bit matrix with 64-cell packing.
class CellArray {
 public:
  explicit CellArray(const Geometry& geometry, bool fill = false);

  const Geometry& geometry() const { return geometry_; }

  bool get(std::size_t row, std::size_t col) const {
    check(row, col);
    return get_unchecked(row, col);
  }

  void set(std::size_t row, std::size_t col, bool value) {
    check(row, col);
    set_unchecked(row, col, value);
  }

  /// Unchecked accessors for validated hot paths (the cycle simulator
  /// bounds-checks the command once per cycle, not once per cell).
  bool get_unchecked(std::size_t row, std::size_t col) const {
    const std::size_t flat = row * geometry_.cols + col;
    return (words_[flat >> 6] >> (flat & 63)) & 1u;
  }

  void set_unchecked(std::size_t row, std::size_t col, bool value) {
    const std::size_t flat = row * geometry_.cols + col;
    const std::uint64_t mask = std::uint64_t{1} << (flat & 63);
    if (value)
      words_[flat >> 6] |= mask;
    else
      words_[flat >> 6] &= ~mask;
  }

  /// Gather @p count cells (1..64) of one row starting at @p col into the
  /// low bits of a word (bit b = cell at col + b).  Rows are packed flat,
  /// so the slice may straddle one word boundary.
  std::uint64_t row_bits(std::size_t row, std::size_t col,
                         std::size_t count) const;

  /// Scatter the low @p count bits of @p bits into one row at @p col.
  void set_row_bits(std::size_t row, std::size_t col, std::size_t count,
                    std::uint64_t bits);

  /// Overwrite @p count cells of @p dst_row at @p col with the matching
  /// cells of @p src_row; returns how many cells changed value.  This is
  /// the word-parallel core of the faulty-swap check: a discharged
  /// bit-line pair imposes the driving row's value on the newly connected
  /// row, flipping exactly the cells whose stored bit differs.
  std::uint32_t copy_row_bits(std::size_t dst_row, std::size_t src_row,
                              std::size_t col, std::size_t count);

  /// copy_row_bits over an arbitrarily wide slice (any @p count): when the
  /// two rows' word alignment matches, the interior runs word-at-a-time
  /// with an xor-popcount; otherwise it falls back to 64-bit chunks.
  /// Cell results are identical to chunked copy_row_bits either way.
  std::uint32_t copy_row_range(std::size_t dst_row, std::size_t src_row,
                               std::size_t col, std::size_t count);

  /// True when the @p count cells starting at (@p row, @p col) equal the
  /// 64-periodic bitstream whose bit at slice offset s is
  /// (pattern >> (s & 63)) & 1.  All March data backgrounds have column
  /// period 1 or 2, so a whole word group's expected physical data is one
  /// such stream; this is the word-parallel read-compare of the bitsliced
  /// engine's unhooked data path (one compare per interior word).
  bool row_matches_pattern(std::size_t row, std::size_t col,
                           std::size_t count, std::uint64_t pattern) const;

  /// Overwrite @p count cells starting at (@p row, @p col) with the same
  /// 64-periodic bitstream (word-parallel write of the unhooked path).
  void fill_row_pattern(std::size_t row, std::size_t col, std::size_t count,
                        std::uint64_t pattern);

  void fill(bool value);

  /// Number of cells currently holding 1.
  std::size_t popcount() const;

  /// True when every cell equals @p value.
  bool uniform(bool value) const;

 private:
  void check(std::size_t row, std::size_t col) const {
    SRAMLP_REQUIRE(row < geometry_.rows && col < geometry_.cols,
                   "cell coordinate outside the array");
  }

  Geometry geometry_;
  std::vector<std::uint64_t> words_;
};

}  // namespace sramlp::sram
