#include "sram/cell_array.h"

#include <algorithm>
#include <bit>

#include "sram/bits.h"

namespace sramlp::sram {

CellArray::CellArray(const Geometry& geometry, bool fill_value)
    : geometry_(geometry) {
  geometry_.validate();
  words_.assign((geometry_.cells() + 63) / 64, 0);
  if (fill_value) fill(true);
}

std::uint64_t CellArray::row_bits(std::size_t row, std::size_t col,
                                  std::size_t count) const {
  check(row, col);
  SRAMLP_REQUIRE(count >= 1 && count <= 64 && col + count <= geometry_.cols,
                 "row slice outside the array or wider than one word");
  const std::size_t flat = row * geometry_.cols + col;
  const std::size_t word = flat >> 6;
  const std::size_t off = flat & 63;
  std::uint64_t bits = words_[word] >> off;
  if (off + count > 64) bits |= words_[word + 1] << (64 - off);
  return bits & low_bit_mask(count);
}

void CellArray::set_row_bits(std::size_t row, std::size_t col,
                             std::size_t count, std::uint64_t bits) {
  check(row, col);
  SRAMLP_REQUIRE(count >= 1 && count <= 64 && col + count <= geometry_.cols,
                 "row slice outside the array or wider than one word");
  bits &= low_bit_mask(count);
  const std::size_t flat = row * geometry_.cols + col;
  const std::size_t word = flat >> 6;
  const std::size_t off = flat & 63;
  words_[word] = (words_[word] & ~(low_bit_mask(count) << off)) | (bits << off);
  if (off + count > 64) {
    const std::size_t spill = off + count - 64;
    const std::uint64_t spill_mask = low_bit_mask(spill);
    words_[word + 1] = (words_[word + 1] & ~spill_mask) |
                       ((bits >> (64 - off)) & spill_mask);
  }
}

std::uint32_t CellArray::copy_row_bits(std::size_t dst_row,
                                       std::size_t src_row, std::size_t col,
                                       std::size_t count) {
  const std::uint64_t src = row_bits(src_row, col, count);
  const std::uint64_t dst = row_bits(dst_row, col, count);
  const std::uint64_t flips = src ^ dst;
  if (flips != 0) set_row_bits(dst_row, col, count, src);
  return static_cast<std::uint32_t>(std::popcount(flips));
}

std::uint32_t CellArray::copy_row_range(std::size_t dst_row,
                                        std::size_t src_row, std::size_t col,
                                        std::size_t count) {
  check(dst_row, col);
  check(src_row, col);
  SRAMLP_REQUIRE(count >= 1 && col + count <= geometry_.cols,
                 "row slice outside the array");
  const std::size_t src_flat = src_row * geometry_.cols + col;
  const std::size_t dst_flat = dst_row * geometry_.cols + col;
  if ((src_flat & 63) != (dst_flat & 63)) {
    // Misaligned rows (cols not a multiple of 64): 64-bit chunks.
    std::uint32_t flips = 0;
    for (std::size_t c = col; c < col + count; c += 64)
      flips += copy_row_bits(dst_row, src_row, c,
                             std::min<std::size_t>(64, col + count - c));
    return flips;
  }
  // Aligned word streams.  The two slices never share a storage word:
  // their flat distance is |dst-src| * cols >= cols >= count, and equal
  // offsets make the word grids line up.
  const std::size_t off = dst_flat & 63;
  std::size_t sw = src_flat >> 6;
  std::size_t dw = dst_flat >> 6;
  std::size_t left = count;
  std::uint64_t flips = 0;
  if (off != 0) {
    const std::size_t n = std::min<std::size_t>(64 - off, left);
    const std::uint64_t mask = low_bit_mask(n) << off;
    const std::uint64_t diff = (words_[sw] ^ words_[dw]) & mask;
    flips += static_cast<std::uint64_t>(std::popcount(diff));
    words_[dw] ^= diff;
    left -= n;
    ++sw;
    ++dw;
  }
  for (std::size_t full = left >> 6; full != 0; --full, ++sw, ++dw) {
    flips += static_cast<std::uint64_t>(std::popcount(words_[sw] ^ words_[dw]));
    words_[dw] = words_[sw];
  }
  left &= 63;
  if (left != 0) {
    const std::uint64_t diff = (words_[sw] ^ words_[dw]) & low_bit_mask(left);
    flips += static_cast<std::uint64_t>(std::popcount(diff));
    words_[dw] ^= diff;
  }
  return static_cast<std::uint32_t>(flips);
}

bool CellArray::row_matches_pattern(std::size_t row, std::size_t col,
                                    std::size_t count,
                                    std::uint64_t pattern) const {
  check(row, col);
  SRAMLP_REQUIRE(count >= 1 && col + count <= geometry_.cols,
                 "row slice outside the array");
  const std::size_t flat = row * geometry_.cols + col;
  std::size_t word = flat >> 6;
  const std::size_t off = flat & 63;
  // The expected stream is 64-periodic from the slice start, so every
  // storage word it fully covers equals pattern rotated to the slice's
  // word alignment.
  const std::uint64_t expect = std::rotl(pattern, static_cast<int>(off));
  std::size_t left = count;
  if (off != 0) {
    const std::size_t n = std::min<std::size_t>(64 - off, left);
    if (((words_[word] ^ expect) & (low_bit_mask(n) << off)) != 0)
      return false;
    left -= n;
    ++word;
  }
  for (std::size_t full = left >> 6; full != 0; --full, ++word)
    if (words_[word] != expect) return false;
  left &= 63;
  if (left != 0 && ((words_[word] ^ expect) & low_bit_mask(left)) != 0)
    return false;
  return true;
}

void CellArray::fill_row_pattern(std::size_t row, std::size_t col,
                                 std::size_t count, std::uint64_t pattern) {
  check(row, col);
  SRAMLP_REQUIRE(count >= 1 && col + count <= geometry_.cols,
                 "row slice outside the array");
  const std::size_t flat = row * geometry_.cols + col;
  std::size_t word = flat >> 6;
  const std::size_t off = flat & 63;
  const std::uint64_t expect = std::rotl(pattern, static_cast<int>(off));
  std::size_t left = count;
  if (off != 0) {
    const std::size_t n = std::min<std::size_t>(64 - off, left);
    const std::uint64_t mask = low_bit_mask(n) << off;
    words_[word] = (words_[word] & ~mask) | (expect & mask);
    left -= n;
    ++word;
  }
  const std::size_t full = left >> 6;
  std::fill_n(words_.begin() + static_cast<std::ptrdiff_t>(word), full,
              expect);
  word += full;
  left &= 63;
  if (left != 0) {
    const std::uint64_t mask = low_bit_mask(left);
    words_[word] = (words_[word] & ~mask) | (expect & mask);
  }
}

void CellArray::fill(bool value) {
  const std::uint64_t pattern = value ? ~std::uint64_t{0} : 0;
  for (auto& w : words_) w = pattern;
  if (value) {
    // Clear the bits beyond the last cell so popcount stays exact.
    const std::size_t used = geometry_.cells() & 63;
    if (used != 0) words_.back() &= (std::uint64_t{1} << used) - 1;
  }
}

std::size_t CellArray::popcount() const {
  std::size_t ones = 0;
  for (const std::uint64_t w : words_)
    ones += static_cast<std::size_t>(std::popcount(w));
  return ones;
}

bool CellArray::uniform(bool value) const {
  const std::size_t ones = popcount();
  return value ? ones == geometry_.cells() : ones == 0;
}

}  // namespace sramlp::sram
