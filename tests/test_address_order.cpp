// Property tests for address orders (March DOF-1): every generator must
// produce a permutation of the address space, the down sequence must be the
// exact reverse of the up sequence, and only the word-line-after-word-line
// order qualifies for the low-power test mode.  The computed (never
// materialised) orders are also pinned, address for address and byte for
// byte once serialised, to the table-building generators they replaced.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/session.h"
#include "io/serialize.h"
#include "march/address_order.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace sramlp;
using march::Address;
using march::AddressOrder;
using march::AddressOrderKind;
using march::Direction;

using GeometryParam = std::tuple<std::size_t, std::size_t>;  // rows, cols

class AddressOrderProperty
    : public ::testing::TestWithParam<GeometryParam> {};

std::vector<AddressOrder> all_orders(std::size_t rows, std::size_t cols) {
  std::vector<AddressOrder> orders;
  orders.push_back(AddressOrder::word_line_after_word_line(rows, cols));
  orders.push_back(AddressOrder::fast_row(rows, cols));
  orders.push_back(AddressOrder::pseudo_random(rows, cols, 123));
  orders.push_back(AddressOrder::address_complement(rows, cols));
  orders.push_back(AddressOrder::gray_code(rows, cols));
  return orders;
}

// DOF-1's requirement: "all addresses occur exactly once".
TEST_P(AddressOrderProperty, EveryGeneratorIsAPermutation) {
  const auto [rows, cols] = GetParam();
  for (const auto& order : all_orders(rows, cols)) {
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (const Address& a : order.sequence()) {
      EXPECT_LT(a.row, rows);
      EXPECT_LT(a.col, cols);
      seen.insert({a.row, a.col});
    }
    EXPECT_EQ(seen.size(), rows * cols) << to_string(order.kind());
  }
}

// The paper: "(down) is the reverse of (up)".
TEST_P(AddressOrderProperty, DownIsExactReverseOfUp) {
  const auto [rows, cols] = GetParam();
  for (const auto& order : all_orders(rows, cols)) {
    const std::size_t n = order.size();
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(order.at(i, Direction::kDown),
                order.at(n - 1 - i, Direction::kUp))
          << to_string(order.kind());
  }
}

TEST_P(AddressOrderProperty, OnlyWlawlSequencesQualifyForLpMode) {
  const auto [rows, cols] = GetParam();
  const auto canonical =
      AddressOrder::word_line_after_word_line(rows, cols).sequence();
  for (const auto& order : all_orders(rows, cols)) {
    // Degenerate geometries can make other generators coincide with the
    // canonical order (e.g. fast-row with a single row), so the property
    // is about the sequence, not the generator kind.
    const bool expected = order.sequence() == canonical;
    EXPECT_EQ(order.is_word_line_after_word_line(), expected)
        << to_string(order.kind());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AddressOrderProperty,
    ::testing::Values(GeometryParam{1, 2}, GeometryParam{2, 2},
                      GeometryParam{4, 8}, GeometryParam{8, 4},
                      GeometryParam{16, 16}, GeometryParam{5, 7},
                      GeometryParam{3, 32}));

TEST(AddressOrder, WlawlVisitsRowsInOrder) {
  const auto order = AddressOrder::word_line_after_word_line(3, 4);
  const auto& seq = order.sequence();
  ASSERT_EQ(seq.size(), 12u);
  EXPECT_EQ(seq[0], (Address{0, 0}));
  EXPECT_EQ(seq[3], (Address{0, 3}));
  EXPECT_EQ(seq[4], (Address{1, 0}));   // next word line
  EXPECT_EQ(seq[11], (Address{2, 3}));
}

TEST(AddressOrder, FastRowVisitsColumnsSlowest) {
  const auto order = AddressOrder::fast_row(3, 4);
  const auto& seq = order.sequence();
  EXPECT_EQ(seq[0], (Address{0, 0}));
  EXPECT_EQ(seq[1], (Address{1, 0}));
  EXPECT_EQ(seq[3], (Address{0, 1}));
}

TEST(AddressOrder, AddressComplementAlternatesEnds) {
  const auto order = AddressOrder::address_complement(2, 3);
  const auto& seq = order.sequence();
  EXPECT_EQ(seq[0], (Address{0, 0}));
  EXPECT_EQ(seq[1], (Address{1, 2}));  // complement of the first address
  EXPECT_EQ(seq[2], (Address{0, 1}));
}

TEST(AddressOrder, PseudoRandomIsSeedDeterministic) {
  const auto a = AddressOrder::pseudo_random(8, 8, 42);
  const auto b = AddressOrder::pseudo_random(8, 8, 42);
  const auto c = AddressOrder::pseudo_random(8, 8, 43);
  EXPECT_EQ(a.sequence(), b.sequence());
  EXPECT_NE(a.sequence(), c.sequence());
}

TEST(AddressOrder, CustomValidatesPermutation) {
  EXPECT_NO_THROW(AddressOrder::custom(
      1, 2, {Address{0, 1}, Address{0, 0}}));
  // Duplicate address.
  EXPECT_THROW(
      AddressOrder::custom(1, 2, {Address{0, 0}, Address{0, 0}}), Error);
  // Wrong length.
  EXPECT_THROW(AddressOrder::custom(1, 2, {Address{0, 0}}), Error);
  // Out of range.
  EXPECT_THROW(
      AddressOrder::custom(1, 2, {Address{0, 0}, Address{1, 0}}), Error);
}

TEST(AddressOrder, AtRejectsOutOfRangeStep) {
  const auto order = AddressOrder::word_line_after_word_line(2, 2);
  EXPECT_THROW(order.at(4, Direction::kUp), Error);
}

// --- computed orders vs the materialising generators ------------------------

// The generators as they stood when every order was materialised, frozen
// verbatim: the computed orders must reproduce them address for address.
namespace reference {

std::vector<Address> word_line_after_word_line(std::size_t rows,
                                               std::size_t col_groups) {
  std::vector<Address> seq;
  seq.reserve(rows * col_groups);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < col_groups; ++c) seq.push_back({r, c});
  return seq;
}

std::vector<Address> fast_row(std::size_t rows, std::size_t col_groups) {
  std::vector<Address> seq;
  seq.reserve(rows * col_groups);
  for (std::size_t c = 0; c < col_groups; ++c)
    for (std::size_t r = 0; r < rows; ++r) seq.push_back({r, c});
  return seq;
}

std::vector<Address> pseudo_random(std::size_t rows, std::size_t col_groups,
                                   std::uint64_t seed) {
  std::vector<Address> seq = word_line_after_word_line(rows, col_groups);
  util::Rng rng(seed);
  util::shuffle(seq, rng);
  return seq;
}

std::vector<Address> address_complement(std::size_t rows,
                                         std::size_t col_groups) {
  const std::size_t n = rows * col_groups;
  std::vector<Address> seq;
  seq.reserve(n);
  const auto to_address = [col_groups](std::size_t flat) {
    return Address{flat / col_groups, flat % col_groups};
  };
  for (std::size_t i = 0; i < n / 2; ++i) {
    seq.push_back(to_address(i));
    seq.push_back(to_address(n - 1 - i));
  }
  if (n % 2 == 1) seq.push_back(to_address(n / 2));
  return seq;
}

std::vector<Address> gray_code(std::size_t rows, std::size_t col_groups) {
  const std::size_t n = rows * col_groups;
  std::size_t span = 1;
  while (span < n) span <<= 1;
  std::vector<Address> seq;
  seq.reserve(n);
  for (std::size_t i = 0; i < span; ++i) {
    const std::size_t gray = i ^ (i >> 1);
    if (gray < n) seq.push_back({gray / col_groups, gray % col_groups});
  }
  return seq;
}

}  // namespace reference

class ComputedOrderParity : public ::testing::TestWithParam<GeometryParam> {};

TEST_P(ComputedOrderParity, EveryKindMatchesTheMaterialisingGenerator) {
  const auto [rows, cols] = GetParam();
  const std::vector<std::pair<AddressOrder, std::vector<Address>>> cases = {
      {AddressOrder::word_line_after_word_line(rows, cols),
       reference::word_line_after_word_line(rows, cols)},
      {AddressOrder::fast_row(rows, cols), reference::fast_row(rows, cols)},
      {AddressOrder::pseudo_random(rows, cols, 2006),
       reference::pseudo_random(rows, cols, 2006)},
      {AddressOrder::address_complement(rows, cols),
       reference::address_complement(rows, cols)},
      {AddressOrder::gray_code(rows, cols), reference::gray_code(rows, cols)},
      {AddressOrder::custom(rows, cols, reference::gray_code(rows, cols)),
       reference::gray_code(rows, cols)},
  };
  for (const auto& [order, expected] : cases) {
    const std::size_t n = expected.size();
    ASSERT_EQ(order.size(), n) << to_string(order.kind());
    EXPECT_EQ(order.sequence(), expected) << to_string(order.kind());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(order.at(i, Direction::kUp), expected[i])
          << to_string(order.kind()) << " step " << i;
      EXPECT_EQ(order.at(i, Direction::kEither), expected[i])
          << to_string(order.kind()) << " step " << i;
      EXPECT_EQ(order.at(i, Direction::kDown), expected[n - 1 - i])
          << to_string(order.kind()) << " step " << i;
    }
    EXPECT_THROW(order.at(n, Direction::kDown), Error);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ComputedOrderParity,
    ::testing::Values(GeometryParam{1, 1}, GeometryParam{1, 7},
                      GeometryParam{7, 1}, GeometryParam{33, 17},
                      GeometryParam{64, 64}));

TEST(AddressOrder, TableBackedOrdersStillRejectDof1Violations) {
  // A pseudo-random table fed back in (as deserialisation does) with one
  // address duplicated, then with one outside the array.
  std::vector<Address> seq = AddressOrder::pseudo_random(4, 4, 7).sequence();
  EXPECT_NO_THROW(AddressOrder::custom(4, 4, seq));
  std::vector<Address> duplicated = seq;
  duplicated[3] = duplicated[9];
  EXPECT_THROW(AddressOrder::custom(4, 4, duplicated), Error);
  std::vector<Address> outside = seq;
  outside[5] = Address{4, 0};
  EXPECT_THROW(AddressOrder::custom(4, 4, outside), Error);
  outside[5] = Address{0, 4};
  EXPECT_THROW(AddressOrder::custom(4, 4, outside), Error);
  // Every factory still refuses an empty address space.
  EXPECT_THROW(AddressOrder::word_line_after_word_line(0, 4), Error);
  EXPECT_THROW(AddressOrder::fast_row(4, 0), Error);
  EXPECT_THROW(AddressOrder::address_complement(0, 0), Error);
  EXPECT_THROW(AddressOrder::pseudo_random(0, 4, 1), Error);
}

TEST(AddressOrder, SessionConfigWithComputedOrderSerialisesUnchanged) {
  // The bytes io::to_json wrote when the fast-row order was a table.
  core::SessionConfig config;
  config.geometry = {2, 3, 1};
  config.order = AddressOrder::fast_row(2, 3);
  EXPECT_EQ(io::to_json(config).at("order").dump(),
            "{\"kind\":\"fast-row\",\"rows\":2,\"col_groups\":3,"
            "\"sequence\":[[0,0],[1,0],[0,1],[1,1],[0,2],[1,2]]}");

  // And on a larger, odd-sized array: the whole document, against the
  // order section rebuilt from the frozen generator.
  config.geometry = {33, 17, 1};
  config.order = AddressOrder::fast_row(33, 17);
  io::JsonValue expected = io::to_json(config);
  io::JsonValue order = io::JsonValue::object();
  order.set("kind", io::JsonValue::string("fast-row"));
  order.set("rows", io::JsonValue::integer(33));
  order.set("col_groups", io::JsonValue::integer(17));
  io::JsonValue sequence = io::JsonValue::array();
  for (const Address& a : reference::fast_row(33, 17)) {
    io::JsonValue addr = io::JsonValue::array();
    addr.push_back(io::JsonValue::integer(a.row));
    addr.push_back(io::JsonValue::integer(a.col));
    sequence.push_back(std::move(addr));
  }
  order.set("sequence", std::move(sequence));
  expected.set("order", std::move(order));
  EXPECT_EQ(io::to_json(config).dump(), expected.dump());
}

TEST(AddressOrder, KindNamesAreUnique) {
  std::set<std::string> names;
  for (auto kind : {AddressOrderKind::kWordLineAfterWordLine,
                    AddressOrderKind::kFastRow, AddressOrderKind::kPseudoRandom,
                    AddressOrderKind::kAddressComplement,
                    AddressOrderKind::kGrayCode, AddressOrderKind::kCustom})
    names.insert(march::to_string(kind));
  EXPECT_EQ(names.size(), 6u);
}

}  // namespace
