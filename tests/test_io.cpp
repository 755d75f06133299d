// The io/ layer: the self-contained JSON document model (emit + parse,
// exact number round-trips) and the domain-type serializers the
// distributed subsystem stands on.  The non-negotiable property throughout
// is bit-exactness: a double or uint64 surviving dump() -> parse() must
// come back identical to the bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "io/json.h"
#include "io/serialize.h"
#include "march/algorithms.h"
#include "power/report.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace sramlp;
using io::JsonValue;

// --- JsonValue basics --------------------------------------------------------

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(JsonValue::parse("null").kind(), JsonValue::Kind::kNull);
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_FALSE(JsonValue::parse("false").as_bool());
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(JsonValue::parse("42").as_uint(), 42u);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-1.5").as_double(), -1.5);
}

TEST(Json, ExactDoubleRoundTrip) {
  // Doubles that decimal shorthand mangles: 17 significant digits must
  // bring every one back bit-identical.
  const double values[] = {0.1,
                           1.0 / 3.0,
                           6.02214076e23,
                           3e-9 * 1.6 * 1.6,
                           -2.2250738585072014e-308,  // smallest normal
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           0.0};
  for (const double v : values) {
    const std::string text = JsonValue::number(v).dump();
    const double back = JsonValue::parse(text).as_double();
    EXPECT_EQ(std::signbit(back), std::signbit(v)) << text;
    EXPECT_EQ(back, v) << text;
  }
}

TEST(Json, ExactUint64RoundTrip) {
  // 2^53 + 1 is where the double lane starts lying; the unsigned lane must
  // carry it (and UINT64_MAX) untruncated.
  const std::uint64_t values[] = {0, 1, (1ull << 53) + 1,
                                  0xFFFFFFFFFFFFFFFFull};
  for (const std::uint64_t v : values) {
    const std::string text = JsonValue::integer(v).dump();
    EXPECT_EQ(JsonValue::parse(text).as_uint(), v) << text;
  }
  // A fractional number refuses the exact lane instead of truncating.
  EXPECT_THROW(JsonValue::parse("1.5").as_uint(), Error);
  EXPECT_THROW(JsonValue::parse("-3").as_uint(), Error);
}

// Number tokens are written with std::to_chars and read with
// std::from_chars.  The printf/strtod reference they replaced is kept
// here: over random bit patterns and over the magnitudes results carry,
// the bytes written and the values read must not move.
TEST(Json, NumberTokensMatchPrintfAndStrtod) {
  util::Rng rng(20061);
  std::vector<double> values = {0.0, -0.0, 5e-324, -5e-324,
                                2.2250738585072014e-308,
                                1.7976931348623157e308};
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    double random_bits = 0.0;
    std::memcpy(&random_bits, &bits, sizeof random_bits);
    if (std::isfinite(random_bits)) values.push_back(random_bits);
    values.push_back(
        rng.next_double() *
        std::pow(10.0, static_cast<double>(rng.next_below(40)) - 30.0));
  }
  for (const double v : values) {
    char expected[32];
    std::snprintf(expected, sizeof expected, "%.17g", v);
    const std::string text = JsonValue::number(v).dump();
    ASSERT_EQ(text, expected);
    const double back = JsonValue::parse(text).as_double();
    ASSERT_EQ(std::memcmp(&back, &v, sizeof v), 0) << text;
    ASSERT_EQ(back, std::strtod(expected, nullptr)) << text;
  }
  // Tokens from_chars refuses keep the strtod verdict.
  EXPECT_EQ(JsonValue::parse("+2.5").as_double(), 2.5);
  EXPECT_EQ(JsonValue::parse("1e-400").as_double(),
            std::strtod("1e-400", nullptr));
  EXPECT_EQ(JsonValue::parse("18446744073709551616").as_double(),
            18446744073709551616.0);
  EXPECT_THROW(JsonValue::parse("18446744073709551616").as_uint(), Error);
  EXPECT_EQ(JsonValue::parse("007").as_uint(), 7u);
  EXPECT_THROW(JsonValue::parse("1e"), Error);
  EXPECT_THROW(JsonValue::parse("1.2.3"), Error);
}

TEST(Json, RejectsNonFiniteNumbers) {
  EXPECT_THROW(JsonValue::number(std::numeric_limits<double>::infinity()),
               Error);
  EXPECT_THROW(JsonValue::number(std::nan("")), Error);
}

TEST(Json, StringEscapes) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  const std::string text = JsonValue::string(nasty).dump();
  EXPECT_EQ(JsonValue::parse(text).as_string(), nasty);
  EXPECT_EQ(JsonValue::parse("\"\\u0041\\u00e9\"").as_string(), "A\xC3\xA9");
}

TEST(Json, ObjectsPreserveInsertionOrderAndOverwrite) {
  JsonValue obj = JsonValue::object();
  obj.set("z", JsonValue::integer(1));
  obj.set("a", JsonValue::integer(2));
  obj.set("z", JsonValue::integer(3));  // overwrite keeps position
  EXPECT_EQ(obj.dump(), "{\"z\":3,\"a\":2}");
  EXPECT_EQ(obj.at("z").as_uint(), 3u);
  EXPECT_TRUE(obj.get("missing").is_null());
  EXPECT_THROW(obj.at("missing"), Error);
}

TEST(Json, NestedDocumentRoundTrip) {
  const std::string text =
      "{\"a\":[1,2,{\"b\":true}],\"c\":{\"d\":null,\"e\":[\"x\"]}}";
  const JsonValue v = JsonValue::parse(text);
  EXPECT_EQ(v.dump(), text);
  EXPECT_EQ(v.at("a").at(2).at("b").as_bool(), true);
  // Pretty-printed output parses back to the same document.
  EXPECT_EQ(JsonValue::parse(v.dump(2)).dump(), text);
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(JsonValue::parse(""), Error);
  EXPECT_THROW(JsonValue::parse("{"), Error);
  EXPECT_THROW(JsonValue::parse("[1,]"), Error);
  EXPECT_THROW(JsonValue::parse("{\"a\":1} trailing"), Error);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), Error);
  EXPECT_THROW(JsonValue::parse("nul"), Error);
  EXPECT_THROW(JsonValue::parse("1e999"), Error);
}

// Regression for a fuzz_json finding: the recursive-descent parser had no
// nesting cap, so a wire frame of a few thousand '[' bytes chose our
// stack depth and crashed the daemon.  Deep input must throw a normal
// parse Error; nesting up to the 64-level cap still parses.
TEST(Json, DeepNestingIsRejectedNotACrash) {
  EXPECT_THROW(JsonValue::parse(std::string(100000, '[')), Error);
  EXPECT_THROW(JsonValue::parse(std::string(100, '[') + "1" +
                                std::string(100, ']')),
               Error);
  EXPECT_THROW(JsonValue::parse(std::string(100, '{')), Error);

  // At the cap: 64 nested empty arrays are fine (real documents top out
  // around 6 levels), and round-trip byte-stably.
  std::string at_cap = std::string(64, '[') + std::string(64, ']');
  EXPECT_EQ(JsonValue::parse(at_cap).dump(), at_cap);
}

// --- domain serializers ------------------------------------------------------

TEST(Serialize, GeometryRoundTrip) {
  const sram::Geometry g{33, 48, 4};
  const sram::Geometry back =
      io::geometry_from_json(JsonValue::parse(io::to_json(g).dump()));
  EXPECT_EQ(back, g);
  // Parsed geometries are validated, not trusted.
  JsonValue bad = io::to_json(g);
  bad.set("word_width", JsonValue::integer(5));  // 48 % 5 != 0
  EXPECT_THROW(io::geometry_from_json(bad), Error);
}

TEST(Serialize, BackgroundRoundTrip) {
  for (const auto kind : sram::DataBackground::kinds()) {
    const sram::DataBackground b{kind};
    EXPECT_EQ(io::background_from_json(io::to_json(b)), b);
  }
  EXPECT_THROW(io::background_from_json(JsonValue::string("plaid")), Error);
}

TEST(Serialize, MarchTestStructuralRoundTrip) {
  // March G with delays exercises directions, multi-op elements and pauses.
  const auto test = march::algorithms::march_g_with_delays();
  const auto back =
      io::march_from_json(JsonValue::parse(io::to_json(test).dump()));
  EXPECT_EQ(back.name(), test.name());
  EXPECT_EQ(back.str(), test.str());
  ASSERT_EQ(back.elements().size(), test.elements().size());
  for (std::size_t i = 0; i < test.elements().size(); ++i) {
    EXPECT_EQ(back.elements()[i].direction, test.elements()[i].direction);
    EXPECT_EQ(back.elements()[i].ops, test.elements()[i].ops);
    EXPECT_EQ(back.elements()[i].pause_cycles,
              test.elements()[i].pause_cycles);
  }
}

TEST(Serialize, MarchTestByBareName) {
  JsonValue ref = JsonValue::object();
  ref.set("name", JsonValue::string("March C-"));
  const auto test = io::march_from_json(ref);
  EXPECT_EQ(test.str(), march::algorithms::march_c_minus().str());
  ref.set("name", JsonValue::string("March Nonesuch"));
  EXPECT_THROW(io::march_from_json(ref), Error);
}

TEST(Serialize, TechnologyRoundTripIsExact) {
  power::TechnologyParams tech;
  tech.vdd = 1.1;
  tech.c_bitline = 287.5e-15;
  tech.decay_tau_cycles = 2.7182818284590452;
  const auto back = io::technology_from_json(
      JsonValue::parse(io::to_json(tech).dump()));
  EXPECT_EQ(back.vdd, tech.vdd);
  EXPECT_EQ(back.c_bitline, tech.c_bitline);
  EXPECT_EQ(back.decay_tau_cycles, tech.decay_tau_cycles);
  EXPECT_EQ(back.e_clock_tree, tech.e_clock_tree);
}

TEST(Serialize, MeterRoundTripIsExact) {
  power::EnergyMeter meter;
  meter.add(power::EnergySource::kPrechargeResFight, 1.0 / 3.0);
  meter.add(power::EnergySource::kClockTree, 6e-12, 12345);
  meter.tick_cycles(999);
  const auto back =
      io::meter_from_json(JsonValue::parse(io::to_json(meter).dump()));
  EXPECT_EQ(back.cycles(), meter.cycles());
  for (std::size_t i = 0; i < power::kEnergySourceCount; ++i) {
    const auto source = static_cast<power::EnergySource>(i);
    EXPECT_EQ(back.total(source), meter.total(source))
        << power::to_string(source);
  }
  EXPECT_EQ(back.supply_total(), meter.supply_total());
}

TEST(Serialize, FaultSpecRoundTripAllKinds) {
  const auto library = faults::standard_fault_library({16, 16, 1}, 3);
  for (const auto& spec : library) {
    const auto back =
        io::fault_spec_from_json(JsonValue::parse(io::to_json(spec).dump()));
    EXPECT_EQ(back.kind, spec.kind);
    EXPECT_EQ(back.victim, spec.victim);
    if (faults::is_coupling(spec.kind)) {
      EXPECT_EQ(back.aggressor, spec.aggressor);
      EXPECT_EQ(back.aggressor_up, spec.aggressor_up);
      EXPECT_EQ(back.aggressor_state, spec.aggressor_state);
    }
    EXPECT_EQ(back.forced_value, spec.forced_value);
    EXPECT_EQ(back.res_threshold, spec.res_threshold);
    EXPECT_EQ(back.retention_idle_cycles, spec.retention_idle_cycles);
  }
}

TEST(Serialize, SessionConfigRoundTripDrivesIdenticalRuns) {
  core::SessionConfig config;
  config.geometry = {8, 32, 1};
  config.mode = sram::Mode::kLowPowerTest;
  config.background = sram::DataBackground::checkerboard();
  config.invert_background = true;
  config.wordline_duty = 0.375;
  config.tech.vdd = 1.45;
  const auto back = io::session_config_from_json(
      JsonValue::parse(io::to_json(config).dump()));
  // The proof that matters: both configs run to bit-identical results.
  const auto test = march::algorithms::march_c_minus();
  const auto a = core::TestSession::compare_modes(config, test);
  const auto b = core::TestSession::compare_modes(back, test);
  EXPECT_EQ(a.prr, b.prr);
  EXPECT_EQ(a.functional.supply_energy_j, b.functional.supply_energy_j);
  EXPECT_EQ(a.low_power.supply_energy_j, b.low_power.supply_energy_j);
  EXPECT_EQ(a.low_power.cycles, b.low_power.cycles);
}

TEST(Serialize, SessionConfigCustomOrderRoundTripsBySequence) {
  core::SessionConfig config;
  config.geometry = {4, 4, 1};
  config.order = march::AddressOrder::pseudo_random(4, 4, 99);
  const auto back = io::session_config_from_json(
      JsonValue::parse(io::to_json(config).dump()));
  ASSERT_TRUE(back.order.has_value());
  EXPECT_EQ(back.order->sequence(), config.order->sequence());
  // An unset order stays unset.
  config.order.reset();
  const auto bare = io::session_config_from_json(
      JsonValue::parse(io::to_json(config).dump()));
  EXPECT_FALSE(bare.order.has_value());
}

TEST(Serialize, SweepGridRoundTrip) {
  core::SweepGrid grid;
  grid.geometries = {{8, 16, 1}, {4, 32, 2}};
  grid.backgrounds = {sram::DataBackground::solid1(),
                      sram::DataBackground::column_stripes()};
  grid.algorithms = {march::algorithms::mats_plus(),
                     march::algorithms::march_g_with_delays()};
  grid.base.row_transition_restore = false;
  const auto back =
      io::sweep_grid_from_json(JsonValue::parse(io::to_json(grid).dump()));
  EXPECT_EQ(back.size(), grid.size());
  EXPECT_EQ(back.geometries, grid.geometries);
  EXPECT_EQ(back.backgrounds.size(), grid.backgrounds.size());
  EXPECT_EQ(back.algorithms[1].str(), grid.algorithms[1].str());
  EXPECT_FALSE(back.base.row_transition_restore);
}

TEST(Serialize, SessionResultAndPrrRoundTripExactly) {
  core::SessionConfig config;
  config.geometry = {8, 16, 1};
  faults::FaultSet set({faults::FaultSpec{
      .kind = faults::FaultKind::kStuckAt1, .victim = {2, 3}, .aggressor = {}}});
  const auto cmp = core::TestSession::compare_modes(
      config, march::algorithms::march_c_minus(), &set);
  const auto back = io::prr_comparison_from_json(
      JsonValue::parse(io::to_json(cmp).dump()));
  EXPECT_EQ(back.prr, cmp.prr);
  EXPECT_EQ(back.functional.algorithm, cmp.functional.algorithm);
  EXPECT_EQ(back.functional.mode, cmp.functional.mode);
  EXPECT_EQ(back.functional.cycles, cmp.functional.cycles);
  EXPECT_EQ(back.functional.supply_energy_j, cmp.functional.supply_energy_j);
  EXPECT_EQ(back.functional.mismatches, cmp.functional.mismatches);
  EXPECT_EQ(back.functional.stats.reads, cmp.functional.stats.reads);
  EXPECT_EQ(back.functional.stats.decay_stress_equiv_post_op,
            cmp.functional.stats.decay_stress_equiv_post_op);
  ASSERT_EQ(back.functional.first_detections.size(),
            cmp.functional.first_detections.size());
  for (std::size_t i = 0; i < cmp.functional.first_detections.size(); ++i) {
    EXPECT_EQ(back.functional.first_detections[i].row,
              cmp.functional.first_detections[i].row);
    EXPECT_EQ(back.functional.first_detections[i].col,
              cmp.functional.first_detections[i].col);
  }
  for (std::size_t s = 0; s < power::kEnergySourceCount; ++s) {
    const auto source = static_cast<power::EnergySource>(s);
    EXPECT_EQ(back.low_power.meter.total(source),
              cmp.low_power.meter.total(source));
  }
}

TEST(Serialize, TraceSummaryRoundTripIsExact) {
  core::SessionConfig config;
  config.geometry = {8, 16, 1};
  config.mode = sram::Mode::kLowPowerTest;
  config.trace = power::TraceConfig{.window_cycles = 16, .keep_windows = true};
  core::TestSession session(config);
  const auto result = session.run(march::algorithms::march_c_minus());
  ASSERT_TRUE(result.trace.has_value());
  const power::TraceSummary& trace = *result.trace;

  const auto back = io::trace_summary_from_json(
      JsonValue::parse(io::to_json(trace).dump()));
  EXPECT_EQ(back.window_cycles, trace.window_cycles);
  EXPECT_EQ(back.total_cycles, trace.total_cycles);
  EXPECT_EQ(back.windows, trace.windows);
  EXPECT_EQ(back.peak_window, trace.peak_window);
  EXPECT_EQ(back.peak_window_energy_j, trace.peak_window_energy_j);
  EXPECT_EQ(back.peak_power_w, trace.peak_power_w);
  EXPECT_EQ(back.supply_energy_j, trace.supply_energy_j);
  EXPECT_EQ(back.average_power_w, trace.average_power_w);
  ASSERT_EQ(back.elements.size(), trace.elements.size());
  for (std::size_t e = 0; e < trace.elements.size(); ++e) {
    EXPECT_EQ(back.elements[e].element, trace.elements[e].element);
    EXPECT_EQ(back.elements[e].start_cycle, trace.elements[e].start_cycle);
    EXPECT_EQ(back.elements[e].cycles, trace.elements[e].cycles);
    EXPECT_EQ(back.elements[e].supply_energy_j,
              trace.elements[e].supply_energy_j);
    EXPECT_EQ(back.elements[e].precharge_energy_j,
              trace.elements[e].precharge_energy_j);
  }
  EXPECT_EQ(back.window_supply_j, trace.window_supply_j);

  // The emitted document is byte-stable through a parse cycle — the
  // property the dist/ merge diff stands on.
  EXPECT_EQ(io::to_json(back).dump(),
            io::to_json(trace).dump());
}

TEST(Serialize, SessionResultCarriesTheTrace) {
  core::SessionConfig config;
  config.geometry = {4, 8, 1};
  config.trace = power::TraceConfig{.window_cycles = 8};
  core::TestSession session(config);
  const auto result = session.run(march::algorithms::mats_plus());
  ASSERT_TRUE(result.trace.has_value());
  const auto back = io::session_result_from_json(
      JsonValue::parse(io::to_json(result).dump()));
  ASSERT_TRUE(back.trace.has_value());
  EXPECT_EQ(back.trace->peak_window_energy_j,
            result.trace->peak_window_energy_j);
  EXPECT_EQ(io::to_json(back).dump(), io::to_json(result).dump());

  // An untraced result stays trace-free through the round trip.
  core::SessionConfig bare = config;
  bare.trace.reset();
  const auto untraced =
      core::TestSession(bare).run(march::algorithms::mats_plus());
  const auto untraced_back = io::session_result_from_json(
      JsonValue::parse(io::to_json(untraced).dump()));
  EXPECT_FALSE(untraced_back.trace.has_value());
}

TEST(Serialize, SessionConfigTraceRoundTrips) {
  core::SessionConfig config;
  config.geometry = {4, 8, 1};
  config.trace = power::TraceConfig{.window_cycles = 96, .keep_windows = true};
  const auto back = io::session_config_from_json(
      JsonValue::parse(io::to_json(config).dump()));
  ASSERT_TRUE(back.trace.has_value());
  EXPECT_EQ(back.trace->window_cycles, 96u);
  EXPECT_TRUE(back.trace->keep_windows);
  config.trace.reset();
  const auto bare = io::session_config_from_json(
      JsonValue::parse(io::to_json(config).dump()));
  EXPECT_FALSE(bare.trace.has_value());
}

// --- power::to_json (report flavour) -----------------------------------------

TEST(PowerReport, JsonBreakdownMatchesMeter) {
  core::SessionConfig config;
  config.geometry = {8, 32, 1};
  config.mode = sram::Mode::kFunctional;
  core::TestSession session(config);
  const auto result = session.run(march::algorithms::mats_plus());
  const JsonValue report = power::to_json(result.meter);
  EXPECT_EQ(report.at("cycles").as_uint(), result.meter.cycles());
  EXPECT_EQ(report.at("supply_energy_j").as_double(),
            result.meter.supply_total());
  EXPECT_GT(report.at("breakdown").size(), 0u);
  double sum = 0.0;
  for (std::size_t i = 0; i < report.at("breakdown").size(); ++i) {
    const JsonValue& row = report.at("breakdown").at(i);
    if (row.at("supply_drawn").as_bool())
      sum += row.at("energy_j").as_double();
    EXPECT_FALSE(row.at("source").as_string().empty());
  }
  EXPECT_NEAR(sum, result.meter.supply_total(),
              1e-12 * result.meter.supply_total());
  // The report is valid JSON end to end.
  EXPECT_NO_THROW(JsonValue::parse(report.dump(2)));
}

}  // namespace
