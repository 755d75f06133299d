// JSON serialization of the domain types that cross the process boundary.
//
// Every pair here is round-trip exact: `X_from_json(to_json(x))` rebuilds a
// value whose execution behaviour — and, for results, whose every double —
// is bit-identical to the original.  That is the contract the distributed
// subsystem (src/dist/) stands on: a service merging worker-emitted
// JSONL must reproduce a single-process run to the bit.
//
// Conventions:
//   * enums travel as stable lowercase slugs (not integers), so documents
//     stay readable and robust against enum reordering;
//   * meters serialize per-source totals keyed by the EnergySource name —
//     rebuilt with one add() per source, which is exact;
//   * a MarchTest serializes structurally (name + elements) so pauses and
//     custom algorithms survive; parsing also accepts the bare
//     {"name": ...} form for the built-in library algorithms;
//   * an unset optional field is simply omitted.
#pragma once

#include "core/fault_campaign.h"
#include "core/sweep.h"
#include "io/json.h"

namespace sramlp::io {

// --- sram --------------------------------------------------------------------
JsonValue to_json(const sram::Geometry& geometry);
sram::Geometry geometry_from_json(const JsonValue& json);

JsonValue to_json(const sram::DataBackground& background);
sram::DataBackground background_from_json(const JsonValue& json);

// --- march -------------------------------------------------------------------
JsonValue to_json(const march::MarchTest& test);
/// Structural form {"name", "elements"} or bare {"name"} naming one of the
/// built-in march::algorithms (e.g. "March C-").
march::MarchTest march_from_json(const JsonValue& json);

// --- power -------------------------------------------------------------------
JsonValue to_json(const power::TechnologyParams& tech);
power::TechnologyParams technology_from_json(const JsonValue& json);

JsonValue to_json(const power::EnergyMeter& meter);
power::EnergyMeter meter_from_json(const JsonValue& json);

/// TraceSummary round-trips every double to the bit (the dist/ contract:
/// traced sharded runs must merge byte-identical to single-process runs).
JsonValue to_json(const power::TraceSummary& trace);
power::TraceSummary trace_summary_from_json(const JsonValue& json);

// --- core configuration ------------------------------------------------------
JsonValue to_json(const core::SessionConfig& config);
/// Note: a custom/non-factory address order round-trips by sequence (its
/// kind degrades to kCustom); execution depends only on the sequence.
core::SessionConfig session_config_from_json(const JsonValue& json);

JsonValue to_json(const core::SweepGrid& grid);
core::SweepGrid sweep_grid_from_json(const JsonValue& json);

// --- faults ------------------------------------------------------------------
JsonValue to_json(const faults::FaultSpec& spec);
faults::FaultSpec fault_spec_from_json(const JsonValue& json);

// --- results -----------------------------------------------------------------
JsonValue to_json(const core::SessionResult& result);
core::SessionResult session_result_from_json(const JsonValue& json);

JsonValue to_json(const core::PrrComparison& comparison);
core::PrrComparison prr_comparison_from_json(const JsonValue& json);

JsonValue to_json(const core::SweepPointResult& point);
core::SweepPointResult sweep_point_from_json(const JsonValue& json);

JsonValue to_json(const core::CampaignEntry& entry);
core::CampaignEntry campaign_entry_from_json(const JsonValue& json);

// --- enum slugs (shared with dist/ and the CLI) ------------------------------
std::string to_slug(sram::Mode mode);
sram::Mode mode_from_slug(const std::string& slug);
std::string to_slug(core::BackendChoice backend);
core::BackendChoice backend_from_slug(const std::string& slug);

}  // namespace sramlp::io
