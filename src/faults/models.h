// Behavioural memory fault models.
//
// The classic static fault space March tests target (van de Goor, the
// paper's ref [11]) plus one dynamic model specific to this paper:
//
//   SA0/SA1   stuck-at              cell permanently 0 / 1
//   TF        transition            one direction of writes fails
//   WDF       write disturb         a non-transition write flips the cell
//   RDF       read destructive      read flips the cell AND returns the flip
//   DRDF      deceptive RDF         read returns the old value, flips the cell
//   IRF       incorrect read        read returns the complement, cell intact
//   CFin      inversion coupling    an aggressor transition inverts the victim
//   CFid      idempotent coupling   an aggressor transition forces the victim
//   CFst      state coupling        victim coerced while aggressor holds a state
//   RES-sensitive                   the cell flips after accumulating enough
//                                   Read-Equivalent-Stress (paper §4: tests
//                                   that rely on functional-mode stress must
//                                   not run in the low-power test mode)
//   dRDF<w;r>  dynamic RDF          a read right after a write flips the cell
//   DRF        data retention       the cell leaks after enough idle time
//
// All models plug into sram::CellFaultModel through FaultSet.
#pragma once

#include <string>
#include <vector>

#include "sram/fault_hooks.h"
#include "sram/geometry.h"

namespace sramlp::faults {

enum class FaultKind {
  kStuckAt0,
  kStuckAt1,
  kTransitionUp,    ///< 0 -> 1 writes fail
  kTransitionDown,  ///< 1 -> 0 writes fail
  kWriteDisturb,
  kReadDestructive,
  kDeceptiveReadDestructive,
  kIncorrectRead,
  kCouplingInversion,
  kCouplingIdempotent,
  kCouplingState,
  /// Dynamic two-operation fault dRDF<w;r>: a read performed immediately
  /// after a write to the same cell flips it and returns the flip.  March
  /// tests with a write-then-read pair inside an element (March SS, March
  /// SR, March G...) sensitise it everywhere.  MATS+ and March C- have no
  /// such pair inside an element, but one crosses an element boundary
  /// (⇑...w1 then ⇓r1...), and that only happens at the order's first or
  /// last address: MATS+ detects dRDF at the last address, March C- at the
  /// first and the last, and both miss it everywhere else.
  kDynamicReadDestructive,
  kResSensitive,
  /// Data-retention fault: after enough cumulative idle time (March "Del"
  /// pauses) the weak cell leaks to its preferred value.  Only delay-
  /// bearing algorithms (March G with delays) sensitise it.
  kDataRetention,
};

std::string to_string(FaultKind kind);

/// True for two-cell (aggressor/victim) models.
constexpr bool is_coupling(FaultKind kind) {
  return kind == FaultKind::kCouplingInversion ||
         kind == FaultKind::kCouplingIdempotent ||
         kind == FaultKind::kCouplingState;
}

/// One injected fault instance.
struct FaultSpec {
  FaultKind kind = FaultKind::kStuckAt0;
  sram::CellCoord victim;
  // --- coupling parameters ---
  sram::CellCoord aggressor;   ///< coupling faults only
  bool aggressor_up = true;    ///< CFin/CFid: sensitising transition 0->1?
  bool aggressor_state = true; ///< CFst: coercing aggressor state
  bool forced_value = false;   ///< CFid/CFst: value forced onto the victim
  // --- RES-sensitive parameters ---
  /// Full-RES cycle equivalents after which the cell flips (once).
  double res_threshold = 64.0;
  // --- data-retention parameters ---
  /// Cumulative idle cycles after which the cell leaks to forced_value.
  /// The default sits below march::kDefaultPauseCycles so one "Del"
  /// element suffices to sensitise the fault.
  std::uint64_t retention_idle_cycles = 1000;

  std::string describe() const;
};

/// A set of injected faults implementing the array hook interface.
///
/// bind() must point at the array the set is attached to before any cycle
/// runs (state-coupling faults sample the aggressor's live value).
class FaultSet : public sram::CellFaultModel {
 public:
  FaultSet() = default;
  explicit FaultSet(std::vector<FaultSpec> specs);

  void add(const FaultSpec& spec);
  const std::vector<FaultSpec>& specs() const { return specs_; }
  bool empty() const { return specs_.empty(); }

  /// Attach the array whose cells this set disturbs (non-owning).  Called
  /// automatically via on_attach when the set is attached to an array.
  void bind(const sram::SramArray* array) { array_ = array; }
  void on_attach(const sram::SramArray& array) override { array_ = &array; }

  /// Clear accumulated dynamic state (RES stress) between runs.
  void reset_state();

  /// Total RES stress accumulated by RES-sensitive victims (diagnostics).
  double res_stress_accumulated() const;
  /// Whether any RES-sensitive fault has fired.
  bool res_fault_fired() const;

  // --- sram::CellFaultModel ----------------------------------------------
  bool write_result(sram::CellCoord cell, bool stored, bool intended) override;
  bool read_result(sram::CellCoord cell, bool stored,
                   bool* stored_after) override;
  void after_write(sram::SramArray& array, sram::CellCoord cell,
                   bool old_value, bool new_value) override;
  std::vector<sram::CellCoord> res_sensitive_cells() const override;
  std::vector<sram::CellCoord> declared_cells() const override;
  std::optional<std::vector<std::size_t>> relevant_rows() const override;
  void on_res(sram::SramArray& array, sram::CellCoord cell,
              double stress) override;
  void on_idle(sram::SramArray& array, std::uint64_t cycles) override;

 private:
  std::vector<FaultSpec> specs_;
  std::vector<double> res_accumulated_;  ///< parallel to specs_
  std::vector<bool> res_fired_;          ///< parallel to specs_
  const sram::SramArray* array_ = nullptr;
  /// Cell written by the immediately preceding operation (dynamic faults).
  bool have_last_write_ = false;
  sram::CellCoord last_write_cell_;
};

/// A representative single-fault library spread pseudo-randomly over the
/// array: several instances of every kind (and both polarities where it
/// applies), including the dynamic dRDF<w;r> fault and the paper's §4
/// classes (RES-sensitive, data retention).  RES thresholds scale with the
/// row width (3x the column count: below one functional-mode element sweep
/// for every Table 1 algorithm, above the low-power-mode exposure on wide
/// rows); retention thresholds sit below march::kDefaultPauseCycles so one
/// "Del" element sensitises them.  Deterministic for a given seed.
/// Coupling aggressors are column neighbours; single-column geometries get
/// row neighbours instead, and a 1x1 array has no coupling instances.
std::vector<FaultSpec> standard_fault_library(const sram::Geometry& geometry,
                                              std::uint64_t seed = 7,
                                              int instances_per_kind = 3);

}  // namespace sramlp::faults
