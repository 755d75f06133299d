// WaveformWriter — per-cycle energy waveform export (CSV / JSONL).
//
// PowerTrace folds the meter's event stream into windows; a waveform
// writer keeps the time axis instead: one record per simulated cycle that
// drew energy, with the full per-source breakdown — the view to load into
// a plotting tool when a windowed peak number is not enough.
//
// The writer is a plain MeterSink that needs the raw event stream, so it
// deliberately does NOT opt into bulk folding (bulk_fold_supported stays
// false): with one attached the array meters every event through
// EnergyMeter::add, so each reaches on_add with its cycle stamp.  Idle
// blocks (March "Del" elements) arrive as one on_spread covering millions
// of cycles; the writer keeps them as ONE record with a span column rather
// than exploding the file — energy in a record is the total over its span.
//
// Record layout (CSV header written on construction; JSONL one object per
// line with the same fields):
//
//   run   — 0-based ordinal of the March run within the file.  Runs are
//           detected by the meter's cycle counter restarting (each run
//           resets its meter), so files with several runs — e.g. a
//           compare_modes pair: functional first, low-power second — split
//           without any extra wiring.
//   cycle — first cycle of the record's span
//   span  — cycles covered (1 for operation cycles, the block length for
//           idle spreads)
//   supply_j — supply energy drawn over the span (sum of the supply-drawn
//           source columns; excludes stored-charge sinks)
//   one column per EnergySource, in enum order (energy_source.h names)
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "power/energy_source.h"
#include "power/meter.h"

namespace sramlp::power {

enum class WaveformFormat { kCsv, kJsonl };

class WaveformWriter final : public MeterSink {
 public:
  /// Opens @p path for writing (truncates) and emits the CSV header when
  /// the format asks for one.  Throws on I/O failure.
  WaveformWriter(const std::string& path, WaveformFormat format);
  ~WaveformWriter() override;

  WaveformWriter(const WaveformWriter&) = delete;
  WaveformWriter& operator=(const WaveformWriter&) = delete;

  // --- MeterSink ----------------------------------------------------------
  void on_add(EnergySource source, double joules, std::uint64_t count,
              std::uint64_t cycle) override;
  void on_spread(EnergySource source, double joules, std::uint64_t first_cycle,
                 std::uint64_t cycles) override;

  /// Flush the pending record and the stdio buffer.  Called by the
  /// destructor; call explicitly to inspect the file while the writer is
  /// still attached.
  void finish();

  std::uint64_t records_written() const { return records_; }

 private:
  void flush_record();
  void write_record(std::uint64_t cycle, std::uint64_t span,
                    const double* slots);

  std::FILE* file_ = nullptr;
  WaveformFormat format_;
  std::uint64_t run_ = 0;
  std::uint64_t records_ = 0;
  bool have_pending_ = false;
  bool first_event_seen_ = false;
  std::uint64_t pending_cycle_ = 0;
  std::uint64_t pending_span_ = 1;
  std::uint64_t last_cycle_ = 0;
  double pending_[kEnergySourceCount] = {};
};

}  // namespace sramlp::power
