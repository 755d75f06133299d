// The unit of distributed work — one whole sweep grid, fault campaign or
// schedule search — and the job-kind table that says everything the
// distributed layer needs to know about each kind.
//
// A JobSpec is everything a worker process needs to recompute any flat
// index of the job from scratch: the grid (or campaign config + test +
// fault library, or search spec) travels by value in JSON, never by
// reference to in-process state.
//
// Work items are opaque above this header.  A worker calls execute() and
// streams each item as (flat index, data document); the service forwards,
// caches (cache_payload / from_cache) and finally merges those documents
// without decoding them.  merge() of every item — whatever process, shard
// or cache produced each one — is byte-identical to single_document(), the
// single-process reference.  How a job is cut into steal units is a table
// entry too (lease_units): a fault campaign is cut along its plan_batches
// batches, so each leased unit is one multi-fault session pair instead of
// a slice across several, and a search is leased one item (one group of
// element orders) per unit.  job.cpp's table is the only code that branches
// on JobSpec::Kind.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/fault_campaign.h"
#include "core/sweep.h"
#include "io/serialize.h"
#include "search/search.h"

namespace sramlp::dist {

/// FNV-1a offset basis: the digest state before any byte.
inline constexpr std::uint64_t kFnv1a64Basis = 14695981039346656037ull;

/// FNV-1a over @p text, continuing from @p state — the digest shared by
/// JobSpec::fingerprint and the per-point cache keys (PointKeys).
/// fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b), so keys that share a prefix
/// hash it once.
std::uint64_t fnv1a64(std::string_view text,
                      std::uint64_t state = kFnv1a64Basis);

/// One distributed job: a sweep grid, a fault campaign, or a schedule
/// search (one work item per seeded restart).
struct JobSpec {
  enum class Kind { kSweep, kCampaign, kSearch };

  Kind kind = Kind::kSweep;

  // --- kind == kSweep ----------------------------------------------------
  core::SweepGrid grid;

  // --- kind == kCampaign -------------------------------------------------
  core::SessionConfig config;               ///< campaign session template
  std::optional<march::MarchTest> test;     ///< campaign algorithm
  std::vector<faults::FaultSpec> faults;    ///< campaign fault library

  // --- kind == kSearch ---------------------------------------------------
  std::optional<search::SearchSpec> search; ///< schedule-search spec

  /// Flat work items: grid points, faults, or search restarts.
  std::size_t size() const;

  void validate() const;

  /// Stable digest (FNV-1a over the canonical JSON form): the whole-job
  /// cache key, and what ties a streamed result line to its job.
  std::uint64_t fingerprint() const;
};

io::JsonValue to_json(const JobSpec& job);
JobSpec job_from_json(const io::JsonValue& json);

/// Canonical cache keys of a job's work items: grid points of a sweep job,
/// faults of a campaign job, restarts of a search job.  key(i) is FNV-1a
/// over the compact canonical document
///
///   {"kind":"sweep_point","config":C,"test":T}
///   {"kind":"campaign_entry","config":C,"test":T,"fault":F}
///   {"kind":"search_restart","search":S,"restart":i}
///
/// so two jobs that contain the same point (same session config +
/// algorithm (+ fault)) produce the same key whatever the rest of their
/// grids look like.  Each distinct config, test and spec is serialised
/// once, on first use, and a key continues the hash state of its shared
/// prefix instead of rebuilding the document.  @p job must outlive the
/// builder.
class PointKeys {
 public:
  explicit PointKeys(const JobSpec& job);

  std::uint64_t key(std::size_t index) { return key_(index); }

 private:
  std::function<std::uint64_t(std::size_t)> key_;
};

/// The key of one work item: PointKeys(job).key(index).  Use PointKeys
/// directly for many items of one job.
std::uint64_t point_fingerprint(const JobSpec& job, std::size_t index);

/// The "type" of a streamed result line of @p job's items
/// ("sweep_point", "campaign_entry" or "search_restart").
const char* item_type(const JobSpec& job);

/// True when @p type names a result line of some job kind.
bool is_item_type(std::string_view type);

/// Receives one computed item: its flat index and its data document.
/// Returning false stops execution (the consumer has gone away).
using EmitItem = std::function<bool(std::size_t index, io::JsonValue data)>;

/// Compute @p indices of @p job on @p threads (0 = hardware count) through
/// the single-process entry points (SweepRunner::run_indices, batched
/// CampaignRunner::run_subset, search::run_restart), then emit each item in
/// @p indices order.  Items are pure functions of (job, index), so any
/// partition of the index space reassembles bit-identically.  Returns
/// false when @p emit stopped it.
bool execute(const JobSpec& job, const std::vector<std::size_t>& indices,
             unsigned threads, const EmitItem& emit);

/// Item @p data as stored in the point cache.  Sweep points drop their
/// grid coordinates, so the same physical point answers any grid shape;
/// other kinds store the data unchanged.
std::string cache_payload(const JobSpec& job, const io::JsonValue& data);

/// A point-cache payload as item @p index of @p job (sweep coordinates
/// rebound to this grid).  Throws sramlp::Error on an unreadable payload.
io::JsonValue from_cache(const JobSpec& job, std::size_t index,
                         const std::string& payload);

/// The canonical merged document of @p job from every item's data
/// (payloads[i] is item i) — what `sramlp_dist single`, `run` and the
/// service all write, every distributed path's byte-level diff target.
std::string merge(const JobSpec& job, std::vector<io::JsonValue> payloads);

/// Most steal units one job is cut into (see lease_units).
inline constexpr std::size_t kMaxLeaseUnits = 512;

/// What lease_units reports about a cut, for the service's log line.
struct LeaseCut {
  /// True when the kind cut along a batch plan (campaigns); false for
  /// plain runs.
  bool planned = false;
  std::size_t batches = 0;   ///< plan_batches batches, one unit each
  std::size_t fallback = 0;  ///< faults outside every batch
};

/// Cut @p uncached (ascending flat indices of @p job) into steal units:
/// every index in exactly one unit, each unit ascending.
///   * campaign: faults::plan_batches over the uncached faults; each batch
///     is one unit, so a worker's CampaignRunner::run_subset re-plans it
///     into that same single session pair.  Fallback faults — and every
///     fault when row_transition_restore is off, where CampaignRunner does
///     not batch — go out in consecutive runs of @p unit.
///   * search: one item per unit, whatever @p unit says;
///   * sweep: consecutive runs of @p unit (0 reads as 1).
/// Past kMaxLeaseUnits units, neighbouring units are merged (k at a time)
/// until the count fits.  Execution shape never changes an item, so the
/// cut only moves wall time.  @p cut (optional) says how the job was cut.
std::vector<std::vector<std::size_t>> lease_units(
    const JobSpec& job, const std::vector<std::size_t>& uncached,
    std::size_t unit, LeaseCut* cut = nullptr);

/// merge(job, execute(job, every index, threads)): the single-process
/// reference document.
std::string single_document(const JobSpec& job, unsigned threads = 0);

}  // namespace sramlp::dist
