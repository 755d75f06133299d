// The unit of distributed work: one whole sweep grid or fault campaign.
//
// A JobSpec is everything a worker process needs to recompute any flat
// index of the job from scratch — the grid (or campaign config + test +
// fault library) travels by value in JSON, never by reference to in-process
// state.  Shard spec files pair a JobSpec with a ShardPlan and a shard
// index; the fingerprint ties result files back to the exact job that
// produced them so checkpoint/resume can never merge stale results from a
// different job.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/fault_campaign.h"
#include "core/sweep.h"
#include "dist/shard.h"
#include "io/serialize.h"
#include "search/search.h"

namespace sramlp::dist {

/// FNV-1a offset basis: the digest state before any byte.
inline constexpr std::uint64_t kFnv1a64Basis = 14695981039346656037ull;

/// FNV-1a over @p text, continuing from @p state — the digest shared by
/// JobSpec::fingerprint and the sweep service's per-point cache keys
/// (dist/service.h).  fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b), so keys
/// that share a prefix hash it once.
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

  /// Stable digest (FNV-1a over the canonical JSON form); result files
  /// carry it so resume never merges results of a different job.
  std::uint64_t fingerprint() const;
};

io::JsonValue to_json(const JobSpec& job);
JobSpec job_from_json(const io::JsonValue& json);

/// One shard assignment, as written to a shard spec file: the whole job
/// plus the plan and the owned shard index.
struct ShardSpec {
  JobSpec job;
  ShardPlan plan;
  std::size_t shard = 0;

  void validate() const;
};

io::JsonValue to_json(const ShardSpec& spec);
ShardSpec shard_spec_from_json(const io::JsonValue& json);

}  // namespace sramlp::dist
