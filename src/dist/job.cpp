#include "dist/job.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "engine/parallel.h"
#include "faults/batch.h"
#include "search/serialize.h"
#include "util/error.h"

namespace sramlp::dist {

namespace {

using KeyFn = std::function<std::uint64_t(std::size_t)>;
using Units = std::vector<std::vector<std::size_t>>;

/// One job kind: every place the distributed layer treats sweeps,
/// campaigns and searches differently.
struct JobKind {
  JobSpec::Kind kind;
  const char* slug;       ///< "kind" of job specs and merged documents
  const char* item_type;  ///< "type" of a streamed result line
  std::size_t (*size)(const JobSpec&);
  void (*validate)(const JobSpec&);
  /// Spec members after "kind": written by to_json, read by job_from_json.
  void (*write_spec)(const JobSpec&, io::JsonValue&);
  void (*read_spec)(const io::JsonValue&, JobSpec&);
  KeyFn (*point_keys)(const JobSpec&);
  bool (*execute)(const JobSpec&, const std::vector<std::size_t>&, unsigned,
                  const EmitItem&);
  /// Cost-aware cut of the uncached indices into steal units (nullptr:
  /// consecutive runs of the unit size).  Sets LeaseCut::planned when it
  /// cut along a plan.
  Units (*lease_units)(const JobSpec&, const std::vector<std::size_t>&,
                       std::size_t, LeaseCut&);
  /// Kind-specific rewrite of a payload on its way into / out of the
  /// point cache (nullptr: stored unchanged).
  void (*neutralize)(io::JsonValue&);
  void (*rebind)(const JobSpec&, std::size_t, io::JsonValue&);
  /// Document members after "kind", built from every item's data.
  void (*merge)(const JobSpec&, std::vector<io::JsonValue>, io::JsonValue&);
};

io::JsonValue array_of(std::vector<io::JsonValue> items) {
  io::JsonValue array = io::JsonValue::array();
  for (io::JsonValue& item : items) array.push_back(std::move(item));
  return array;
}

/// Append @p indices to @p units in consecutive runs of @p unit (0 = 1).
void append_runs(const std::vector<std::size_t>& indices, std::size_t unit,
                 Units& units) {
  const std::size_t run = std::max<std::size_t>(unit, 1);
  for (std::size_t start = 0; start < indices.size(); start += run)
    units.emplace_back(
        indices.begin() + static_cast<std::ptrdiff_t>(start),
        indices.begin() + static_cast<std::ptrdiff_t>(
                              std::min(start + run, indices.size())));
}

/// Emit @p results (parallel to @p indices) through @p emit.
template <typename Result>
bool emit_all(const std::vector<std::size_t>& indices,
              const std::vector<Result>& results, const EmitItem& emit) {
  SRAMLP_REQUIRE(results.size() == indices.size(),
                 "a work unit produced a short result list");
  for (std::size_t j = 0; j < indices.size(); ++j)
    if (!emit(indices[j], io::to_json(results[j]))) return false;
  return true;
}

// --- sweep: one grid point per item ------------------------------------------

std::size_t sweep_size(const JobSpec& job) { return job.grid.size(); }

void sweep_validate(const JobSpec& job) {
  SRAMLP_REQUIRE(!job.grid.geometries.empty() &&
                     !job.grid.backgrounds.empty() &&
                     !job.grid.algorithms.empty(),
                 "sweep job has an empty grid axis");
}

void sweep_write(const JobSpec& job, io::JsonValue& v) {
  v.set("grid", io::to_json(job.grid));
}

void sweep_read(const io::JsonValue& json, JobSpec& job) {
  job.grid = io::sweep_grid_from_json(json.at("grid"));
}

KeyFn sweep_keys(const JobSpec& job) {
  // Hash state after `{"kind":"sweep_point","config":C,"test":` per
  // (geometry, background) cell, and `T}` per algorithm (a dump is never
  // empty; empty = not yet built).
  std::vector<std::optional<std::uint64_t>> cells(
      job.grid.geometries.size() * job.grid.backgrounds.size());
  std::vector<std::string> tails(job.grid.algorithms.size());
  return [&job, cells = std::move(cells),
          tails = std::move(tails)](std::size_t index) mutable {
    std::size_t geometry = 0, background = 0, algorithm = 0;
    job.grid.split(index, &geometry, &background, &algorithm);
    std::optional<std::uint64_t>& cell =
        cells[geometry * job.grid.backgrounds.size() + background];
    if (!cell) {
      std::uint64_t s = fnv1a64("{\"kind\":\"sweep_point\",\"config\":");
      s = fnv1a64(io::to_json(job.grid.config_at(index)).dump(), s);
      cell = fnv1a64(",\"test\":", s);
    }
    std::string& tail = tails[algorithm];
    if (tail.empty())
      tail = io::to_json(job.grid.algorithms[algorithm]).dump() + '}';
    return fnv1a64(tail, *cell);
  };
}

bool sweep_execute(const JobSpec& job, const std::vector<std::size_t>& indices,
                   unsigned threads, const EmitItem& emit) {
  // run_indices IS run()'s arithmetic applied to the subset, so these
  // points are bit-identical to the whole-grid slots they merge into.
  const core::SweepRunner runner(
      core::SweepRunner::Options{threads, core::BackendChoice::kAuto});
  return emit_all(indices, runner.run_indices(job.grid, indices), emit);
}

/// The grid coordinates a cached sweep point is stored without.
constexpr const char* kGridCoordinates[] = {"index", "geometry", "background",
                                            "algorithm"};

void sweep_neutralize(io::JsonValue& data) {
  for (const char* member : kGridCoordinates)
    data.set(member, io::JsonValue::integer(0));
}

void sweep_rebind(const JobSpec& job, std::size_t index, io::JsonValue& data) {
  std::size_t coordinates[4] = {index, 0, 0, 0};
  job.grid.split(index, &coordinates[1], &coordinates[2], &coordinates[3]);
  for (std::size_t c = 0; c < 4; ++c)
    data.set(kGridCoordinates[c], io::JsonValue::integer(coordinates[c]));
}

void sweep_merge(const JobSpec&, std::vector<io::JsonValue> payloads,
                 io::JsonValue& doc) {
  doc.set("points", array_of(std::move(payloads)));
}

// --- campaign: one fault per item --------------------------------------------

std::size_t campaign_size(const JobSpec& job) { return job.faults.size(); }

void campaign_validate(const JobSpec& job) {
  SRAMLP_REQUIRE(job.test.has_value(), "campaign job needs a March test");
  SRAMLP_REQUIRE(!job.faults.empty(), "campaign job has no faults");
}

void campaign_write(const JobSpec& job, io::JsonValue& v) {
  v.set("config", io::to_json(job.config));
  SRAMLP_REQUIRE(job.test.has_value(), "campaign job needs a March test");
  v.set("test", io::to_json(*job.test));
  io::JsonValue faults = io::JsonValue::array();
  for (const faults::FaultSpec& f : job.faults)
    faults.push_back(io::to_json(f));
  v.set("faults", std::move(faults));
}

void campaign_read(const io::JsonValue& json, JobSpec& job) {
  job.config = io::session_config_from_json(json.at("config"));
  job.test = io::march_from_json(json.at("test"));
  const io::JsonValue& faults = json.at("faults");
  for (std::size_t i = 0; i < faults.size(); ++i)
    job.faults.push_back(io::fault_spec_from_json(faults.at(i)));
}

KeyFn campaign_keys(const JobSpec& job) {
  SRAMLP_REQUIRE(job.test.has_value(), "campaign job needs a March test");
  std::uint64_t s = fnv1a64("{\"kind\":\"campaign_entry\",\"config\":");
  s = fnv1a64(io::to_json(job.config).dump(), s);
  s = fnv1a64(",\"test\":", s);
  s = fnv1a64(io::to_json(*job.test).dump(), s);
  const std::uint64_t prefix = fnv1a64(",\"fault\":", s);
  return [&job, prefix](std::size_t index) {
    SRAMLP_REQUIRE(index < job.faults.size(),
                   "campaign fault index out of range");
    return fnv1a64(io::to_json(job.faults[index]).dump() + '}', prefix);
  };
}

bool campaign_execute(const JobSpec& job,
                      const std::vector<std::size_t>& indices,
                      unsigned threads, const EmitItem& emit) {
  // run_subset computes exactly the entries a whole-library run() fills
  // into these slots; batching within the subset only changes wall time.
  core::CampaignRunner::Options options;
  options.threads = threads;
  options.batched = true;
  return emit_all(indices,
                  core::CampaignRunner(options).run_subset(
                      job.config, *job.test, job.faults, indices),
                  emit);
}

Units campaign_lease_units(const JobSpec& job,
                           const std::vector<std::size_t>& uncached,
                           std::size_t unit, LeaseCut& cut) {
  Units units;
  cut.planned = true;
  // CampaignRunner::run batches only under the Fig. 7 restore; without it
  // every fault is its own session pair and plain runs are the right cut.
  if (!job.config.row_transition_restore) {
    cut.fallback = uncached.size();
    append_runs(uncached, unit, units);
    return units;
  }
  std::vector<faults::FaultSpec> specs;
  specs.reserve(uncached.size());
  for (const std::size_t i : uncached) specs.push_back(job.faults.at(i));
  // The worker's run_subset re-plans a batch's members (pairwise victim
  // disjoint, one history class, no aggressor on another member's victim)
  // into that same single batch: one session pair per unit.
  const faults::BatchPlan plan = faults::plan_batches(specs);
  for (const std::vector<std::size_t>& batch : plan.batches) {
    std::vector<std::size_t>& members = units.emplace_back();
    members.reserve(batch.size());
    for (const std::size_t m : batch) members.push_back(uncached[m]);
  }
  std::vector<std::size_t> fallback;
  fallback.reserve(plan.fallback.size());
  for (const std::size_t m : plan.fallback) fallback.push_back(uncached[m]);
  append_runs(fallback, unit, units);
  cut.batches = plan.batches.size();
  cut.fallback = fallback.size();
  return units;
}

void campaign_merge(const JobSpec& job, std::vector<io::JsonValue> payloads,
                    io::JsonValue& doc) {
  doc.set("algorithm", io::JsonValue::string(job.test->name()));
  doc.set("entries", array_of(std::move(payloads)));
}

// --- search: one group of element orders per item ----------------------------

std::size_t search_size(const JobSpec& job) {
  return job.search ? job.search->size() : 0;
}

void search_validate(const JobSpec& job) {
  SRAMLP_REQUIRE(job.search.has_value(), "search job needs a SearchSpec");
  job.search->validate();
}

void search_write(const JobSpec& job, io::JsonValue& v) {
  SRAMLP_REQUIRE(job.search.has_value(), "search job needs a SearchSpec");
  v.set("search", io::to_json(*job.search));
}

void search_read(const io::JsonValue& json, JobSpec& job) {
  job.search = io::search_spec_from_json(json.at("search"));
}

KeyFn search_keys(const JobSpec& job) {
  // An item is a pure function of (whole spec, item index), so the key
  // covers the entire SearchSpec — two jobs share a cached item only when
  // every search knob matches.
  SRAMLP_REQUIRE(job.search.has_value(), "search job needs a SearchSpec");
  std::uint64_t s = fnv1a64("{\"kind\":\"search_restart\",\"search\":");
  s = fnv1a64(io::to_json(*job.search).dump(), s);
  const std::uint64_t prefix = fnv1a64(",\"restart\":", s);
  return [prefix](std::size_t index) {
    return fnv1a64(std::to_string(index) + '}', prefix);
  };
}

bool search_execute(const JobSpec& job, const std::vector<std::size_t>& indices,
                    unsigned threads, const EmitItem& emit) {
  // run_restart(spec, r) is pure, so each item reproduces the exact bytes
  // of its slot in a single-process run_search.
  std::vector<search::RestartResult> results(indices.size());
  engine::parallel_for(indices.size(), threads, [&](std::size_t j) {
    results[j] = search::run_restart(*job.search, indices[j]);
  });
  return emit_all(indices, results, emit);
}

Units search_lease_units(const JobSpec&,
                         const std::vector<std::size_t>& uncached,
                         std::size_t, LeaseCut&) {
  // An item is one exact order solve plus its cycle-accurate verification:
  // each is worth a steal on its own.
  Units units;
  append_runs(uncached, 1, units);
  return units;
}

void search_merge(const JobSpec&, std::vector<io::JsonValue> payloads,
                  io::JsonValue& doc) {
  // The global Pareto front depends only on the per-item results, so this
  // is byte-identical whoever computed the items.
  std::vector<search::RestartResult> restarts;
  restarts.reserve(payloads.size());
  for (const io::JsonValue& payload : payloads)
    restarts.push_back(io::restart_result_from_json(payload));
  doc.set("restarts", array_of(std::move(payloads)));
  io::JsonValue front = io::JsonValue::array();
  for (const search::ScheduleResult& point : search::merge_front(restarts))
    front.push_back(io::to_json(point));
  doc.set("front", std::move(front));
}

// --- the table ---------------------------------------------------------------

const JobKind kJobKinds[] = {
    {JobSpec::Kind::kSweep, "sweep", "sweep_point", sweep_size,
     sweep_validate, sweep_write, sweep_read, sweep_keys, sweep_execute,
     nullptr, sweep_neutralize, sweep_rebind, sweep_merge},
    {JobSpec::Kind::kCampaign, "campaign", "campaign_entry", campaign_size,
     campaign_validate, campaign_write, campaign_read, campaign_keys,
     campaign_execute, campaign_lease_units, nullptr, nullptr,
     campaign_merge},
    {JobSpec::Kind::kSearch, "search", "search_restart", search_size,
     search_validate, search_write, search_read, search_keys, search_execute,
     search_lease_units, nullptr, nullptr, search_merge},
};

const JobKind& kind_of(JobSpec::Kind kind) {
  for (const JobKind& entry : kJobKinds)
    if (entry.kind == kind) return entry;
  throw Error("invalid JobSpec::Kind");
}

const JobKind& kind_of(const std::string& slug) {
  for (const JobKind& entry : kJobKinds)
    if (slug == entry.slug) return entry;
  throw Error("unknown job kind '" + slug + "'");
}

}  // namespace

std::uint64_t fnv1a64(std::string_view text, std::uint64_t state) {
  std::uint64_t hash = state;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::size_t JobSpec::size() const { return kind_of(kind).size(*this); }

void JobSpec::validate() const { kind_of(kind).validate(*this); }

std::uint64_t JobSpec::fingerprint() const {
  // FNV-1a over the canonical (compact, insertion-ordered) JSON form.
  return fnv1a64(to_json(*this).dump());
}

io::JsonValue to_json(const JobSpec& job) {
  const JobKind& kind = kind_of(job.kind);
  io::JsonValue v = io::JsonValue::object();
  v.set("kind", io::JsonValue::string(kind.slug));
  kind.write_spec(job, v);
  return v;
}

JobSpec job_from_json(const io::JsonValue& json) {
  const JobKind& kind = kind_of(json.at("kind").as_string());
  JobSpec job;
  job.kind = kind.kind;
  kind.read_spec(json, job);
  job.validate();
  return job;
}

PointKeys::PointKeys(const JobSpec& job)
    : key_(kind_of(job.kind).point_keys(job)) {}

std::uint64_t point_fingerprint(const JobSpec& job, std::size_t index) {
  return PointKeys(job).key(index);
}

const char* item_type(const JobSpec& job) {
  return kind_of(job.kind).item_type;
}

bool is_item_type(std::string_view type) {
  for (const JobKind& entry : kJobKinds)
    if (type == entry.item_type) return true;
  return false;
}

bool execute(const JobSpec& job, const std::vector<std::size_t>& indices,
             unsigned threads, const EmitItem& emit) {
  return kind_of(job.kind).execute(job, indices, threads, emit);
}

std::vector<std::vector<std::size_t>> lease_units(
    const JobSpec& job, const std::vector<std::size_t>& uncached,
    std::size_t unit, LeaseCut* cut) {
  const JobKind& kind = kind_of(job.kind);
  LeaseCut facts;
  Units units;
  if (kind.lease_units) {
    units = kind.lease_units(job, uncached, unit, facts);
  } else {
    append_runs(uncached, unit, units);
  }
  if (cut) *cut = facts;
  if (units.size() <= kMaxLeaseUnits) return units;
  // Too many units: merge each k neighbours into one, k the smallest
  // factor that fits the cap.
  const std::size_t k = (units.size() + kMaxLeaseUnits - 1) / kMaxLeaseUnits;
  Units merged;
  merged.reserve((units.size() + k - 1) / k);
  for (std::size_t start = 0; start < units.size(); start += k) {
    std::vector<std::size_t>& group = merged.emplace_back();
    for (std::size_t u = start; u < std::min(start + k, units.size()); ++u)
      group.insert(group.end(), units[u].begin(), units[u].end());
    std::sort(group.begin(), group.end());
  }
  return merged;
}

std::string cache_payload(const JobSpec& job, const io::JsonValue& data) {
  const JobKind& kind = kind_of(job.kind);
  if (!kind.neutralize) return data.dump();
  io::JsonValue neutral = data;
  kind.neutralize(neutral);
  return neutral.dump();
}

io::JsonValue from_cache(const JobSpec& job, std::size_t index,
                         const std::string& payload) {
  io::JsonValue data = io::JsonValue::parse(payload);
  SRAMLP_REQUIRE(data.kind() == io::JsonValue::Kind::kObject,
                 "point-cache payload is not a JSON object");
  const JobKind& kind = kind_of(job.kind);
  if (kind.rebind) kind.rebind(job, index, data);
  return data;
}

std::string merge(const JobSpec& job, std::vector<io::JsonValue> payloads) {
  const JobKind& kind = kind_of(job.kind);
  SRAMLP_REQUIRE(payloads.size() == kind.size(job),
                 "merge needs exactly one payload per work item");
  io::JsonValue doc = io::JsonValue::object();
  doc.set("kind", io::JsonValue::string(kind.slug));
  kind.merge(job, std::move(payloads), doc);
  return doc.dump(2) + "\n";
}

std::string single_document(const JobSpec& job, unsigned threads) {
  job.validate();
  std::vector<std::size_t> indices(job.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  std::vector<io::JsonValue> payloads(indices.size());
  execute(job, indices, threads, [&](std::size_t index, io::JsonValue data) {
    payloads[index] = std::move(data);
    return true;
  });
  return merge(job, std::move(payloads));
}

}  // namespace sramlp::dist
