#include "dist/job.h"

#include "search/serialize.h"
#include "util/error.h"

namespace sramlp::dist {

namespace {

const char* kind_slug(JobSpec::Kind kind) {
  switch (kind) {
    case JobSpec::Kind::kSweep: return "sweep";
    case JobSpec::Kind::kCampaign: return "campaign";
    case JobSpec::Kind::kSearch: return "search";
  }
  throw Error("invalid JobSpec::Kind");
}

JobSpec::Kind kind_from_slug(const std::string& slug) {
  for (const auto kind : {JobSpec::Kind::kSweep, JobSpec::Kind::kCampaign,
                          JobSpec::Kind::kSearch})
    if (slug == kind_slug(kind)) return kind;
  throw Error("unknown job kind '" + slug + "'");
}

}  // namespace

std::size_t JobSpec::size() const {
  switch (kind) {
    case Kind::kSweep: return grid.size();
    case Kind::kCampaign: return faults.size();
    case Kind::kSearch: return search ? search->size() : 0;
  }
  throw Error("invalid JobSpec::Kind");
}

void JobSpec::validate() const {
  if (kind == Kind::kSweep) {
    SRAMLP_REQUIRE(!grid.geometries.empty() && !grid.backgrounds.empty() &&
                       !grid.algorithms.empty(),
                   "sweep job has an empty grid axis");
  } else if (kind == Kind::kCampaign) {
    SRAMLP_REQUIRE(test.has_value(), "campaign job needs a March test");
    SRAMLP_REQUIRE(!faults.empty(), "campaign job has no faults");
  } else {
    SRAMLP_REQUIRE(search.has_value(), "search job needs a SearchSpec");
    search->validate();
  }
}

std::uint64_t fnv1a64(std::string_view text, std::uint64_t state) {
  std::uint64_t hash = state;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t JobSpec::fingerprint() const {
  // FNV-1a over the canonical (compact, insertion-ordered) JSON form.
  return fnv1a64(to_json(*this).dump());
}

io::JsonValue to_json(const JobSpec& job) {
  io::JsonValue v = io::JsonValue::object();
  v.set("kind", io::JsonValue::string(kind_slug(job.kind)));
  if (job.kind == JobSpec::Kind::kSweep) {
    v.set("grid", io::to_json(job.grid));
  } else if (job.kind == JobSpec::Kind::kCampaign) {
    v.set("config", io::to_json(job.config));
    SRAMLP_REQUIRE(job.test.has_value(), "campaign job needs a March test");
    v.set("test", io::to_json(*job.test));
    io::JsonValue faults = io::JsonValue::array();
    for (const faults::FaultSpec& f : job.faults)
      faults.push_back(io::to_json(f));
    v.set("faults", std::move(faults));
  } else {
    SRAMLP_REQUIRE(job.search.has_value(), "search job needs a SearchSpec");
    v.set("search", io::to_json(*job.search));
  }
  return v;
}

JobSpec job_from_json(const io::JsonValue& json) {
  JobSpec job;
  job.kind = kind_from_slug(json.at("kind").as_string());
  if (job.kind == JobSpec::Kind::kSweep) {
    job.grid = io::sweep_grid_from_json(json.at("grid"));
  } else if (job.kind == JobSpec::Kind::kCampaign) {
    job.config = io::session_config_from_json(json.at("config"));
    job.test = io::march_from_json(json.at("test"));
    const io::JsonValue& faults = json.at("faults");
    for (std::size_t i = 0; i < faults.size(); ++i)
      job.faults.push_back(io::fault_spec_from_json(faults.at(i)));
  } else {
    job.search = io::search_spec_from_json(json.at("search"));
  }
  job.validate();
  return job;
}

void ShardSpec::validate() const {
  job.validate();
  plan.validate();
  SRAMLP_REQUIRE(shard < plan.shard_count, "shard index out of range");
  SRAMLP_REQUIRE(plan.total == job.size(),
                 "shard plan total does not match the job size");
}

io::JsonValue to_json(const ShardSpec& spec) {
  io::JsonValue v = io::JsonValue::object();
  v.set("job", to_json(spec.job));
  v.set("plan", to_json(spec.plan));
  v.set("shard", io::JsonValue::integer(spec.shard));
  return v;
}

ShardSpec shard_spec_from_json(const io::JsonValue& json) {
  ShardSpec spec;
  spec.job = job_from_json(json.at("job"));
  spec.plan = shard_plan_from_json(json.at("plan"));
  spec.shard = json.at("shard").as_size();
  spec.validate();
  return spec;
}

}  // namespace sramlp::dist
