// JSON serialization of the search subsystem's boundary types.
//
// Lives in namespace sramlp::io next to io/serialize.h's pairs (dist/
// includes this; io/ itself must not depend on search/).  Same contract
// as every io serializer: round-trip exact — a RestartResult crossing the
// worker wire and merged by the service reproduces every double to
// the bit, which is what keeps sharded search merges byte-identical to
// single-process runs.
#pragma once

#include "io/json.h"
#include "search/search.h"

namespace sramlp::io {

JsonValue to_json(const search::SearchSpec& spec);
search::SearchSpec search_spec_from_json(const JsonValue& json);

JsonValue to_json(const search::ScheduleResult& result);
search::ScheduleResult schedule_result_from_json(const JsonValue& json);

JsonValue to_json(const search::RestartResult& result);
search::RestartResult restart_result_from_json(const JsonValue& json);

}  // namespace sramlp::io
