/**
 * @file
 * Plan serialization: the interface between the search engine and an
 * execution engine (the paper's engines consume exactly this
 * information — per-stage layer ranges and per-unit save/recompute
 * decisions).
 *
 * Output is byte-stable: JsonValue preserves insertion order and this
 * module always emits keys in one fixed order (method, parallel,
 * train, micro_batches, virtual_stages, timing, stages), so the same
 * plan always dumps to the same bytes — fixtures diff cleanly and
 * fingerprints (util/canonical_json.h, which additionally key-sorts)
 * never move because of serialization. Extend the emitters
 * append-only; reordering keys invalidates golden fixtures.
 */

#ifndef ADAPIPE_CORE_PLAN_IO_H
#define ADAPIPE_CORE_PLAN_IO_H

#include <string>

#include "core/plan.h"
#include "util/json.h"
#include "util/parse_result.h"

namespace adapipe {

/** Serialize @p plan to a JSON value. */
JsonValue planToJson(const PipelinePlan &plan);

/** Serialize @p plan to a JSON string. @param indent pretty-print */
std::string planToJsonString(const PipelinePlan &plan, int indent = 2);

/**
 * Parse a plan back from JSON produced by planToJson. Schema
 * violations are reported with the offending field's dotted path
 * (e.g. "plan.stages[2].mem_peak") instead of terminating the
 * process.
 */
ParseResult<PipelinePlan> tryPlanFromJson(const JsonValue &json);

/** Parse from a JSON string (covers syntax errors too). */
ParseResult<PipelinePlan> tryPlanFromJsonString(const std::string &text);

/**
 * Load a plan from a JSON file; missing files, malformed JSON and
 * schema violations all come back as errors naming the path/field.
 */
ParseResult<PipelinePlan> loadPlanFile(const std::string &path);

} // namespace adapipe

#endif // ADAPIPE_CORE_PLAN_IO_H
