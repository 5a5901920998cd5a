/**
 * @file
 * Unit-profile table serialization.
 *
 * The paper's search engine consumes per-unit (time_f, time_b, mem)
 * tables measured on the real cluster; our analytic profiler is one
 * producer of such tables. This module saves and loads them as JSON
 * so users can substitute *measured* profiles (e.g. exported from a
 * framework's profiler) without touching the search code.
 */

#ifndef ADAPIPE_HW_PROFILE_IO_H
#define ADAPIPE_HW_PROFILE_IO_H

#include <string>
#include <vector>

#include "hw/profiler.h"
#include "util/json.h"
#include "util/parse_result.h"

namespace adapipe {

/** A named table of layer-wise unit profiles. */
struct ProfileTable
{
    /** Provenance label, e.g. "roofline:A100" or "measured:run17". */
    std::string source;
    /** Per layer, the profiles of its units in execution order. */
    std::vector<std::vector<UnitProfile>> layers;
};

/** Serialize a profile table to JSON. */
JsonValue profileTableToJson(const ProfileTable &table);

/** Serialize to a JSON string. */
std::string profileTableToJsonString(const ProfileTable &table,
                                     int indent = 2);

/**
 * Parse a table back: schema violations are reported with the
 * offending field's path (e.g. "profile.layers[3][1].kind") instead
 * of terminating the process.
 */
ParseResult<ProfileTable> tryProfileTableFromJson(const JsonValue &json);

/** Parse from a JSON string (covers syntax errors). */
ParseResult<ProfileTable>
tryProfileTableFromJsonString(const std::string &text);

/**
 * Load a table from a JSON file; missing files, malformed JSON and
 * schema violations all come back as errors naming the path/field.
 */
ParseResult<ProfileTable> loadProfileTableFile(const std::string &path);

} // namespace adapipe

#endif // ADAPIPE_HW_PROFILE_IO_H
