#include "hw/profile_io.h"

#include "util/file_io.h"
#include "util/json_reader.h"

namespace adapipe {

namespace {

const char *
unitKindKey(UnitKind kind)
{
    return unitKindName(kind);
}

UnitKind
unitKindFromReader(const JsonReader &field)
{
    const std::string &key = field.asString();
    for (UnitKind kind :
         {UnitKind::LayerNorm, UnitKind::Gemm,
          UnitKind::FlashAttention, UnitKind::AttnScores,
          UnitKind::AttnSoftmax, UnitKind::AttnContext,
          UnitKind::Embedding, UnitKind::Head}) {
        if (key == unitKindName(kind))
            return kind;
    }
    field.fail("unknown unit kind '" + key + "'");
}

ProfileTable
tableFromReader(const JsonReader &root)
{
    ProfileTable table;
    table.source = root.key("source").asString();
    const JsonReader layers = root.key("layers");
    for (std::size_t l = 0; l < layers.size(); ++l) {
        const JsonReader layer = layers.at(l);
        std::vector<UnitProfile> units;
        for (std::size_t i = 0; i < layer.size(); ++i) {
            const JsonReader unit = layer.at(i);
            UnitProfile u;
            u.name = unit.key("name").asString();
            u.kind = unitKindFromReader(unit.key("kind"));
            u.timeFwd = unit.key("time_fwd").asNumber();
            u.timeBwd = unit.key("time_bwd").asNumber();
            const std::int64_t mem =
                unit.key("mem_saved").asInteger();
            if (mem < 0)
                unit.key("mem_saved").fail("must be non-negative");
            u.memSaved = static_cast<Bytes>(mem);
            u.alwaysSaved = unit.key("always_saved").asBool();
            if (u.timeFwd < 0)
                unit.key("time_fwd").fail("must be non-negative");
            if (u.timeBwd < 0)
                unit.key("time_bwd").fail("must be non-negative");
            units.push_back(std::move(u));
        }
        table.layers.push_back(std::move(units));
    }
    return table;
}

} // namespace

JsonValue
profileTableToJson(const ProfileTable &table)
{
    JsonValue root = JsonValue::object();
    root.set("source", JsonValue::string(table.source));
    JsonValue layers = JsonValue::array();
    for (const auto &layer : table.layers) {
        JsonValue units = JsonValue::array();
        for (const UnitProfile &u : layer) {
            JsonValue unit = JsonValue::object();
            unit.set("name", JsonValue::string(u.name));
            unit.set("kind", JsonValue::string(unitKindKey(u.kind)));
            unit.set("time_fwd", JsonValue::number(u.timeFwd));
            unit.set("time_bwd", JsonValue::number(u.timeBwd));
            unit.set("mem_saved",
                     JsonValue::integer(
                         static_cast<std::int64_t>(u.memSaved)));
            unit.set("always_saved",
                     JsonValue::boolean(u.alwaysSaved));
            units.push(std::move(unit));
        }
        layers.push(std::move(units));
    }
    root.set("layers", std::move(layers));
    return root;
}

std::string
profileTableToJsonString(const ProfileTable &table, int indent)
{
    return profileTableToJson(table).dump(indent);
}

ParseResult<ProfileTable>
tryProfileTableFromJson(const JsonValue &json)
{
    return readJson<ProfileTable>(json, "profile", tableFromReader);
}

ParseResult<ProfileTable>
tryProfileTableFromJsonString(const std::string &text)
{
    ParseResult<JsonValue> doc = JsonValue::tryParse(text);
    if (!doc.ok())
        return ParseResult<ProfileTable>::failure(doc.error());
    return tryProfileTableFromJson(doc.value());
}

ParseResult<ProfileTable>
loadProfileTableFile(const std::string &path)
{
    ParseResult<std::string> text = readTextFile(path);
    if (!text.ok())
        return ParseResult<ProfileTable>::failure(text.error());
    ParseResult<ProfileTable> table =
        tryProfileTableFromJsonString(text.value());
    if (!table.ok())
        return ParseResult<ProfileTable>::failure(path + ": " +
                                                  table.error());
    return table;
}

} // namespace adapipe
