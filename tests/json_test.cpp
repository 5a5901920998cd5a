/**
 * @file
 * Tests for the JSON writer/parser, plan serialization round-trips
 * and the Chrome trace exporter.
 */

#include <gtest/gtest.h>

#include "core/plan_io.h"
#include "core/planner.h"
#include "hw/cluster.h"
#include "model/model_config.h"
#include "sim/baseline_eval.h"
#include "sim/trace_export.h"
#include "util/canonical_json.h"
#include "util/json.h"

namespace adapipe {
namespace {

TEST(Json, ScalarDump)
{
    EXPECT_EQ(JsonValue::null().dump(), "null");
    EXPECT_EQ(JsonValue::boolean(true).dump(), "true");
    EXPECT_EQ(JsonValue::integer(-42).dump(), "-42");
    EXPECT_EQ(JsonValue::string("hi").dump(), "\"hi\"");
}

TEST(Json, StringEscaping)
{
    EXPECT_EQ(JsonValue::string("a\"b\\c\nd").dump(),
              "\"a\\\"b\\\\c\\nd\"");
}

TEST(Json, ArrayAndObjectDump)
{
    JsonValue arr = JsonValue::array();
    arr.push(JsonValue::integer(1));
    arr.push(JsonValue::integer(2));
    JsonValue obj = JsonValue::object();
    obj.set("xs", std::move(arr));
    obj.set("ok", JsonValue::boolean(false));
    EXPECT_EQ(obj.dump(), "{\"xs\":[1,2],\"ok\":false}");
}

TEST(Json, SetOverwritesExistingKey)
{
    JsonValue obj = JsonValue::object();
    obj.set("k", JsonValue::integer(1));
    obj.set("k", JsonValue::integer(2));
    EXPECT_EQ(obj.at("k").asInteger(), 2);
}

TEST(Json, ParseRoundTrip)
{
    JsonValue obj = JsonValue::object();
    obj.set("name", JsonValue::string("line1\nline2 \"quoted\""));
    obj.set("pi", JsonValue::number(3.141592653589793));
    obj.set("n", JsonValue::integer(1234567890123));
    obj.set("flag", JsonValue::boolean(true));
    obj.set("nothing", JsonValue::null());
    JsonValue arr = JsonValue::array();
    arr.push(JsonValue::number(0.5));
    arr.push(JsonValue::string("x"));
    obj.set("arr", std::move(arr));

    for (int indent : {0, 2, 4}) {
        const JsonValue parsed = JsonValue::parse(obj.dump(indent));
        EXPECT_EQ(parsed.at("name").asString(),
                  "line1\nline2 \"quoted\"");
        EXPECT_DOUBLE_EQ(parsed.at("pi").asNumber(),
                         3.141592653589793);
        EXPECT_EQ(parsed.at("n").asInteger(), 1234567890123);
        EXPECT_TRUE(parsed.at("flag").asBool());
        EXPECT_TRUE(parsed.at("nothing").isNull());
        EXPECT_EQ(parsed.at("arr").elements().size(), 2u);
    }
}

TEST(Json, ParseEmptyContainers)
{
    EXPECT_TRUE(JsonValue::parse("[]").elements().empty());
    EXPECT_TRUE(JsonValue::parse("{}").isObject());
    EXPECT_TRUE(JsonValue::parse("  {  }  ").isObject());
}

TEST(Json, ParseRejectsGarbage)
{
    EXPECT_DEATH(JsonValue::parse("{\"a\": }"), "");
    EXPECT_DEATH(JsonValue::parse("[1, 2"), "");
    EXPECT_DEATH(JsonValue::parse("{} trailing"), "trailing");
}

TEST(Json, ContainsAndMissingKey)
{
    JsonValue obj = JsonValue::object();
    obj.set("a", JsonValue::integer(1));
    EXPECT_TRUE(obj.contains("a"));
    EXPECT_FALSE(obj.contains("b"));
    EXPECT_DEATH(obj.at("b"), "missing JSON key");
}

class PlanIoTest : public ::testing::Test
{
  protected:
    PipelinePlan
    makeTestPlan()
    {
        const ModelConfig model = gpt3_13b();
        TrainConfig train;
        train.seqLen = 8192;
        train.globalBatch = 32;
        ParallelConfig par;
        par.tensor = 8;
        par.pipeline = 4;
        par.data = 1;
        const ProfiledModel pm = buildProfiledModel(
            model, train, par, clusterA(4));
        const PlanResult r = makePlan(pm, PlanMethod::AdaPipe);
        EXPECT_TRUE(r.ok);
        return r.plan;
    }
};

TEST_F(PlanIoTest, RoundTripPreservesEverything)
{
    const PipelinePlan plan = makeTestPlan();
    const std::string text = planToJsonString(plan);
    const PipelinePlan back = tryPlanFromJsonString(text).value();

    EXPECT_EQ(back.method, plan.method);
    EXPECT_EQ(back.par.tensor, plan.par.tensor);
    EXPECT_EQ(back.par.pipeline, plan.par.pipeline);
    EXPECT_EQ(back.par.data, plan.par.data);
    EXPECT_EQ(back.train.seqLen, plan.train.seqLen);
    EXPECT_EQ(back.microBatches, plan.microBatches);
    EXPECT_DOUBLE_EQ(back.timing.total, plan.timing.total);
    ASSERT_EQ(back.stages.size(), plan.stages.size());
    for (std::size_t s = 0; s < plan.stages.size(); ++s) {
        EXPECT_EQ(back.stages[s].firstLayer,
                  plan.stages[s].firstLayer);
        EXPECT_EQ(back.stages[s].lastLayer, plan.stages[s].lastLayer);
        EXPECT_DOUBLE_EQ(back.stages[s].timeFwd,
                         plan.stages[s].timeFwd);
        EXPECT_EQ(back.stages[s].memPeak, plan.stages[s].memPeak);
        EXPECT_EQ(back.stages[s].savedMask, plan.stages[s].savedMask);
    }
}

TEST_F(PlanIoTest, AllMethodsSerializable)
{
    for (PlanMethod m :
         {PlanMethod::AdaPipe, PlanMethod::EvenPartition,
          PlanMethod::DappleFull, PlanMethod::DappleNon,
          PlanMethod::DappleSelective}) {
        PipelinePlan plan;
        plan.method = m;
        plan.par.pipeline = 1;
        plan.stages.emplace_back();
        const PipelinePlan back =
            tryPlanFromJsonString(planToJsonString(plan)).value();
        EXPECT_EQ(back.method, m);
    }
}

TEST_F(PlanIoTest, RejectsCorruptedPlan)
{
    const PipelinePlan plan = makeTestPlan();
    JsonValue json = planToJson(plan);
    json.set("method", JsonValue::string("not-a-method"));
    const ParseResult<PipelinePlan> r = tryPlanFromJson(json);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("unknown plan method"), std::string::npos)
        << r.error();
}

TEST(TraceExport, ValidJsonWithAllOps)
{
    const Schedule sched = build1F1B(3, 4);
    const SimResult sim = simulate(
        sched, std::vector<StageTimes>(3, {1.0, 2.0}), {});
    const std::string trace = toChromeTrace(sched, sim);
    const JsonValue parsed = JsonValue::parse(trace);
    // One event per op plus one metadata row per device.
    EXPECT_EQ(parsed.at("traceEvents").elements().size(),
              sched.ops.size() + 3);
    // Every X event has non-negative ts and positive dur.
    for (const auto &ev : parsed.at("traceEvents").elements()) {
        if (ev.at("ph").asString() != "X")
            continue;
        EXPECT_GE(ev.at("ts").asNumber(), 0.0);
        EXPECT_GT(ev.at("dur").asNumber(), 0.0);
    }
}

TEST(TraceExport, ForwardDoublingNamesCoverBothMicroBatches)
{
    const Schedule sched = buildChimeraD(2, 4);
    const SimResult sim = simulate(
        sched, std::vector<StageTimes>(2, {1.0, 2.0}), {});
    const std::string trace = toChromeTrace(sched, sim);
    EXPECT_NE(trace.find("F0-1"), std::string::npos);
}

TEST(CanonicalJson, KeyOrderAndWhitespaceDoNotMatter)
{
    const JsonValue a = JsonValue::parse(
        R"({"b": [1, 2, {"y": 2, "x": 1}], "a": true})");
    const JsonValue b = JsonValue::parse(
        "{ \"a\": true,\n  \"b\": [1, 2, {\"x\": 1, \"y\": 2}] }");
    EXPECT_EQ(canonicalJsonString(a), canonicalJsonString(b));
    EXPECT_EQ(canonicalJsonString(a),
              R"({"a":true,"b":[1,2,{"x":1,"y":2}]})");
    EXPECT_EQ(jsonFingerprint(a), jsonFingerprint(b));
}

TEST(CanonicalJson, ArrayOrderIsSignificant)
{
    const JsonValue a = JsonValue::parse(R"({"k": [1, 2]})");
    const JsonValue b = JsonValue::parse(R"({"k": [2, 1]})");
    EXPECT_NE(jsonFingerprint(a), jsonFingerprint(b));
}

TEST(CanonicalJson, FingerprintIsTheDocumentedFnv1a64)
{
    // Reference values of the FNV-1a-64 test vectors.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(hex16(0xcbf29ce484222325ull), "cbf29ce484222325");
    EXPECT_EQ(hex16(0x1ull), "0000000000000001");
    // The fingerprint is exactly hex16(fnv1a64(canonical text)).
    const JsonValue doc = JsonValue::parse(R"({"a": 1})");
    EXPECT_EQ(jsonFingerprint(doc),
              hex16(fnv1a64(canonicalJsonString(doc))));
}

} // namespace
} // namespace adapipe
