#include "core/plan_io.h"

#include "util/file_io.h"
#include "util/json_reader.h"

namespace adapipe {

namespace {

const char *
methodKey(PlanMethod method)
{
    switch (method) {
      case PlanMethod::AdaPipe: return "adapipe";
      case PlanMethod::EvenPartition: return "even_partition";
      case PlanMethod::DappleFull: return "dapple_full";
      case PlanMethod::DappleNon: return "dapple_non";
      case PlanMethod::DappleSelective: return "dapple_selective";
    }
    return "?";
}

PlanMethod
methodFromReader(const JsonReader &field)
{
    const std::string &key = field.asString();
    if (key == "adapipe")
        return PlanMethod::AdaPipe;
    if (key == "even_partition")
        return PlanMethod::EvenPartition;
    if (key == "dapple_full")
        return PlanMethod::DappleFull;
    if (key == "dapple_non")
        return PlanMethod::DappleNon;
    if (key == "dapple_selective")
        return PlanMethod::DappleSelective;
    field.fail("unknown plan method '" + key + "'");
}

int
asIntField(const JsonReader &field)
{
    return static_cast<int>(field.asInteger());
}

PipelinePlan
planFromReader(const JsonReader &root)
{
    PipelinePlan plan;
    plan.method = methodFromReader(root.key("method"));

    const JsonReader par = root.key("parallel");
    plan.par.tensor = asIntField(par.key("tensor"));
    plan.par.pipeline = asIntField(par.key("pipeline"));
    plan.par.data = asIntField(par.key("data"));
    plan.par.sequenceParallel = par.key("sequence_parallel").asBool();
    plan.par.flashAttention = par.key("flash_attention").asBool();

    const JsonReader train = root.key("train");
    plan.train.microBatch = asIntField(train.key("micro_batch"));
    plan.train.seqLen = asIntField(train.key("seq_len"));
    plan.train.globalBatch = asIntField(train.key("global_batch"));

    plan.microBatches = asIntField(root.key("micro_batches"));

    // Plans written before the interleaved-1F1B support carry no
    // virtual_stages field; they are plain 1F1B plans.
    if (root.has("virtual_stages")) {
        plan.virtualStages = asIntField(root.key("virtual_stages"));
        if (plan.virtualStages < 1)
            root.key("virtual_stages").fail("must be >= 1");
    }

    // Plans written before overlapped recomputation carry no overlap
    // field; they are lazy-replay plans.
    if (root.has("overlap"))
        plan.overlap = root.key("overlap").asBool();

    // Plans written before host-offload support carry no offload
    // field; they are keep/recompute-only plans.
    if (root.has("offload"))
        plan.offload = root.key("offload").asBool();

    const JsonReader timing = root.key("timing");
    plan.timing.warmup = timing.key("warmup").asNumber();
    plan.timing.ending = timing.key("ending").asNumber();
    plan.timing.steadyPerMb = timing.key("steady_per_mb").asNumber();
    plan.timing.total = timing.key("total").asNumber();

    const JsonReader stages = root.key("stages");
    for (std::size_t s = 0; s < stages.size(); ++s) {
        const JsonReader stage = stages.at(s);
        StagePlan sp;
        sp.firstLayer = asIntField(stage.key("first_layer"));
        sp.lastLayer = asIntField(stage.key("last_layer"));
        sp.timeFwd = stage.key("time_fwd").asNumber();
        sp.timeBwd = stage.key("time_bwd").asNumber();
        const std::int64_t mem = stage.key("mem_peak").asInteger();
        if (mem < 0)
            stage.key("mem_peak").fail("must be non-negative");
        sp.memPeak = static_cast<Bytes>(mem);
        sp.savedUnits = asIntField(stage.key("saved_units"));
        sp.totalUnits = asIntField(stage.key("total_units"));
        const JsonReader mask = stage.key("saved_mask");
        for (std::size_t b = 0; b < mask.size(); ++b)
            sp.savedMask.push_back(mask.at(b).asBool());
        // The DAPPLE baselines' uniform policies carry no mask (the
        // runtime maps them by method); any other mask is complete.
        if (!sp.savedMask.empty() &&
            static_cast<int>(sp.savedMask.size()) != sp.totalUnits)
            mask.fail("length " +
                      std::to_string(sp.savedMask.size()) +
                      " does not match total_units " +
                      std::to_string(sp.totalUnits));
        // Overlap annotation: optional (absent on legacy / lazy
        // plans), each field independently defaulting to 0 but never
        // negative.
        if (stage.has("overlap_bubble")) {
            sp.overlapBubble = stage.key("overlap_bubble").asNumber();
            if (sp.overlapBubble < 0)
                stage.key("overlap_bubble").fail("must be >= 0");
        }
        if (stage.has("replay_hidden")) {
            sp.timeReplayHidden =
                stage.key("replay_hidden").asNumber();
            if (sp.timeReplayHidden < 0)
                stage.key("replay_hidden").fail("must be >= 0");
        }
        if (stage.has("replay_critical")) {
            sp.timeReplayCritical =
                stage.key("replay_critical").asNumber();
            if (sp.timeReplayCritical < 0)
                stage.key("replay_critical").fail("must be >= 0");
        }
        // Host-offload annotation: optional (absent on legacy
        // plans), validated like the saved mask / overlap fields.
        if (stage.has("offload_mask")) {
            const JsonReader omask = stage.key("offload_mask");
            for (std::size_t b = 0; b < omask.size(); ++b)
                sp.offloadMask.push_back(omask.at(b).asBool());
            if (static_cast<int>(sp.offloadMask.size()) !=
                sp.totalUnits)
                omask.fail("length " +
                           std::to_string(sp.offloadMask.size()) +
                           " does not match total_units " +
                           std::to_string(sp.totalUnits));
            for (std::size_t b = 0; b < sp.offloadMask.size(); ++b) {
                if (sp.offloadMask[b] && b < sp.savedMask.size() &&
                    sp.savedMask[b])
                    omask.fail("unit " + std::to_string(b) +
                               " is both saved and offloaded");
            }
        }
        if (stage.has("offload_bytes")) {
            const std::int64_t ob =
                stage.key("offload_bytes").asInteger();
            if (ob < 0)
                stage.key("offload_bytes").fail("must be >= 0");
            sp.offloadBytes = static_cast<Bytes>(ob);
        }
        if (stage.has("offload_fetch_us")) {
            sp.offloadFetchUs =
                stage.key("offload_fetch_us").asNumber();
            if (sp.offloadFetchUs < 0)
                stage.key("offload_fetch_us").fail("must be >= 0");
        }
        plan.stages.push_back(std::move(sp));
    }
    // One StagePlan per virtual chunk: pipeline * virtual_stages
    // entries (virtual_stages defaults to 1 for legacy plans).
    const long long expected_stages =
        static_cast<long long>(plan.par.pipeline) * plan.virtualStages;
    if (static_cast<long long>(plan.stages.size()) != expected_stages)
        stages.fail("stage count " +
                    std::to_string(plan.stages.size()) +
                    " does not match parallel.pipeline (" +
                    std::to_string(plan.par.pipeline) +
                    ") * virtual_stages (" +
                    std::to_string(plan.virtualStages) + ")");
    return plan;
}

} // namespace

JsonValue
planToJson(const PipelinePlan &plan)
{
    JsonValue root = JsonValue::object();
    root.set("method", JsonValue::string(methodKey(plan.method)));

    JsonValue par = JsonValue::object();
    par.set("tensor", JsonValue::integer(plan.par.tensor));
    par.set("pipeline", JsonValue::integer(plan.par.pipeline));
    par.set("data", JsonValue::integer(plan.par.data));
    par.set("sequence_parallel",
            JsonValue::boolean(plan.par.sequenceParallel));
    par.set("flash_attention",
            JsonValue::boolean(plan.par.flashAttention));
    root.set("parallel", std::move(par));

    JsonValue train = JsonValue::object();
    train.set("micro_batch", JsonValue::integer(plan.train.microBatch));
    train.set("seq_len", JsonValue::integer(plan.train.seqLen));
    train.set("global_batch",
              JsonValue::integer(plan.train.globalBatch));
    root.set("train", std::move(train));

    root.set("micro_batches", JsonValue::integer(plan.microBatches));
    root.set("virtual_stages", JsonValue::integer(plan.virtualStages));
    root.set("overlap", JsonValue::boolean(plan.overlap));
    root.set("offload", JsonValue::boolean(plan.offload));

    JsonValue timing = JsonValue::object();
    timing.set("warmup", JsonValue::number(plan.timing.warmup));
    timing.set("ending", JsonValue::number(plan.timing.ending));
    timing.set("steady_per_mb",
               JsonValue::number(plan.timing.steadyPerMb));
    timing.set("total", JsonValue::number(plan.timing.total));
    root.set("timing", std::move(timing));

    JsonValue stages = JsonValue::array();
    for (const StagePlan &sp : plan.stages) {
        JsonValue stage = JsonValue::object();
        stage.set("first_layer", JsonValue::integer(sp.firstLayer));
        stage.set("last_layer", JsonValue::integer(sp.lastLayer));
        stage.set("time_fwd", JsonValue::number(sp.timeFwd));
        stage.set("time_bwd", JsonValue::number(sp.timeBwd));
        stage.set("mem_peak", JsonValue::integer(
                                  static_cast<std::int64_t>(sp.memPeak)));
        stage.set("saved_units", JsonValue::integer(sp.savedUnits));
        stage.set("total_units", JsonValue::integer(sp.totalUnits));
        JsonValue mask = JsonValue::array();
        for (bool saved : sp.savedMask)
            mask.push(JsonValue::boolean(saved));
        stage.set("saved_mask", std::move(mask));
        stage.set("overlap_bubble", JsonValue::number(sp.overlapBubble));
        stage.set("replay_hidden",
                  JsonValue::number(sp.timeReplayHidden));
        stage.set("replay_critical",
                  JsonValue::number(sp.timeReplayCritical));
        // Always emitted; an empty in-memory mask writes as all
        // false so the round-trip length check holds.
        JsonValue omask = JsonValue::array();
        for (int b = 0; b < sp.totalUnits; ++b)
            omask.push(JsonValue::boolean(
                b < static_cast<int>(sp.offloadMask.size()) &&
                sp.offloadMask[b]));
        stage.set("offload_mask", std::move(omask));
        stage.set("offload_bytes",
                  JsonValue::integer(
                      static_cast<std::int64_t>(sp.offloadBytes)));
        stage.set("offload_fetch_us",
                  JsonValue::number(sp.offloadFetchUs));
        stages.push(std::move(stage));
    }
    root.set("stages", std::move(stages));
    return root;
}

std::string
planToJsonString(const PipelinePlan &plan, int indent)
{
    return planToJson(plan).dump(indent);
}

ParseResult<PipelinePlan>
tryPlanFromJson(const JsonValue &json)
{
    return readJson<PipelinePlan>(json, "plan", planFromReader);
}

ParseResult<PipelinePlan>
tryPlanFromJsonString(const std::string &text)
{
    ParseResult<JsonValue> doc = JsonValue::tryParse(text);
    if (!doc.ok())
        return ParseResult<PipelinePlan>::failure(doc.error());
    return tryPlanFromJson(doc.value());
}

ParseResult<PipelinePlan>
loadPlanFile(const std::string &path)
{
    ParseResult<std::string> text = readTextFile(path);
    if (!text.ok())
        return ParseResult<PipelinePlan>::failure(text.error());
    ParseResult<PipelinePlan> plan =
        tryPlanFromJsonString(text.value());
    if (!plan.ok())
        return ParseResult<PipelinePlan>::failure(path + ": " +
                                                  plan.error());
    return plan;
}

} // namespace adapipe
