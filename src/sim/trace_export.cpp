#include "sim/trace_export.h"

#include "obs/sinks.h"
#include "util/json.h"
#include "util/logging.h"

namespace adapipe {

namespace {

JsonValue
traceRoot(const Schedule &sched, JsonValue events)
{
    JsonValue root = JsonValue::object();
    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", JsonValue::string("ms"));
    root.set("otherData",
             [&] {
                 JsonValue o = JsonValue::object();
                 o.set("schedule", JsonValue::string(sched.name));
                 return o;
             }());
    return root;
}

JsonValue
scheduleEvents(const Schedule &sched, const SimResult &result)
{
    ADAPIPE_ASSERT(result.records.size() == sched.ops.size(),
                   "result does not match schedule");

    JsonValue events = JsonValue::array();
    for (std::size_t i = 0; i < sched.ops.size(); ++i) {
        const PipeOp &op = sched.ops[i];
        const OpRecord &rec = result.records[i];

        JsonValue ev = JsonValue::object();
        std::string name(op.kind == OpKind::Forward ? "F" : "B");
        name += std::to_string(op.microBatch);
        if (op.samples > 1) {
            name += '-';
            name += std::to_string(op.microBatch + op.samples - 1);
        }
        ev.set("name", JsonValue::string(std::move(name)));
        ev.set("cat", JsonValue::string(
                          op.kind == OpKind::Forward ? "forward"
                                                     : "backward"));
        ev.set("ph", JsonValue::string("X"));
        // Trace timestamps are microseconds.
        ev.set("ts", JsonValue::number(rec.start * 1e6));
        ev.set("dur", JsonValue::number((rec.end - rec.start) * 1e6));
        ev.set("pid", JsonValue::integer(0));
        ev.set("tid", JsonValue::integer(op.device));

        JsonValue args = JsonValue::object();
        args.set("chain", JsonValue::integer(op.chain));
        args.set("position", JsonValue::integer(op.pos));
        args.set("micro_batch", JsonValue::integer(op.microBatch));
        ev.set("args", std::move(args));
        events.push(std::move(ev));
    }

    // Thread names so rows read "device N" in the viewer.
    for (int d = 0; d < sched.numDevices; ++d) {
        JsonValue meta = JsonValue::object();
        meta.set("name", JsonValue::string("thread_name"));
        meta.set("ph", JsonValue::string("M"));
        meta.set("pid", JsonValue::integer(0));
        meta.set("tid", JsonValue::integer(d));
        JsonValue args = JsonValue::object();
        args.set("name",
                 JsonValue::string("device " + std::to_string(d)));
        meta.set("args", std::move(args));
        events.push(std::move(meta));
    }
    return events;
}

} // namespace

std::string
toChromeTrace(const Schedule &sched, const SimResult &result)
{
    return traceRoot(sched, scheduleEvents(sched, result)).dump(0);
}

std::string
toChromeTrace(const Schedule &sched, const SimResult &result,
              const obs::Registry &metrics)
{
    JsonValue events = scheduleEvents(sched, result);
    // Search spans go under pid 1 so the viewer groups them apart
    // from the simulated devices (pid 0).
    obs::appendSpanTraceEvents(metrics, events, 1);
    JsonValue root = traceRoot(sched, std::move(events));
    return root.dump(0);
}

} // namespace adapipe
