/**
 * @file
 * Command-line client for the plan server.
 *
 * Builds a request from flags (mirroring export_plan's vocabulary)
 * or sends a raw JSON line, and prints the response. One process =
 * one connection = one request, which keeps it scriptable:
 *
 *   plan_client --port 7421 --model gpt3-13b --pipeline 4 --tensor 4
 *   plan_client --port 7421 --kind replan --straggler-stage 1 \
 *       --straggler-factor 2.0
 *   plan_client --port 7421 --kind stats
 *   plan_client --port 7421 --raw '{"kind":"shutdown"}'
 */

#include <iostream>

#include "core/plan.h"
#include "service/client.h"
#include "util/cli.h"
#include "util/json.h"

using namespace adapipe;

int
main(int argc, char **argv)
{
    CliParser cli("plan_client");
    cli.addString("host", "127.0.0.1", "server address");
    cli.addInt("port", 7421, "server port");
    cli.addString("kind", "plan",
                  "request kind: plan|explain|replan|stats|shutdown");
    cli.addString("raw", "",
                  "send this JSON line verbatim (overrides all "
                  "request flags)");
    cli.addString("model", "gpt3-13b",
                  "model: gpt3|llama2|gpt3-13b|gpt3-6.7b|"
                  "llama2-13b|tiny-test");
    cli.addString("cluster", "a", "cluster preset: a|b");
    cli.addInt("nodes", 1, "cluster nodes");
    cli.addInt("seq", 4096, "sequence length");
    cli.addInt("micro-batch", 1, "micro-batch size");
    cli.addInt("global-batch", 32, "global batch size");
    cli.addInt("tensor", 4, "tensor-parallel size");
    cli.addInt("pipeline", 2, "pipeline-parallel size");
    cli.addInt("data", 1, "data-parallel size");
    cli.addString("method", "adapipe", planMethodWireNames());
    cli.addString("family", "1f1b",
                  "schedule family: 1f1b|interleaved|best");
    cli.addInt("virtual-stages", 2,
               "virtual stages (interleaved family)");
    cli.addInt("straggler-stage", -1,
               "replan: straggling stage (-1 = none)");
    cli.addString("straggler-factor", "1.0",
                  "replan: straggler slowdown factor");
    cli.addString("mem-factor", "1.0",
                  "replan: usable-memory factor (0, 1]");
    cli.addInt("lost-stages", 0, "replan: stages lost to failure");
    cli.parse(argc, argv);

    std::string line = cli.getString("raw");
    if (line.empty()) {
        const std::string kind = cli.getString("kind");
        JsonValue root = JsonValue::object();
        root.set("kind", JsonValue::string(kind));
        if (kind == "plan" || kind == "explain" ||
            kind == "replan") {
            JsonValue plan = JsonValue::object();
            plan.set("model",
                     JsonValue::string(cli.getString("model")));
            JsonValue cluster = JsonValue::object();
            cluster.set("name",
                        JsonValue::string(cli.getString("cluster")));
            cluster.set("nodes",
                        JsonValue::integer(cli.getInt("nodes")));
            plan.set("cluster", std::move(cluster));
            JsonValue train = JsonValue::object();
            train.set("micro_batch",
                      JsonValue::integer(cli.getInt("micro-batch")));
            train.set("seq_len",
                      JsonValue::integer(cli.getInt("seq")));
            train.set("global_batch",
                      JsonValue::integer(
                          cli.getInt("global-batch")));
            plan.set("train", std::move(train));
            JsonValue par = JsonValue::object();
            par.set("tensor",
                    JsonValue::integer(cli.getInt("tensor")));
            par.set("pipeline",
                    JsonValue::integer(cli.getInt("pipeline")));
            par.set("data", JsonValue::integer(cli.getInt("data")));
            plan.set("parallel", std::move(par));
            plan.set("method",
                     JsonValue::string(cli.getString("method")));
            JsonValue schedule = JsonValue::object();
            schedule.set("family",
                         JsonValue::string(cli.getString("family")));
            schedule.set("virtual_stages",
                         JsonValue::integer(
                             cli.getInt("virtual-stages")));
            plan.set("schedule", std::move(schedule));
            root.set("plan", std::move(plan));
        }
        if (kind == "replan") {
            JsonValue fault = JsonValue::object();
            fault.set("straggler_stage",
                      JsonValue::integer(
                          cli.getInt("straggler-stage")));
            fault.set("straggler_factor",
                      JsonValue::number(std::stod(
                          cli.getString("straggler-factor"))));
            fault.set("mem_factor",
                      JsonValue::number(
                          std::stod(cli.getString("mem-factor"))));
            fault.set("lost_stages",
                      JsonValue::integer(cli.getInt("lost-stages")));
            root.set("fault", std::move(fault));
        }
        line = root.dump(0);
    }

    const ParseResult<std::string> response =
        serviceRequest(cli.getString("host"),
                       static_cast<int>(cli.getInt("port")), line);
    if (!response.ok()) {
        std::cerr << "plan_client: error: " << response.error()
                  << "\n";
        return 1;
    }
    std::cout << response.value() << "\n";

    // Exit non-zero when the service reported a failure, so shell
    // scripts and CI can branch on it without parsing JSON.
    const ParseResult<JsonValue> parsed =
        JsonValue::tryParse(response.value());
    if (parsed.ok() && parsed.value().isObject() &&
        parsed.value().contains("ok") &&
        parsed.value().at("ok").isBool() &&
        !parsed.value().at("ok").asBool()) {
        return 2;
    }
    return 0;
}
