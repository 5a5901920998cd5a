#include "request_stream.h"

#include <utility>

#include "util/json.h"

namespace adapipe {
namespace perfbench {
namespace {

JsonValue
planObject(const std::string &model, int seq, int global_batch, int tensor,
           int pipeline)
{
    JsonValue plan = JsonValue::object();
    plan.set("model", JsonValue::string(model));
    JsonValue cluster = JsonValue::object();
    cluster.set("name", JsonValue::string("a"));
    cluster.set("nodes", JsonValue::integer((tensor * pipeline + 7) / 8));
    plan.set("cluster", std::move(cluster));
    JsonValue train = JsonValue::object();
    train.set("seq_len", JsonValue::integer(seq));
    train.set("global_batch", JsonValue::integer(global_batch));
    plan.set("train", std::move(train));
    JsonValue par = JsonValue::object();
    par.set("tensor", JsonValue::integer(tensor));
    par.set("pipeline", JsonValue::integer(pipeline));
    plan.set("parallel", std::move(par));
    return plan;
}

std::string
requestLine(const char *kind, JsonValue plan,
            const JsonValue *fault = nullptr)
{
    JsonValue root = JsonValue::object();
    root.set("kind", JsonValue::string(kind));
    root.set("plan", std::move(plan));
    if (fault)
        root.set("fault", *fault);
    return root.dump(0);
}

} // namespace

RequestStream::RequestStream(std::uint64_t seed) : rng_(seed)
{
    const auto add = [this](std::string line, bool replan) {
        lines_.push_back(std::move(line));
        replan_.push_back(replan);
    };
    // Per model, one memory-tight shape (t = 2: the planner runs real
    // knapsacks, 0.1 to 0.4 s per cold plan, and replans hit the
    // knapsack memo) and one roomy shape (t = 4: milliseconds), so
    // the stream exercises both the response cache and the memo. The
    // set is small enough that a serve_mix round of 2,000 draws
    // issues nearly all of it, so a round's cold work hardly depends
    // on the seed.
    struct Shape
    {
        const char *model;
        int seq;
        int tensor;
    };
    const Shape shapes[] = {{"gpt3-13b", 2048, 2},  {"gpt3-13b", 2048, 4},
                            {"gpt3-6.7b", 4096, 2}, {"gpt3-6.7b", 8192, 4},
                            {"llama2-13b", 2048, 2}, {"llama2-13b", 4096, 4}};
    for (const Shape &shape : shapes) {
        for (const int gb : {32, 64}) {
            for (const int p : {2, 4}) {
                const JsonValue plan =
                    planObject(shape.model, shape.seq, gb, shape.tensor, p);
                add(requestLine("plan", plan), false);
                add(requestLine("explain", plan), false);
                for (int stage = 0; stage < p; ++stage) {
                    for (const double factor : {1.5, 3.0}) {
                        JsonValue fault = JsonValue::object();
                        fault.set("straggler_stage",
                                  JsonValue::integer(stage));
                        fault.set("straggler_factor",
                                  JsonValue::number(factor));
                        add(requestLine("replan", plan, &fault), true);
                    }
                }
            }
        }
    }
    seen_.assign(lines_.size(), false);
}

StreamRequest
RequestStream::next()
{
    StreamRequest req;
    req.key = static_cast<int>(
        rng_.uniformInt(0, static_cast<std::int64_t>(lines_.size()) - 1));
    const auto key = static_cast<std::size_t>(req.key);
    req.repeat = seen_[key];
    seen_[key] = true;
    req.line = lines_[key];
    req.replan = replan_[key];
    return req;
}

} // namespace perfbench
} // namespace adapipe
