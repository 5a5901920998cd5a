/**
 * @file
 * serve_mix: a closed loop of kClients client connections to an
 * in-process PlanServer with kWorkers workers, sending the seeded
 * request stream (request_stream.h). Each client sends its next
 * request only after the previous reply, as callers waiting for
 * their plan do.
 *
 * The timed window is made of rounds. Each round starts a fresh
 * server (empty response cache and knapsack memo) and sends the
 * first kRoundRequests requests of the stream, so every round does
 * the same work. One operation is one request; set-up is server
 * start, timed on the round's server and on kExtraStarts throwaway
 * servers started and stopped before it. Every reply must be ok, and every reply to a request seen
 * before, in this round or an earlier one, must be byte-identical to
 * the first reply to it. The traced run records a span around every
 * other request (by stream index), so the tracing overhead is
 * measured within the run, and after each round times the
 * in-process handler on warm requests.
 */

#include <mutex>
#include <thread>

#include "bench.h"
#include "request_stream.h"
#include "service/client.h"
#include "service/server.h"
#include "util/json.h"

namespace adapipe {
namespace perfbench {
namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr std::int64_t kRoundRequests = 2000;
/** Throwaway server starts timed per round, for setup_s. */
constexpr int kExtraStarts = 8;

/** One completed request, as its client saw it. */
struct Sample
{
    double latencyMs = 0;
    bool repeat = false;
    bool replan = false;
    bool traced = false;
};

/** State the clients share: the round's stream and the first replies. */
struct Shared
{
    std::mutex mutex;
    RequestStream stream;
    std::int64_t sent = 0;
    /** First reply per distinct request, kept across rounds. */
    std::vector<std::string> firstReply;
    /** Warm request lines of the round, for the handler timing. */
    std::vector<std::string> warmLines;
    std::string problem;

    explicit Shared(std::uint64_t seed) : stream(seed)
    {
        firstReply.resize(stream.distinct());
    }
};

bool
isOk(const std::string &reply)
{
    return reply.rfind("{\"ok\":true", 0) == 0;
}

void
clientLoop(int port, Shared &shared,
           std::vector<Sample> &samples, SpanLog *log,
           std::int64_t &failed)
{
    PlanClient client;
    if (!client.connect("127.0.0.1", port).ok()) {
        std::lock_guard<std::mutex> lock(shared.mutex);
        ++failed;
        if (shared.problem.empty())
            shared.problem = "client could not connect";
        return;
    }
    SpanScope loop(log, "serve.client");
    for (;;) {
        StreamRequest req;
        std::int64_t index = 0;
        {
            std::lock_guard<std::mutex> lock(shared.mutex);
            if (shared.sent == kRoundRequests)
                return;
            req = shared.stream.next();
            index = shared.sent++;
        }
        const bool traced = log && index % 2 == 1;
        const double t0 = nowSeconds();
        ParseResult<std::string> reply = [&] {
            SpanScope span(traced ? log : nullptr, "serve.request",
                           index);
            return client.request(req.line);
        }();
        const double dt = nowSeconds() - t0;
        samples.push_back({dt * 1e3, req.repeat, req.replan, traced});

        std::lock_guard<std::mutex> lock(shared.mutex);
        if (!reply.ok() || !isOk(reply.value())) {
            ++failed;
            if (shared.problem.empty())
                shared.problem = "request " + std::to_string(index) +
                                 " failed: " +
                                 (reply.ok() ? reply.value().substr(0, 200)
                                             : reply.error());
            if (!reply.ok())
                return; // the connection is gone
            continue;
        }
        std::string &first =
            shared.firstReply[static_cast<std::size_t>(req.key)];
        if (first.empty()) {
            first = std::move(reply).value();
        } else if (reply.value() != first) {
            if (shared.problem.empty())
                shared.problem = "request " + std::to_string(index) +
                                 " reply differs from the first reply";
        } else if (shared.warmLines.size() < 200) {
            shared.warmLines.push_back(req.line);
        }
    }
}

double
latencyMedian(const std::vector<Sample> &all, bool (*keep)(const Sample &))
{
    std::vector<double> ms;
    for (const Sample &s : all)
        if (keep(s))
            ms.push_back(s.latencyMs);
    return median(ms);
}

std::size_t
countIf(const std::vector<Sample> &all, bool (*keep)(const Sample &))
{
    std::size_t n = 0;
    for (const Sample &s : all)
        n += keep(s);
    return n;
}

double
count(const JsonValue &stats, const char *section, const char *key)
{
    return stats.at(section).at(key).asNumber();
}

double
ratio(double hits, double misses)
{
    return hits + misses > 0 ? hits / (hits + misses) : 0;
}

} // namespace

void
runServeMix(const RunOptions &opts, Report &report, TraceOutput &trace)
{
    PlanServerOptions server_opts;
    server_opts.threads = kWorkers;

    Shared shared(opts.seed);
    std::vector<double> setup;
    std::vector<Sample> all;
    std::vector<SpanLog> logs(kClients);
    std::vector<double> handle_us;
    double busy = 0;
    double cache_hits = 0, cache_misses = 0, memo_hits = 0, memo_misses = 0;
    bool stats_ok = true;
    const double start = nowSeconds();
    for (std::int64_t round = 0;
         round == 0 || nowSeconds() - start < opts.seconds; ++round) {
        // Set-up samples: throwaway servers started and stopped, then
        // the round's own server.
        const auto start_server = [&](PlanServer &server) {
            const double t0 = nowSeconds();
            const ParseStatus started = server.start();
            setup.push_back(nowSeconds() - t0);
            if (!started.ok())
                report.check("server starts", started.error());
            return started.ok();
        };
        for (int r = 0; r < kExtraStarts; ++r) {
            PlanServer spare(server_opts);
            if (!start_server(spare))
                return;
            spare.stop();
        }
        PlanServer server(server_opts);
        if (!start_server(server))
            return;
        shared.stream = RequestStream(opts.seed);
        shared.sent = 0;
        shared.warmLines.clear();

        std::vector<std::vector<Sample>> samples(kClients);
        std::vector<std::int64_t> failed(kClients, 0);
        const double t1 = nowSeconds();
        {
            std::vector<std::thread> clients;
            for (std::size_t c = 0; c < kClients; ++c) {
                clients.emplace_back(clientLoop, server.port(),
                                     std::ref(shared), std::ref(samples[c]),
                                     opts.trace ? &logs[c] : nullptr,
                                     std::ref(failed[c]));
            }
            for (std::thread &t : clients)
                t.join();
        }
        busy += nowSeconds() - t1;
        for (std::size_t c = 0; c < kClients; ++c) {
            all.insert(all.end(), samples[c].begin(), samples[c].end());
            report.failed += failed[c];
        }
        report.attempted += shared.sent;

        const ParseResult<std::string> stats_line = serviceRequest(
            "127.0.0.1", server.port(), "{\"kind\":\"stats\"}");
        const ParseResult<JsonValue> stats =
            stats_line.ok() ? JsonValue::tryParse(stats_line.value())
                            : ParseResult<JsonValue>::failure(stats_line.error());
        if (stats.ok()) {
            cache_hits += count(stats.value(), "cache", "hits");
            cache_misses += count(stats.value(), "cache", "misses");
            memo_hits += count(stats.value(), "memo", "hits");
            memo_misses += count(stats.value(), "memo", "misses");
        } else {
            stats_ok = false;
        }

        if (opts.trace) {
            SpanScope span(&trace.spans, "service.handle_line", round);
            for (const std::string &line : shared.warmLines) {
                const double h0 = nowSeconds();
                const std::string reply = server.service().handleLine(line);
                handle_us.push_back((nowSeconds() - h0) * 1e6);
                if (!isOk(reply) && shared.problem.empty())
                    shared.problem = "in-process warm request failed";
            }
        }
        server.stop();
        if (opts.trace)
            trace.registry.merge(server.metrics());
    }

    report.check("every reply ok and every warm reply byte-identical",
                 shared.problem);
    report.check("server stats readable",
                 stats_ok ? "" : "stats request failed");

    std::vector<double> latency;
    for (const Sample &s : all)
        if (!s.traced)
            latency.push_back(s.latencyMs);
    const double rps = static_cast<double>(all.size()) / busy;
    report.endToEnd["setup_s"] = {median(setup), "s", setup.size()};
    report.series["setup_s"] = setup;
    report.endToEnd["op_p50_ms"] = {median(latency), "ms", latency.size()};
    report.endToEnd["work_per_s"] = {rps, "1/s", all.size()};
    report.extra["serve_rps"] = {rps, "1/s", all.size()};
    report.extra["serve_p50_ms"] = report.endToEnd["op_p50_ms"];
    if (const std::optional<double> p99 = tailPercentile(latency, 0.99))
        report.extra["serve_p99_ms"] = {*p99, "ms", latency.size()};
    report.extra["repeat_share"] = {
        static_cast<double>(countIf(all, [](const Sample &s) {
            return s.repeat;
        })) / static_cast<double>(all.size()),
        "ratio", all.size()};
    report.extra["cache_hit_ratio"] = {
        ratio(cache_hits, cache_misses), "ratio", all.size()};

    if (!opts.trace)
        return;

    for (const SpanLog &log : logs)
        trace.spans.merge(log);
    const obs::Registry &reg = trace.registry;
    const double n = static_cast<double>(all.size());

    report.layers["service.repeat_share"] = report.extra["repeat_share"];
    report.layers["service.cache_hit_ratio"] =
        report.extra["cache_hit_ratio"];
    report.layers["service.memo_hit_ratio"] = {
        ratio(memo_hits, memo_misses), "ratio", all.size()};
    const auto cold = [](const Sample &s) { return !s.repeat; };
    const auto warm = [](const Sample &s) { return s.repeat; };
    const auto replan = [](const Sample &s) {
        return !s.repeat && s.replan;
    };
    report.layers["service.cold_p50_ms"] = {
        latencyMedian(all, cold), "ms", countIf(all, cold)};
    const double warm_ms = latencyMedian(all, warm);
    report.layers["service.warm_p50_ms"] = {warm_ms, "ms",
                                            countIf(all, warm)};
    report.layers["service.replan_p50_ms"] = {
        latencyMedian(all, replan), "ms", countIf(all, replan)};
    const double handle = median(handle_us);
    report.layers["service.handle_us"] = {handle, "us", handle_us.size()};
    report.layers["service.transport_us"] = {warm_ms * 1e3 - handle, "us",
                                             handle_us.size()};

    // Library counters, per request.
    const auto per_request = [&](const char *counter) {
        return static_cast<double>(reg.counter(counter)) / n;
    };
    report.layers["robust.replans"] = {per_request("robust.replans"),
                                       "count", all.size()};
    report.layers["robust.replan_shortcircuit"] = {
        per_request("robust.replan_shortcircuit"), "count", all.size()};
    report.layers["core.knapsack_runs"] = {
        per_request("recompute_dp.runs"), "count", all.size()};
    report.layers["core.recompute_dp_cells"] = {
        per_request("recompute_dp.cells"), "count", all.size()};
    const double hits =
        static_cast<double>(reg.counter("stage_cost.cache_hits"));
    const double evals =
        static_cast<double>(reg.counter("stage_cost.evaluations"));
    report.layers["core.iso_hit_ratio"] = {
        hits + evals > 0 ? hits / (hits + evals) : 0, "ratio",
        all.size()};
    report.layers["sim.simulate_s"] = {
        registrySpanSeconds(reg, "sim.simulate") / n, "s", all.size()};
    report.layers["sim.events"] = {per_request("sim.events"), "count",
                                   all.size()};

    const auto warm_traced = [](const Sample &s) {
        return s.repeat && s.traced;
    };
    const auto warm_untraced = [](const Sample &s) {
        return s.repeat && !s.traced;
    };
    report.layers["trace.overhead_frac"] = {
        latencyMedian(all, warm_traced) / latencyMedian(all, warm_untraced) -
            1,
        "ratio", countIf(all, warm_traced)};
}

} // namespace perfbench
} // namespace adapipe
