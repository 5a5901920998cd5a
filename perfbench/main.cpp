/**
 * @file
 * The repository benchmark's binary.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--git-sha <sha>] [--tree-sha <sha>]
 *
 * Runs one workload (plan_paper, train_tinylm, serve_mix), prints
 * every metric by name with its unit and sample count, the
 * correctness checks, and a host block, writes the full
 * result (and, traced, the spans and the library's counters) under
 * .bench_out/ in the working directory, and ends with one JSON line:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * holding the end-to-end metrics (--trace 0) or the per-layer
 * metrics (--trace 1). Exit status 0 means the run completed; the
 * checks' verdict is the "correct" field. perfbench/run.py builds
 * this binary and is the benchmark's entry point.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <thread>

#include "bench.h"
#include "obs/sinks.h"
#include "util/file_io.h"
#include "util/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace adapipe;
using namespace adapipe::perfbench;

namespace {

const std::map<std::string,
               std::function<void(const RunOptions &, Report &,
                                  TraceOutput &)>> &
workloads()
{
    static const std::map<std::string,
                          std::function<void(const RunOptions &,
                                             Report &, TraceOutput &)>>
        table = {{"plan_paper", runPlanPaper},
                 {"train_tinylm", runTrainTinyLm},
                 {"serve_mix", runServeMix}};
    return table;
}

int
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem
              << "\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--git-sha <sha>] "
                 "[--tree-sha <sha>]\nworkloads:";
    for (const auto &w : workloads())
        std::cerr << " " << w.first;
    std::cerr << "\n";
    return 2;
}

JsonValue
metricJson(const Metric &m)
{
    JsonValue out = JsonValue::object();
    out.set("value", JsonValue::number(m.value));
    out.set("unit", JsonValue::string(m.unit));
    out.set("samples",
            JsonValue::integer(static_cast<std::int64_t>(m.samples)));
    return out;
}

JsonValue
metricsJson(const std::map<std::string, Metric> &metrics)
{
    JsonValue out = JsonValue::object();
    for (const auto &[name, m] : metrics)
        out.set(name, metricJson(m));
    return out;
}

void
printMetrics(const char *section,
             const std::map<std::string, Metric> &metrics)
{
    for (const auto &[name, m] : metrics) {
        std::printf("%-9s %-30s %.6g %s (n=%zu)\n", section, name.c_str(),
                    m.value, m.unit.c_str(), m.samples);
    }
}

/** The benchmark's spans as obs records, for the Chrome-trace sink. */
obs::Registry
spansAsRegistry(const SpanLog &log)
{
    obs::Registry out;
    const std::vector<SpanLog::Span> &spans = log.spans();
    for (const SpanLog::Span &s : spans) {
        obs::SpanRecord r;
        r.name = s.name;
        r.startUs = s.startUs;
        r.durUs = s.endUs - s.startUs;
        r.thread = s.thread;
        for (int p = s.parent; p >= 0;
             p = spans[static_cast<std::size_t>(p)].parent)
            ++r.depth;
        out.record(std::move(r));
    }
    return out;
}

std::string
spansJsonLines(const SpanLog &log)
{
    std::string out;
    for (const SpanLog::Span &s : log.spans()) {
        JsonValue line = JsonValue::object();
        line.set("name", JsonValue::string(s.name));
        line.set("start_us", JsonValue::number(s.startUs));
        line.set("end_us", JsonValue::number(s.endUs));
        line.set("parent", JsonValue::integer(s.parent));
        line.set("id", JsonValue::integer(s.id));
        line.set("thread", JsonValue::integer(s.thread));
        out += line.dump(0) + "\n";
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    std::string git_sha = "unknown";
    std::string tree_sha = "unknown";
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                opts.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                opts.seed = std::stoull(value);
                have_seed = true;
            } else if (flag == "--seconds") {
                opts.seconds = std::stod(value);
                have_seconds = opts.seconds > 0;
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    return usage("--trace takes 0 or 1");
                opts.trace = value == "1";
                have_trace = true;
            } else if (flag == "--git-sha") {
                git_sha = value;
            } else if (flag == "--tree-sha") {
                tree_sha = value;
            } else {
                return usage("unknown flag " + flag);
            }
        } catch (const std::exception &) {
            return usage("bad value '" + value + "' for " + flag);
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        return usage("--workload, --seed, --seconds (> 0) and --trace "
                     "are required");
    const auto entry = workloads().find(opts.workload);
    if (entry == workloads().end())
        return usage("unknown workload '" + opts.workload + "'");

    Report report;
    TraceOutput trace;
    entry->second(opts, report, trace);
    report.endToEnd["peak_rss_mib"] = {peakRssMib(), "MiB", 1};
    report.extra["error_frac"] = {
        report.attempted ? static_cast<double>(report.failed) /
                               static_cast<double>(report.attempted)
                         : 1.0,
        "ratio", static_cast<std::size_t>(report.attempted)};
    if (opts.trace)
        zeroUnusedLayers(report);

    std::map<std::string, Metric> &shown =
        opts.trace ? report.layers : report.endToEnd;
    for (auto &[name, m] : shown) {
        if (!std::isfinite(m.value)) {
            report.check("metric " + name + " is finite", "it is not");
            m.value = 0;
        }
    }

    JsonValue host = JsonValue::object();
    host.set("nproc", JsonValue::integer(static_cast<std::int64_t>(
                          std::thread::hardware_concurrency())));
    host.set("build_type", JsonValue::string(PERFBENCH_BUILD_TYPE));
    host.set("git_sha", JsonValue::string(git_sha));
    host.set("tree_sha", JsonValue::string(tree_sha));

    std::printf("workload  %s seed %llu seconds %g trace %d\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0);
    std::printf("host      %s\n", host.dump(0).c_str());
    printMetrics("e2e", report.endToEnd);
    printMetrics("workload", report.extra);
    if (opts.trace)
        printMetrics("layer", report.layers);
    for (const auto &[name, problem] : report.checks) {
        std::printf("check     %-48s %s\n", name.c_str(),
                    problem.empty() ? "ok" : ("FAILED: " + problem).c_str());
    }
    std::printf("ops       attempted %lld failed %lld\n",
                static_cast<long long>(report.attempted),
                static_cast<long long>(report.failed));

    // The full record, beside the build.
    std::error_code ec;
    std::filesystem::create_directories(".bench_out", ec);
    const std::string stem = ".bench_out/" + opts.workload + "-seed" +
                             std::to_string(opts.seed) + "-trace" +
                             (opts.trace ? "1" : "0");
    JsonValue record = JsonValue::object();
    record.set("workload", JsonValue::string(opts.workload));
    record.set("seed", JsonValue::integer(static_cast<std::int64_t>(
                           opts.seed)));
    record.set("seconds", JsonValue::number(opts.seconds));
    record.set("trace", JsonValue::boolean(opts.trace));
    record.set("host", host);
    record.set("correct", JsonValue::boolean(report.correct()));
    record.set("attempted", JsonValue::integer(report.attempted));
    record.set("failed", JsonValue::integer(report.failed));
    record.set("end_to_end", metricsJson(report.endToEnd));
    record.set("workload_metrics", metricsJson(report.extra));
    if (opts.trace)
        record.set("per_layer", metricsJson(report.layers));
    JsonValue series = JsonValue::object();
    for (const auto &[name, values] : report.series) {
        JsonValue arr = JsonValue::array();
        for (const double v : values)
            arr.push(JsonValue::number(v));
        series.set(name, std::move(arr));
    }
    record.set("series", std::move(series));
    JsonValue checks = JsonValue::object();
    for (const auto &[name, problem] : report.checks)
        checks.set(name, JsonValue::string(problem.empty() ? "ok"
                                                           : problem));
    record.set("checks", std::move(checks));
    ParseStatus wrote = writeTextFile(stem + ".json", record.dump(2) + "\n");
    if (wrote.ok() && opts.trace) {
        wrote = writeTextFile(stem + "-spans.jsonl",
                              spansJsonLines(trace.spans));
        if (wrote.ok())
            wrote = writeTextFile(stem + "-counters.jsonl",
                                  obs::toJsonLines(trace.registry));
        if (wrote.ok()) {
            JsonValue events = JsonValue::array();
            obs::appendSpanTraceEvents(trace.registry, events, 1);
            obs::appendSpanTraceEvents(spansAsRegistry(trace.spans),
                                       events, 2);
            JsonValue doc = JsonValue::object();
            doc.set("traceEvents", std::move(events));
            wrote = writeTextFile(stem + "-trace.json", doc.dump(0));
        }
    }
    if (!wrote.ok())
        report.check("result files written", wrote.error());
    else
        std::printf("record    %s.json\n", stem.c_str());

    JsonValue result = JsonValue::object();
    result.set("correct", JsonValue::boolean(report.correct()));
    result.set("attempted", JsonValue::integer(report.attempted));
    result.set("failed", JsonValue::integer(report.failed));
    JsonValue metrics = JsonValue::object();
    for (const auto &[name, m] : shown) {
        JsonValue v = JsonValue::object();
        v.set("value", JsonValue::number(m.value));
        v.set("unit", JsonValue::string(m.unit));
        metrics.set(name, std::move(v));
    }
    result.set("metrics", std::move(metrics));
    std::printf("%s\n", result.dump(0).c_str());
    return 0;
}
