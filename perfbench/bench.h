/**
 * @file
 * Shared infrastructure of the repository benchmark: the run's
 * options, the metric report every workload fills in, sample
 * statistics, and the span log the traced run records.
 *
 * The benchmark measures the library from outside: it times calls
 * into the public functions of each layer and, in the traced run,
 * reads the counters the library already keeps through an installed
 * obs::Registry. Nothing here reaches into the library's internals.
 */

#ifndef ADAPIPE_PERFBENCH_BENCH_H
#define ADAPIPE_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/plan.h"
#include "core/profiled_model.h"
#include "obs/registry.h"

namespace adapipe {
namespace perfbench {

/** What one invocation runs. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the timed window. */
    double seconds = 10;
    /** Traced run: per-layer metrics, spans, registry counters. */
    bool trace = false;
};

/** @return seconds on the monotonic clock. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** @return the process's peak resident set size in MiB. */
double peakRssMib();

/**
 * @return the median of @p values: the middle sample, or the mean of
 * the two middle samples of an even count (0 for an empty set).
 */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile @p q (0 < q < 1) of @p values, reported
 * only when at least ten samples lie beyond it; a tail estimate
 * resting on fewer samples is noise, so it is withheld.
 */
std::optional<double> tailPercentile(std::vector<double> values,
                                     double q);

/** One reported number. */
struct Metric
{
    double value = 0;
    std::string unit;
    /** Samples the value summarises (1 for a single measurement). */
    std::size_t samples = 1;
};

/**
 * Everything one workload run reports. endToEnd and layers hold the
 * metrics BENCHMARK.json names (the untraced and traced run print
 * them respectively); extra holds the workload's own end-to-end
 * numbers under the names its design uses, printed but not gated.
 */
struct Report
{
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> extra;
    std::map<std::string, Metric> layers;
    /** Raw timed samples behind the medians, for the run record. */
    std::map<std::string, std::vector<double>> series;
    /** Operations attempted and failed in the timed window. */
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    /** Correctness checks, in the order they ran. */
    std::vector<std::pair<std::string, std::string>> checks;

    /** Record a check; an empty @p problem means it passed. */
    void check(const std::string &name, const std::string &problem)
    {
        checks.emplace_back(name, problem);
    }

    bool
    correct() const
    {
        for (const auto &c : checks)
            if (!c.second.empty())
                return false;
        return !checks.empty();
    }
};

/**
 * Spans recorded by the benchmark around its calls into each layer:
 * name, start, end, the span that caused it, and an identifier shared
 * by every span of one request, step or plan. Not thread-safe; each
 * thread records into its own log and the logs are merged at the end.
 * A null log (untraced run) makes SpanScope a no-op.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0;
        double endUs = 0;
        /** Index of the enclosing span in the merged log, or -1. */
        int parent = -1;
        std::int64_t id = 0;
        std::uint32_t thread = 0;
    };

    int open(const char *name, std::int64_t id);
    void close(int index);

    /** Append @p other's spans, re-basing their parent indices. */
    void merge(const SpanLog &other);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

class SpanScope
{
  public:
    SpanScope(SpanLog *log, const char *name, std::int64_t id = 0)
        : log_(log), index_(log ? log->open(name, id) : -1)
    {
    }
    ~SpanScope()
    {
        if (log_)
            log_->close(index_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *log_;
    int index_;
};

/** Sum of the durations (seconds) of registry spans named @p name. */
double registrySpanSeconds(const obs::Registry &registry,
                           const std::string &name);

/** What a traced run writes besides its report. */
struct TraceOutput
{
    SpanLog spans;
    /** The library's own counters and spans, merged from all threads. */
    obs::Registry registry;
};

/**
 * The core layer split from outside for one planned problem: on one
 * StageCostCalculator, a cold solveAdaptivePartition pays for every
 * stage cost (knapsacks and isomorphism-cache lookups) and a warm
 * re-solve pays only for the partition DP, so stage-cost time is
 * cold minus warm.
 */
struct CoreProbe
{
    double coldSeconds = 0;
    double warmSeconds = 0;
    std::size_t knapsackRuns = 0;
    /** Stage-cost lookups served from the calculator's cache. */
    std::size_t cacheHits = 0;
    /** Stage costs computed (cache misses). */
    std::size_t evaluations = 0;
    std::int64_t cells = 0;
    /** Both solves return the partition of @p plan. */
    bool reproduces = false;
};

/**
 * Probe the search that produced @p plan. With @p overlap the probe
 * replays the overlap planner's second pass, using the per-stage
 * bubble budget recorded in the plan.
 */
CoreProbe probeCore(const ProfiledModel &pm, const PipelinePlan &plan,
                    bool overlap);

/** Set the core.* layer metrics from @p probe (summed over problems). */
void reportCore(Report &report, const CoreProbe &probe,
                std::size_t problems);

/** Workload entry points; each fills @p report and @p trace. */
void runPlanPaper(const RunOptions &opts, Report &report,
                  TraceOutput &trace);
void runTrainTinyLm(const RunOptions &opts, Report &report,
                    TraceOutput &trace);
void runServeMix(const RunOptions &opts, Report &report,
                 TraceOutput &trace);

/**
 * Fill every per-layer metric a workload does not drive with 0, so
 * the traced report always names the full layer set. Called after a
 * workload has set the metrics of the layers it exercises.
 */
void zeroUnusedLayers(Report &report);

/** Per-layer metric names and units, in report order. */
const std::vector<std::pair<std::string, std::string>> &layerMetrics();

} // namespace perfbench
} // namespace adapipe

#endif // ADAPIPE_PERFBENCH_BENCH_H
