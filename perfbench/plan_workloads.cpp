/**
 * @file
 * plan_paper: the AdaPipe search on the paper's Sec. 5.3
 * configurations, plain (makePlan) and under overlapped recomputation
 * (makeOverlapPlan).
 *
 * One operation is one search of the whole problem set. The timed
 * window repeats it; set-up is the profile build. The traced
 * run interleaves traced and untraced searches (so the tracing
 * overhead is measured in one run) and, outside the timed window,
 * splits the core layer from outside: on one StageCostCalculator, a
 * cold solveAdaptivePartition pays for every stage cost, and a warm
 * re-solve on the same calculator pays only for the partition DP.
 */

#include <utility>

#include "bench.h"
#include "core/partition_dp.h"
#include "core/plan_io.h"
#include "core/planner.h"
#include "core/stage_cost.h"
#include "hw/cluster.h"
#include "model/model_config.h"
#include "sim/interleaved_planner.h"
#include "util/json.h"
#include "util/rng.h"

namespace adapipe {
namespace perfbench {
namespace {

struct Problem
{
    std::string name;
    ModelConfig model;
    TrainConfig train;
    ParallelConfig par;
    int nodes = 8;
    /** Plan with makeOverlapPlan instead of makePlan. */
    bool overlap = false;
};

Problem
paperProblem(const std::string &name, const ModelConfig &model,
             int global_batch, bool overlap)
{
    Problem p;
    p.name = name;
    p.overlap = overlap;
    p.model = model;
    p.train.seqLen = 16384;
    p.train.globalBatch = global_batch;
    p.par.tensor = 8;
    p.par.pipeline = 8;
    p.par.data = 1;
    return p;
}

ProfiledModel
profile(const Problem &p)
{
    return buildProfiledModel(p.model, p.train, p.par,
                              clusterA(p.nodes));
}

/** Serialise, parse back and re-serialise; "" when identical. */
std::string
roundTrip(const std::string &text)
{
    const ParseResult<JsonValue> json = JsonValue::tryParse(text);
    if (!json.ok())
        return "plan JSON does not parse: " + json.error();
    const ParseResult<PipelinePlan> back = tryPlanFromJson(json.value());
    if (!back.ok())
        return "plan_io rejects its own output: " + back.error();
    if (planToJsonString(back.value()) != text)
        return "plan_io round trip changes the plan";
    return "";
}

/** Profile builds timed after each search, for setup_s. */
constexpr int kSetupsPerSearch = 8;

void
runPlanWorkload(const std::vector<Problem> &problems,
                const RunOptions &opts, Report &report,
                TraceOutput &trace)
{
    const std::size_t np = problems.size();
    const auto plan = [&](std::size_t i, const ProfiledModel &pm) {
        return problems[i].overlap
                   ? makeOverlapPlan(pm, PlanMethod::AdaPipe, 1)
                   : makePlan(pm, PlanMethod::AdaPipe);
    };

    // Set-up: build every profile. It is repeated after each search
    // too, outside the search's time, so the reported median spans
    // the same stretch of host time as the searches.
    std::vector<double> setup;
    const auto set_up = [&] {
        const double t0 = nowSeconds();
        std::vector<ProfiledModel> built;
        for (const Problem &p : problems)
            built.push_back(profile(p));
        setup.push_back(nowSeconds() - t0);
        return built;
    };
    const std::vector<ProfiledModel> pms = set_up();

    // Timed window. Odd searches of a traced run are traced;
    // a traced run makes at least one of each.
    const std::int64_t min_ops = opts.trace ? 2 : 1;
    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    std::vector<std::string> first_json(np);
    std::vector<PipelinePlan> first_plan(np);
    std::string mismatch;
    const double start = nowSeconds();
    for (std::int64_t k = 0;
         k < min_ops || nowSeconds() - start < opts.seconds; ++k) {
        const bool traced = opts.trace && k % 2 == 1;
        SpanLog *log = traced ? &trace.spans : nullptr;
        std::vector<PlanResult> results(np);
        {
            obs::ScopedRegistry scoped(traced ? &trace.registry : nullptr);
            const double t0 = nowSeconds();
            {
                SpanScope search(log, "plan.search", k);
                for (std::size_t i = 0; i < np; ++i) {
                    SpanScope one(log, "plan.problem", k);
                    results[i] = plan(i, pms[i]);
                }
            }
            const double dt = nowSeconds() - t0;
            (traced ? traced_s : untraced_s).push_back(dt);
        }
        for (int r = 0; r < kSetupsPerSearch; ++r)
            set_up();

        // Checks stay outside the timed interval.
        for (std::size_t i = 0; i < np; ++i) {
            ++report.attempted;
            if (!results[i].ok) {
                ++report.failed;
                continue;
            }
            const std::string json = planToJsonString(results[i].plan);
            if (first_json[i].empty()) {
                first_json[i] = json;
                first_plan[i] = results[i].plan;
            } else if (json != first_json[i] && mismatch.empty()) {
                mismatch = problems[i].name +
                           " plan differs between searches";
            }
        }
    }

    std::string not_ok;
    std::string round_trip;
    double plan_iter = 0;
    for (std::size_t i = 0; i < np; ++i) {
        if (first_json[i].empty()) {
            not_ok = problems[i].name + " never planned ok";
            continue;
        }
        plan_iter += first_plan[i].timing.total;
        const std::string problem = roundTrip(first_json[i]);
        if (!problem.empty() && round_trip.empty())
            round_trip = problems[i].name + ": " + problem;
    }
    report.check("every plan is ok",
                 report.failed ? std::to_string(report.failed) +
                                     " plans failed"
                               : not_ok);
    report.check("plans identical across searches", mismatch);
    report.check("plan_io round trip", round_trip);
    {
        std::string worse;
        for (std::size_t i = 0; i < np; ++i) {
            if (!problems[i].overlap)
                continue;
            const PlanResult lazy = makePlan(pms[i], PlanMethod::AdaPipe);
            if (!lazy.ok || first_json[i].empty()) {
                worse = problems[i].name + ": no plan to compare";
            } else if (first_plan[i].timing.total >
                       lazy.plan.timing.total) {
                worse = problems[i].name + ": overlap plan predicts " +
                        std::to_string(first_plan[i].timing.total) +
                        " s, lazy plan " +
                        std::to_string(lazy.plan.timing.total) + " s";
            }
        }
        report.check("overlap plan no slower than lazy plan", worse);
    }

    double untraced_total = 0;
    for (const double s : untraced_s)
        untraced_total += s;
    const double search = median(untraced_s);
    report.endToEnd["setup_s"] = {median(setup), "s", setup.size()};
    report.endToEnd["op_p50_ms"] = {search * 1e3, "ms",
                                    untraced_s.size()};
    report.endToEnd["work_per_s"] = {
        static_cast<double>(np * untraced_s.size()) / untraced_total,
        "1/s", untraced_s.size()};
    report.extra["search_s"] = {search, "s", untraced_s.size()};
    report.series["search_s"] = untraced_s;
    report.series["setup_s"] = setup;
    report.extra["plan_iter_s"] = {plan_iter, "s", np};

    if (!opts.trace)
        return;

    // Per-layer split, outside the timed window.
    report.layers["hw.profile_s"] = {median(setup), "s", setup.size()};
    // Summed over the problem set; the isomorphism-hit ratio is also
    // kept per planner, since the overlap planner's bubble budget
    // turns the cache off.
    CoreProbe total;
    CoreProbe by_planner[2];
    bool reproduces = true;
    for (std::size_t i = 0; i < np; ++i) {
        if (first_json[i].empty())
            continue;
        SpanScope span(&trace.spans, "core.probe",
                       static_cast<std::int64_t>(i));
        const CoreProbe c =
            probeCore(pms[i], first_plan[i], problems[i].overlap);
        for (CoreProbe *sum : {&total, &by_planner[problems[i].overlap]}) {
            sum->coldSeconds += c.coldSeconds;
            sum->warmSeconds += c.warmSeconds;
            sum->knapsackRuns += c.knapsackRuns;
            sum->cacheHits += c.cacheHits;
            sum->evaluations += c.evaluations;
            sum->cells += c.cells;
        }
        reproduces = reproduces && c.reproduces;
    }
    report.check("core probe reproduces the planner's partition",
                 reproduces ? "" : "probe partition differs from plan");
    reportCore(report, total, np);
    const char *planner_name[2] = {"makePlan", "makeOverlapPlan"};
    for (int o = 0; o < 2; ++o) {
        const CoreProbe &c = by_planner[o];
        const double lookups =
            static_cast<double>(c.cacheHits + c.evaluations);
        if (lookups > 0)
            report.extra[std::string("iso_hit_ratio.") +
                         planner_name[o]] = {
                static_cast<double>(c.cacheHits) / lookups, "ratio", 1};
    }

    const double searches = static_cast<double>(traced_s.size());
    report.layers["sim.simulate_s"] = {
        registrySpanSeconds(trace.registry, "sim.simulate") / searches,
        "s", traced_s.size()};
    report.layers["sim.events"] = {
        static_cast<double>(trace.registry.counter("sim.events")) /
            searches,
        "count", traced_s.size()};
    report.layers["trace.overhead_frac"] = {
        median(traced_s) / search - 1, "ratio", traced_s.size()};
    report.extra["search_s.traced"] = {median(traced_s), "s",
                                       traced_s.size()};
}

} // namespace

CoreProbe
probeCore(const ProfiledModel &pm, const PipelinePlan &plan,
          bool overlap)
{
    StageCostOptions opts;
    if (overlap) {
        // The planner's second pass: the bubble budget it derived is
        // recorded per stage in the plan it returned.
        for (const StagePlan &s : plan.stages)
            opts.overlapBubblePerMb.push_back(s.overlapBubble);
    }
    const int p = pm.par.pipeline;
    const int n = pm.train.microBatches(pm.par);
    const int layers = pm.numLayers();

    obs::Registry registry;
    obs::ScopedRegistry scoped(&registry);
    StageCostCalculator calc(pm, p, n, opts);
    CoreProbe probe;
    const double t0 = nowSeconds();
    const PartitionDpResult cold =
        solveAdaptivePartition(calc, layers, p, n);
    const double t1 = nowSeconds();
    probe.knapsackRuns = calc.knapsackRuns();
    probe.cacheHits = calc.cacheHits();
    probe.evaluations = calc.evaluations();
    probe.cells = registry.counter("recompute_dp.cells");
    const PartitionDpResult warm =
        solveAdaptivePartition(calc, layers, p, n);
    const double t2 = nowSeconds();
    probe.coldSeconds = t1 - t0;
    probe.warmSeconds = t2 - t1;

    std::vector<std::pair<int, int>> planned;
    for (const StagePlan &s : plan.stages)
        planned.emplace_back(s.firstLayer, s.lastLayer);
    probe.reproduces = cold.feasible && cold.ranges == planned &&
                       warm.ranges == planned;
    return probe;
}

void
reportCore(Report &report, const CoreProbe &c, std::size_t problems)
{
    report.layers["core.stage_cost_s"] = {
        c.coldSeconds - c.warmSeconds, "s", problems};
    report.layers["core.partition_dp_s"] = {c.warmSeconds, "s",
                                            problems};
    report.layers["core.knapsack_runs"] = {
        static_cast<double>(c.knapsackRuns), "count", problems};
    report.layers["core.recompute_dp_cells"] = {
        static_cast<double>(c.cells), "count", problems};
    const double lookups =
        static_cast<double>(c.cacheHits + c.evaluations);
    report.layers["core.iso_hit_ratio"] = {
        lookups > 0 ? static_cast<double>(c.cacheHits) / lookups : 0,
        "ratio", problems};
}

void
runPlanPaper(const RunOptions &opts, Report &report, TraceOutput &trace)
{
    std::vector<Problem> problems = {
        paperProblem("gpt3-175b", gpt3_175b(), 64, false),
        paperProblem("llama2-70b", llama2_70b(), 64, false),
        paperProblem("gpt3-175b-overlap", gpt3_175b(), 16, true)};
    // The seed orders the problem set; the work is the same.
    Rng rng(opts.seed);
    for (std::size_t i = problems.size() - 1; i > 0; --i)
        std::swap(problems[i],
                  problems[static_cast<std::size_t>(rng.uniformInt(
                      0, static_cast<std::int64_t>(i)))]);
    runPlanWorkload(problems, opts, report, trace);
}

} // namespace perfbench
} // namespace adapipe
