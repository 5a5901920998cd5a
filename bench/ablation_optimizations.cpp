/**
 * @file
 * Ablation of the Sec. 5.3 search optimisations: isomorphism caching
 * of f/b[s,i,j] and GCD quantisation of the knapsack.
 *
 * Reports knapsack executions, cache hits and wall time for the full
 * AdaPipe search with each optimisation toggled, plus the resulting
 * plan quality (which must not change). A second table times the
 * default search for GPT-3 175B and Llama 2 70B; a third times the
 * two-pass overlapped-recomputation planner, whose second pass plans
 * under per-stage bubble budgets; a fourth scales the pipeline size p
 * at fixed L to show the partitioning DP's O(m' p L^2) growth.
 */

#include <chrono>
#include <iostream>
#include <string>

#include "core/partition_dp.h"
#include "core/profiled_model.h"
#include "hw/cluster.h"
#include "model/model_config.h"
#include "obs/macros.h"
#include "obs/registry.h"
#include "sim/interleaved_planner.h"
#include "util/table.h"
#include "util/units.h"

using namespace adapipe;

namespace {

struct AblationRow
{
    std::string label;
    double millis = 0;
    std::size_t knapsacks = 0;
    std::size_t hits = 0;
    Seconds planTime = 0;
};

AblationRow
runSearch(const ProfiledModel &pm, const std::string &label,
          bool isomorphism, bool gcd, int max_buckets)
{
    const int p = pm.par.pipeline;
    const int n = pm.train.microBatches(pm.par);
    StageCostOptions opts;
    opts.useIsomorphism = isomorphism;
    opts.dp.useGcd = gcd;
    opts.dp.maxBuckets = max_buckets;

    const auto start = std::chrono::steady_clock::now();
    StageCostCalculator calc(pm, p, n, opts);
    const PartitionDpResult r =
        solveAdaptivePartition(calc, pm.numLayers(), p, n);
    const auto end = std::chrono::steady_clock::now();

    AblationRow row;
    row.label = label;
    row.millis = std::chrono::duration<double, std::milli>(end - start)
                     .count();
    row.knapsacks = calc.knapsackRuns();
    row.hits = calc.cacheHits();
    row.planTime = r.feasible ? r.timing.total : -1;
    return row;
}

/**
 * Both passes of makeOverlapPlan (v = 1). The planner builds its own
 * calculators, so knapsack runs and cache hits are read from the
 * counters it reports into the obs registry.
 */
AblationRow
runOverlapSearch(const ProfiledModel &pm, const std::string &label,
                 bool isomorphism)
{
    StageCostOptions opts;
    opts.useIsomorphism = isomorphism;
    obs::Registry registry;
    obs::ScopedRegistry scoped(&registry);

    const auto start = std::chrono::steady_clock::now();
    const PlanResult r =
        makeOverlapPlan(pm, PlanMethod::AdaPipe, 1, opts);
    const auto end = std::chrono::steady_clock::now();

    AblationRow row;
    row.label = label;
    row.millis = std::chrono::duration<double, std::milli>(end - start)
                     .count();
    row.knapsacks = static_cast<std::size_t>(
        registry.counter("recompute_dp.runs"));
    row.hits = static_cast<std::size_t>(
        registry.counter("stage_cost.cache_hits"));
    row.planTime = r.ok ? r.plan.timing.total : -1;
    return row;
}

std::string
planCell(const AblationRow &row)
{
    return row.planTime < 0 ? "OOM" : formatSeconds(row.planTime);
}

/** A registry counter, or "n/a" when instrumentation is compiled out. */
std::string
counterCell(std::size_t count)
{
    return ADAPIPE_OBS_ENABLED ? std::to_string(count) : "n/a";
}

} // namespace

int
main()
{
    const ModelConfig model = gpt3_175b();
    const ClusterSpec cluster = clusterA(8);
    TrainConfig train;
    train.seqLen = 16384;
    train.globalBatch = 32;
    ParallelConfig par;
    par.tensor = 8;
    par.pipeline = 8;
    par.data = 1;

    const ProfiledModel pm =
        buildProfiledModel(model, train, par, cluster);

    std::cout << "Ablation: Sec. 5.3 search optimisations ("
              << model.name << ", seq " << train.seqLen
              << ", strategy " << par.toString() << ")\n\n";

    Table table({"Configuration", "Search time", "Knapsack runs",
                 "Cache hits", "Plan iteration time"});
    for (const auto &[label, iso, gcd, buckets] :
         {std::tuple{"AdaPipe defaults (isomorphism + GCD, 16Ki "
                     "buckets)",
                     true, true, 1 << 14},
          std::tuple{"no isomorphism caching", false, true, 1 << 14},
          std::tuple{"coarse DP granularity (512 buckets)", true,
                     true, 512},
          std::tuple{"fine DP granularity (128Ki buckets)", true,
                     true, 1 << 17},
          std::tuple{"no GCD, fine granularity", true, false,
                     1 << 17}}) {
        const AblationRow row =
            runSearch(pm, label, iso, gcd, buckets);
        table.addRow({row.label,
                      formatSeconds(row.millis / 1e3),
                      std::to_string(row.knapsacks),
                      std::to_string(row.hits),
                      planCell(row)});
    }
    table.print(std::cout);
    std::cout
        << "\nShape check vs paper: isomorphism caching removes the "
           "O(L) redundant knapsack\n"
        << "executions per range length (Sec. 5.3); memory-cost "
           "quantisation (the GCD trick,\n"
        << "generalised to a bucket budget) trades DP resolution "
           "for time with negligible\n"
        << "plan-quality impact. The full search finishes in "
           "seconds.\n";

    // The full search per evaluated model (the paper's "only
    // seconds" claim is made for both).
    TrainConfig model_train = train;
    model_train.globalBatch = 64;
    std::cout << "\nFull AdaPipe search per model (seq "
              << model_train.seqLen << ", strategy " << par.toString()
              << ", defaults)\n\n";
    Table per_model({"Model", "Search time", "Knapsack runs",
                     "Cache hits", "Plan iteration time"});
    for (const ModelConfig &m : {gpt3_175b(), llama2_70b()}) {
        const ProfiledModel model_pm =
            buildProfiledModel(m, model_train, par, cluster);
        const AblationRow row =
            runSearch(model_pm, m.name, true, true, 1 << 14);
        per_model.addRow({row.label,
                          formatSeconds(row.millis / 1e3),
                          std::to_string(row.knapsacks),
                          std::to_string(row.hits),
                          planCell(row)});
    }
    per_model.print(std::cout);

    // Overlapped recomputation: pass 2 gives every stage its own
    // bubble budget, and the isomorphism key includes the budget.
    TrainConfig overlap_train = train;
    overlap_train.globalBatch = 16;
    const ProfiledModel overlap_pm =
        buildProfiledModel(model, overlap_train, par, cluster);
    std::cout << "\nOverlapped-recomputation search, makeOverlapPlan "
                 "v = 1 (" << model.name << ", seq "
              << overlap_train.seqLen << ", global batch "
              << overlap_train.globalBatch << ", strategy "
              << par.toString() << ")\n\n";
    Table overlap({"Configuration", "Search time", "Knapsack runs",
                   "Cache hits", "Plan iteration time"});
    for (const auto &[label, iso] :
         {std::pair{"AdaPipe defaults (isomorphism keyed on the "
                    "bubble budget)",
                    true},
          std::pair{"no isomorphism caching", false}}) {
        const AblationRow row = runOverlapSearch(overlap_pm, label, iso);
        overlap.addRow({row.label, formatSeconds(row.millis / 1e3),
                        counterCell(row.knapsacks),
                        counterCell(row.hits), planCell(row)});
    }
    overlap.print(std::cout);

    // Partitioning DP scaling: L fixed by the model, p varied.
    TrainConfig scale_train = train;
    scale_train.seqLen = 8192;
    scale_train.globalBatch = 64;
    std::cout << "\nPartitioning DP scaling (" << model.name << ", seq "
              << scale_train.seqLen << ", t=" << par.tensor
              << ", defaults)\n\n";
    Table scaling({"Pipeline size p", "Search time", "Knapsack runs",
                   "Cache hits", "Plan iteration time"});
    for (const int p : {2, 4, 8, 16}) {
        ParallelConfig scale_par = par;
        scale_par.pipeline = p;
        const ProfiledModel scale_pm =
            buildProfiledModel(model, scale_train, scale_par, cluster);
        const AblationRow row = runSearch(scale_pm, std::to_string(p),
                                          true, true, 1 << 14);
        scaling.addRow({row.label,
                        formatSeconds(row.millis / 1e3),
                        std::to_string(row.knapsacks),
                        std::to_string(row.hits),
                        planCell(row)});
    }
    scaling.print(std::cout);
    std::cout << "\nShape check vs paper: with L fixed the search "
                 "grows with p (Sec. 5.3, O(m' p L^2)).\n";
    return 0;
}
