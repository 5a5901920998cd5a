#include "core/planner.h"

#include <optional>
#include <sstream>

#include "core/cost_model.h"
#include "core/partition_dp.h"
#include "obs/macros.h"
#include "util/logging.h"
#include "util/units.h"

namespace adapipe {

namespace {

/** The DAPPLE baselines' uniform policy; none for the knapsack. */
std::optional<RecomputeBaseline>
recomputeBaseline(PlanMethod method)
{
    switch (method) {
      case PlanMethod::DappleFull: return RecomputeBaseline::Full;
      case PlanMethod::DappleNon: return RecomputeBaseline::None;
      case PlanMethod::DappleSelective:
        return RecomputeBaseline::Selective;
      case PlanMethod::AdaPipe:
      case PlanMethod::EvenPartition: break;
    }
    return std::nullopt;
}

PlanResult
infeasible(std::string reason)
{
    ADAPIPE_OBS_COUNT("planner.infeasible", 1);
    PlanResult result;
    result.oomReason = std::move(reason);
    return result;
}

} // namespace

PlanResult
planChain(const ProfiledModel &pm, PlanMethod method, int chain,
          const StageCostOptions &opts)
{
    const int p = pm.par.pipeline;
    ADAPIPE_ASSERT(p >= 1 && chain >= p && chain % p == 0,
                   "chain of ", chain, " positions does not fill ", p,
                   " devices");
    const int v = chain / p;
    const int L = pm.numLayers();
    const int n = pm.train.microBatches(pm.par);

    // evenPartition() gives every position at least one attention
    // block. The adaptive DP can emit block-less pass-through stages,
    // which only a plain 1F1B chain accepts; fail gracefully instead
    // of tripping the partitioner's assert.
    const int blocks = (L - 2) / 2;
    if ((method != PlanMethod::AdaPipe || v > 1) && blocks < chain) {
        std::ostringstream oss;
        oss << (v > 1 ? "interleaved" : "even")
            << " partition cannot split " << blocks
            << " attention blocks across " << chain
            << " stages (pipeline " << p << " * virtual_stages " << v
            << "; needs at least one block per stage)";
        return infeasible(oss.str());
    }
    ADAPIPE_ASSERT(chain <= L, "chain of ", chain,
                   " positions out of range for ", L, " layers");

    StageCostCalculator calc(pm, chain, n, opts);

#if ADAPIPE_OBS_ENABLED
    // The calculator tracks hits/misses itself (its lookup path is
    // too hot for per-call instrumentation); flush the totals on
    // every exit from this function.
    struct FlushStageCostStats
    {
        const StageCostCalculator &calc;
        ~FlushStageCostStats()
        {
            ADAPIPE_OBS_COUNT("stage_cost.cache_hits",
                              calc.cacheHits());
            ADAPIPE_OBS_COUNT("stage_cost.evaluations",
                              calc.evaluations());
            ADAPIPE_OBS_COUNT("stage_cost.memo_hits",
                              calc.memoHits());
            ADAPIPE_OBS_COUNT("stage_cost.memo_misses",
                              calc.memoMisses());
        }
    } flush_stats{calc};
#endif

    // AdaPipe partitions the chain adaptively (for v > 1 the DP's
    // 1F1B objective over the chain is a proxy for the interleaved
    // critical path; the caller times the result). The baselines
    // keep the even split.
    std::vector<std::pair<int, int>> ranges;
    if (method == PlanMethod::AdaPipe) {
        const PartitionDpResult dp =
            solveAdaptivePartition(calc, L, chain, n);
        if (!dp.feasible)
            return infeasible("no memory-feasible partition");
        ranges = dp.ranges;
    } else {
        ranges = evenPartition(L, chain);
    }
    const std::optional<RecomputeBaseline> baseline =
        recomputeBaseline(method);

    PlanResult result;
    PipelinePlan &plan = result.plan;
    plan.method = method;
    plan.par = pm.par;
    plan.train = pm.train;
    plan.microBatches = n;
    plan.virtualStages = v;
    for (int g = 0; g < chain; ++g) {
        const auto [i, j] = ranges[g];
        const StageCost c = baseline
                                ? calc.baselineCost(g, i, j, *baseline)
                                : calc.cost(g, i, j);
        if (!c.feasible) {
            std::ostringstream oss;
            oss << "stage " << g << " (layers " << i << "-" << j
                << ") needs " << formatBytes(c.memPeak) << " of "
                << formatBytes(calc.capacity());
            if (v > 1)
                oss << ", device " << g % p << "'s share (capacity / "
                    << v << ")";
            return infeasible(oss.str());
        }
        StagePlan sp;
        sp.firstLayer = i;
        sp.lastLayer = j;
        sp.timeFwd = c.fwd;
        sp.timeBwd = c.bwd;
        sp.memPeak = c.memPeak;
        sp.savedUnits = c.recompute.savedUnits;
        sp.totalUnits = c.totalUnits;
        sp.savedMask = c.recompute.saved;
        sp.overlapBubble = calc.overlapBubble(g);
        sp.timeReplayHidden = c.replayHidden;
        sp.timeReplayCritical = c.replayCritical;
        sp.offloadMask = c.recompute.offloaded;
        sp.offloadBytes = c.offloadBytes;
        sp.offloadFetchUs = c.offloadExposed * 1e6;
        if (c.offloadedUnits > 0)
            plan.offload = true;
        plan.stages.push_back(std::move(sp));
    }
    result.ok = true;
    return result;
}

PlanResult
makePlan(const ProfiledModel &pm, PlanMethod method,
         StageCostOptions opts)
{
    ADAPIPE_OBS_SPAN(obs_span, "planner.make_plan");
    ADAPIPE_OBS_COUNT("planner.plans", 1);
    PlanResult result = planChain(pm, method, pm.par.pipeline, opts);
    if (result.ok) {
        result.plan.timing = evaluate1F1B(planStageTimes(result.plan),
                                          result.plan.microBatches);
    }
    return result;
}

} // namespace adapipe
