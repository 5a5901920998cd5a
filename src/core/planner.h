/**
 * @file
 * Planner facade: produce a complete PipelinePlan for one method
 * (AdaPipe, Even Partitioning or a DAPPLE baseline) on one profiled
 * model.
 */

#ifndef ADAPIPE_CORE_PLANNER_H
#define ADAPIPE_CORE_PLANNER_H

#include "core/plan.h"
#include "core/profiled_model.h"
#include "core/stage_cost.h"

namespace adapipe {

/**
 * Build the plan of @p method for @p pm.
 *
 * planChain() with one position per device, timed by the Sec. 5.1
 * closed form. AdaPipe runs both DP levels; Even Partitioning runs
 * only the recomputation DP on the baseline layer split; the DAPPLE
 * baselines use the same split with uniform full/no/selective
 * recomputation. All go through the identical cost model so their
 * iteration times are comparable.
 *
 * @param pm profiled model (carries t, p, d and the workload)
 * @param method planning method
 * @param opts stage-cost options (memory budget fraction, knobs)
 * @return a feasible plan or an OOM diagnosis
 */
PlanResult makePlan(const ProfiledModel &pm, PlanMethod method,
                    StageCostOptions opts = {});

/**
 * The search every schedule shares: plan a chain of @p chain
 * positions (position g runs on device g % p, so chain = v * p with
 * v virtual stages per device).
 *
 * Builds one StageCostCalculator over the chain, picks the ranges
 * (the adaptive partition DP for AdaPipe, evenPartition() otherwise),
 * costs every position with the method's recomputation policy and
 * fills the plan's stages. Only the timing of the finished chain
 * depends on the schedule, so the returned plan's timing is left
 * zero for the caller: makePlan() applies the Sec. 5.1 closed form,
 * makeInterleavedPlan() the event simulator. A schedule passes its
 * own in-flight counts and memory share through @p opts.
 *
 * @return the plan, or the first infeasible position's diagnosis
 */
PlanResult planChain(const ProfiledModel &pm, PlanMethod method,
                     int chain, const StageCostOptions &opts);

} // namespace adapipe

#endif // ADAPIPE_CORE_PLANNER_H
