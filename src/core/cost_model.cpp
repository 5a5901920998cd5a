#include "core/cost_model.h"

#include <algorithm>

#include "util/logging.h"

namespace adapipe {

std::vector<StageTimes>
planStageTimes(const PipelinePlan &plan)
{
    std::vector<StageTimes> times;
    times.reserve(plan.stages.size());
    for (const StagePlan &sp : plan.stages)
        times.push_back({sp.timeFwd, sp.timeBwd});
    return times;
}

PipelineTiming
evaluate1F1B(const std::vector<StageTimes> &stages, int n)
{
    const int p = static_cast<int>(stages.size());
    ADAPIPE_ASSERT(p >= 1, "cost model needs at least one stage");
    ADAPIPE_ASSERT(n >= 1, "cost model needs at least one micro-batch");

    Seconds w = stages[p - 1].fwd;
    Seconds e = stages[p - 1].bwd;
    Seconds m = stages[p - 1].fwd + stages[p - 1].bwd;
    Seconds next_f = stages[p - 1].fwd;
    Seconds next_b = stages[p - 1].bwd;

    for (int s = p - 2; s >= 0; --s) {
        const Seconds f = stages[s].fwd;
        const Seconds b = stages[s].bwd;
        const double warm = static_cast<double>(p - s - 1);
        const Seconds w_s = f + std::max(w + next_b, warm * f);
        const Seconds e_s = b + std::max(e + next_f, warm * b);
        w = w_s;
        e = e_s;
        m = std::max(m, f + b);
        next_f = f;
        next_b = b;
    }

    PipelineTiming timing;
    timing.warmup = w;
    timing.ending = e;
    timing.steadyPerMb = m;
    const int steady = std::max(0, n - p);
    timing.total = w + e + static_cast<double>(steady) * m;
    return timing;
}

Seconds
evaluateGPipe(const std::vector<StageTimes> &stages, int n)
{
    const int p = static_cast<int>(stages.size());
    ADAPIPE_ASSERT(p >= 1 && n >= 1, "invalid GPipe configuration");
    Seconds f_max = 0;
    Seconds b_max = 0;
    Seconds f_sum = 0;
    Seconds b_sum = 0;
    for (const auto &st : stages) {
        f_max = std::max(f_max, st.fwd);
        b_max = std::max(b_max, st.bwd);
        f_sum += st.fwd;
        b_sum += st.bwd;
    }
    // Forward wave: pipeline fill (sum over stages) plus n-1 more
    // forwards gated by the slowest stage; the backward wave mirrors.
    return f_sum + static_cast<double>(n - 1) * f_max + b_sum +
           static_cast<double>(n - 1) * b_max;
}

} // namespace adapipe
