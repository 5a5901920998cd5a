#include "core/partition_dp.h"

#include <algorithm>
#include <limits>

#include "obs/macros.h"
#include "util/logging.h"

namespace adapipe {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** One DP state P[s][i] (paper: W, E, M, F, B, T + the split point). */
struct State
{
    Seconds w = kInf;
    Seconds e = kInf;
    Seconds m = kInf;
    Seconds f = 0;
    Seconds b = 0;
    Seconds t = kInf;
    int split = -1; // last layer j of stage s on the optimal path

    bool valid() const { return t < kInf; }
};

} // namespace

PartitionDpResult
solveAdaptivePartition(StageCostCalculator &calc, int num_layers, int p,
                       int n)
{
    ADAPIPE_ASSERT(p >= 1 && num_layers >= p,
                   "need at least one layer per stage (L=", num_layers,
                   ", p=", p, ")");
    ADAPIPE_OBS_SPAN(obs_span, "partition_dp.solve");
    ADAPIPE_OBS_COUNT("partition_dp.runs", 1);
    const int L = num_layers;
    // Exploration counters accumulate locally and flush once so the
    // DP inner loop never touches the registry.
    std::int64_t states_visited = 0;
    std::int64_t transitions = 0;
    std::int64_t infeasible = 0;

    // dp[s][i]: best plan for layers i..L-1 on stages s..p-1. Stage s
    // can only start at i in [s, L - (p - s)] (one layer minimum per
    // stage before and after).
    std::vector<std::vector<State>> dp(
        p, std::vector<State>(L, State{}));

    // Base case: the last stage takes everything from i to L-1.
    for (int i = p - 1; i <= L - 1; ++i) {
        ++states_visited;
        const StageCost &c = calc.cost(p - 1, i, L - 1);
        if (!c.feasible) {
            ++infeasible;
            continue;
        }
        State st;
        st.f = c.fwd;
        st.b = c.bwd;
        st.w = c.fwd;
        st.e = c.bwd;
        st.m = c.fwd + c.bwd;
        st.t = st.w + st.e +
               static_cast<double>(std::max(0, n - 1)) * st.m;
        st.split = L - 1;
        dp[p - 1][i] = st;
    }

    for (int s = p - 2; s >= 0; --s) {
        const int max_i = L - (p - s);
        for (int i = s; i <= max_i; ++i) {
            ++states_visited;
            State best;
            for (int j = i; j <= max_i; ++j) {
                const State &next = dp[s + 1][j + 1];
                if (!next.valid())
                    continue;
                ++transitions;
                const StageCost &c = calc.cost(s, i, j);
                if (!c.feasible) {
                    ++infeasible;
                    continue;
                }
                const double warm = static_cast<double>(p - s - 1);
                State cand;
                cand.f = c.fwd;
                cand.b = c.bwd;
                cand.w = c.fwd +
                         std::max(next.w + next.b, warm * c.fwd);
                cand.e = c.bwd +
                         std::max(next.e + next.f, warm * c.bwd);
                cand.m = std::max(next.m, c.fwd + c.bwd);
                const double steady =
                    static_cast<double>(std::max(0, n - p + s));
                cand.t = cand.w + cand.e + steady * cand.m;
                cand.split = j;
                if (cand.t < best.t)
                    best = cand;
            }
            dp[s][i] = best;
        }
    }

    ADAPIPE_OBS_COUNT("partition_dp.states_visited", states_visited);
    ADAPIPE_OBS_COUNT("partition_dp.transitions", transitions);
    ADAPIPE_OBS_COUNT("partition_dp.infeasible_cells", infeasible);

    PartitionDpResult result;
    const State &root = dp[0][0];
    if (!root.valid()) {
        ADAPIPE_OBS_COUNT("partition_dp.infeasible_runs", 1);
        return result;
    }

    result.feasible = true;
    result.timing.warmup = root.w;
    result.timing.ending = root.e;
    result.timing.steadyPerMb = root.m;
    result.timing.total = root.t;

    int i = 0;
    for (int s = 0; s < p; ++s) {
        const int j = dp[s][i].split;
        ADAPIPE_ASSERT(j >= i, "broken DP backtrack at stage ", s);
        result.ranges.emplace_back(i, j);
        i = j + 1;
    }
    ADAPIPE_ASSERT(i == L, "partition does not cover all layers");
    return result;
}

std::vector<std::pair<int, int>>
evenPartition(int num_layers, int p)
{
    ADAPIPE_ASSERT(num_layers >= 2 && (num_layers - 2) % 2 == 0,
                   "layer sequence must be [embed, blocks..., head]");
    const int blocks = (num_layers - 2) / 2;
    ADAPIPE_ASSERT(blocks >= p, "fewer blocks than stages");

    const int base = blocks / p;
    const int extra = blocks % p;
    std::vector<std::pair<int, int>> ranges;
    int layer = 1; // first attention layer (0 is the embedding)
    for (int s = 0; s < p; ++s) {
        const int nblocks = base + (s < extra ? 1 : 0);
        int first = layer;
        int last = layer + 2 * nblocks - 1;
        if (s == 0)
            first = 0; // embedding joins stage 0
        if (s == p - 1)
            last += 1; // decoding head joins the last stage
        ranges.emplace_back(first, last);
        layer += 2 * nblocks;
    }
    return ranges;
}

} // namespace adapipe
