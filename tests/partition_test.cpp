/**
 * @file
 * Tests for adaptive partitioning (Algorithm 1), the stage-cost
 * calculator and the isomorphism cache.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/partition_dp.h"
#include "core/planner.h"
#include "core/profiled_model.h"
#include "hw/cluster.h"
#include "hw/profile_io.h"
#include "model/model_config.h"
#include "sim/interleaved_planner.h"
#include "sim/schedule.h"
#include "util/rng.h"

namespace adapipe {
namespace {

/** A small but realistic planning fixture. */
class PartitionTest : public ::testing::Test
{
  protected:
    ModelConfig model = gpt3_13b();
    TrainConfig train;
    ParallelConfig par;
    ClusterSpec cluster = clusterA(4);

    void
    SetUp() override
    {
        train.seqLen = 8192;
        train.globalBatch = 32;
        par.tensor = 8;
        par.pipeline = 4;
        par.data = 1;
    }

    ProfiledModel
    profiled() const
    {
        return buildProfiledModel(model, train, par, cluster);
    }

    /**
     * Six blocks under a tight memory cap: small enough for a
     * calculator without the cache to solve every (s, i, j), tight
     * enough that the knapsack runs.
     */
    ProfiledModel
    smallProfiled()
    {
        model.numBlocks = 6;
        cluster.device.memCapacity = GiB(6);
        return profiled();
    }
};

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/** Every StageCost field equal, floating-point ones bit for bit. */
::testing::AssertionResult
sameCost(const StageCost &a, const StageCost &b)
{
    const RecomputePlanResult &ra = a.recompute;
    const RecomputePlanResult &rb = b.recompute;
    const bool same =
        a.feasible == b.feasible && sameBits(a.fwd, b.fwd) &&
        sameBits(a.bwd, b.bwd) && a.memPeak == b.memPeak &&
        a.totalUnits == b.totalUnits &&
        sameBits(a.replayHidden, b.replayHidden) &&
        sameBits(a.replayCritical, b.replayCritical) &&
        sameBits(a.offloadExposed, b.offloadExposed) &&
        sameBits(a.offloadLinkTime, b.offloadLinkTime) &&
        a.offloadBytes == b.offloadBytes &&
        a.offloadedUnits == b.offloadedUnits && ra.saved == rb.saved &&
        ra.offloaded == rb.offloaded &&
        sameBits(ra.savedFwdTime, rb.savedFwdTime) &&
        ra.savedBytes == rb.savedBytes &&
        ra.savedUnits == rb.savedUnits &&
        sameBits(ra.hiddenReplayTime, rb.hiddenReplayTime) &&
        sameBits(ra.criticalReplayTime, rb.criticalReplayTime) &&
        ra.offloadBytes == rb.offloadBytes &&
        ra.offloadedUnits == rb.offloadedUnits &&
        sameBits(ra.offloadLinkTime, rb.offloadLinkTime) &&
        sameBits(ra.offloadExposedTime, rb.offloadExposedTime);
    if (same)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "fwd " << a.fwd << " vs " << b.fwd << ", bwd " << a.bwd
           << " vs " << b.bwd << ", saved units "
           << ra.savedUnits << " vs " << rb.savedUnits;
}

/** Knapsack runs of the partition DP with and without the cache. */
struct RunsPair
{
    std::size_t iso = 0;
    std::size_t raw = 0;
};

/**
 * Solve the partition of a @p chain-position pipeline with and
 * without the isomorphism cache under @p opts. Both must pick the
 * same ranges with the same timing, and agree bit for bit on the
 * cost of every (s, i, j).
 */
RunsPair
expectIsomorphismExact(const ProfiledModel &pm, int chain, int n,
                       StageCostOptions opts)
{
    opts.useIsomorphism = true;
    StageCostCalculator iso(pm, chain, n, opts);
    opts.useIsomorphism = false;
    StageCostCalculator raw(pm, chain, n, opts);
    const int L = pm.numLayers();
    const PartitionDpResult a = solveAdaptivePartition(iso, L, chain, n);
    const PartitionDpResult b = solveAdaptivePartition(raw, L, chain, n);
    const RunsPair runs{iso.knapsackRuns(), raw.knapsackRuns()};

    EXPECT_TRUE(a.feasible);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.ranges, b.ranges);
    EXPECT_TRUE(sameBits(a.timing.total, b.timing.total))
        << a.timing.total << " vs " << b.timing.total;
    for (int s = 0; s < chain; ++s) {
        for (int i = 0; i < L; ++i) {
            for (int j = i; j < L; ++j) {
                EXPECT_TRUE(sameCost(iso.cost(s, i, j), raw.cost(s, i, j)))
                    << "(s, i, j) = (" << s << ", " << i << ", " << j
                    << ")";
            }
        }
    }
    return runs;
}

TEST_F(PartitionTest, EvenPartitionCoversAllLayers)
{
    for (int p : {2, 4, 5, 8}) {
        const int L = 2 * model.numBlocks + 2;
        const auto ranges = evenPartition(L, p);
        ASSERT_EQ(static_cast<int>(ranges.size()), p);
        EXPECT_EQ(ranges.front().first, 0);
        EXPECT_EQ(ranges.back().second, L - 1);
        for (int s = 1; s < p; ++s)
            EXPECT_EQ(ranges[s].first, ranges[s - 1].second + 1);
        // Every stage holds whole blocks (even layer counts apart
        // from embedding/head attachments).
        for (int s = 0; s < p; ++s) {
            int layers = ranges[s].second - ranges[s].first + 1;
            if (s == 0)
                layers -= 1;
            if (s == p - 1)
                layers -= 1;
            EXPECT_EQ(layers % 2, 0) << "stage " << s;
        }
    }
}

TEST_F(PartitionTest, EvenPartitionDistributesRemainderToEarlyStages)
{
    // 10 blocks over 4 stages: 3, 3, 2, 2.
    const auto ranges = evenPartition(2 * 10 + 2, 4);
    EXPECT_EQ(ranges[0].second - ranges[0].first + 1, 7); // embed + 3
    EXPECT_EQ(ranges[1].second - ranges[1].first + 1, 6);
    EXPECT_EQ(ranges[2].second - ranges[2].first + 1, 4);
    EXPECT_EQ(ranges[3].second - ranges[3].first + 1, 5); // 2 + head
}

TEST_F(PartitionTest, AdaptivePartitionCoversAllLayers)
{
    const ProfiledModel pm = profiled();
    const int n = train.microBatches(par);
    StageCostCalculator calc(pm, par.pipeline, n);
    const auto r =
        solveAdaptivePartition(calc, pm.numLayers(), par.pipeline, n);
    ASSERT_TRUE(r.feasible);
    ASSERT_EQ(static_cast<int>(r.ranges.size()), par.pipeline);
    EXPECT_EQ(r.ranges.front().first, 0);
    EXPECT_EQ(r.ranges.back().second, pm.numLayers() - 1);
    for (int s = 1; s < par.pipeline; ++s)
        EXPECT_EQ(r.ranges[s].first, r.ranges[s - 1].second + 1);
}

TEST_F(PartitionTest, AdaptiveNeverWorseThanEvenPartition)
{
    const ProfiledModel pm = profiled();
    const int n = train.microBatches(par);
    StageCostCalculator calc(pm, par.pipeline, n);
    const auto adaptive =
        solveAdaptivePartition(calc, pm.numLayers(), par.pipeline, n);
    const PlanResult even = makePlan(pm, PlanMethod::EvenPartition);
    ASSERT_TRUE(adaptive.feasible);
    ASSERT_TRUE(even.ok) << even.oomReason;
    // The DP optimises over all partitions including the even one.
    EXPECT_LE(adaptive.timing.total, even.plan.timing.total + 1e-9);
}

TEST_F(PartitionTest, MovesLayersFromEarlyToLateStages)
{
    // The paper's Table 4 signature: with tight memory, early stages
    // recompute more, so AdaPipe assigns them fewer layers.
    train.seqLen = 16384;
    cluster.device.memCapacity = GiB(18); // force heavy recomputation
    const ProfiledModel pm = profiled();
    const int n = train.microBatches(par);
    StageCostCalculator calc(pm, par.pipeline, n);
    const auto r =
        solveAdaptivePartition(calc, pm.numLayers(), par.pipeline, n);
    ASSERT_TRUE(r.feasible);
    const auto span = [&](int s) {
        return r.ranges[s].second - r.ranges[s].first + 1;
    };
    EXPECT_LE(span(0), span(par.pipeline - 1) + 1);
}

TEST_F(PartitionTest, IsomorphismCacheReducesKnapsackRuns)
{
    train.seqLen = 16384;
    cluster.device.memCapacity = GiB(18); // keep the knapsack active
    const ProfiledModel pm = profiled();
    const int n = train.microBatches(par);

    StageCostOptions with_iso;
    with_iso.useIsomorphism = true;
    StageCostCalculator calc_iso(pm, par.pipeline, n, with_iso);
    solveAdaptivePartition(calc_iso, pm.numLayers(), par.pipeline, n);

    StageCostOptions no_iso;
    no_iso.useIsomorphism = false;
    StageCostCalculator calc_raw(pm, par.pipeline, n, no_iso);
    solveAdaptivePartition(calc_raw, pm.numLayers(), par.pipeline, n);

    EXPECT_LT(calc_iso.knapsackRuns(), calc_raw.knapsackRuns());
    EXPECT_GT(calc_iso.cacheHits(), 0u);
}

TEST_F(PartitionTest, IsomorphismDoesNotChangeResult)
{
    const ProfiledModel pm = profiled();
    const int n = train.microBatches(par);

    StageCostOptions with_iso;
    with_iso.useIsomorphism = true;
    StageCostCalculator calc_iso(pm, par.pipeline, n, with_iso);
    const auto a =
        solveAdaptivePartition(calc_iso, pm.numLayers(), par.pipeline,
                               n);

    StageCostOptions no_iso;
    no_iso.useIsomorphism = false;
    StageCostCalculator calc_raw(pm, par.pipeline, n, no_iso);
    const auto b =
        solveAdaptivePartition(calc_raw, pm.numLayers(), par.pipeline,
                               n);

    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    EXPECT_NEAR(a.timing.total, b.timing.total, 1e-9);
    EXPECT_EQ(a.ranges, b.ranges);
}

TEST_F(PartitionTest, IsomorphismExactUnderRepeatedBubbleBudgets)
{
    const ProfiledModel pm = smallProfiled();
    const int p = par.pipeline;
    // Two micro-batches: stages 0-2 keep the same in-flight count, so
    // only the budget tells stage 2 apart from stages 0 and 1.
    const int n = 2;
    // Budgets on the scale of one block's forward pass, two stages
    // sharing a value and one without a bubble.
    const Seconds block = StageCostCalculator(pm, p, n).cost(1, 1, 2).fwd;
    StageCostOptions opts;
    opts.overlapBubblePerMb = {block, block, 0.25 * block, 0};
    const RunsPair runs = expectIsomorphismExact(pm, p, n, opts);
    EXPECT_GT(runs.iso, 0u);
    EXPECT_LT(runs.iso, runs.raw);
}

TEST_F(PartitionTest, IsomorphismExactUnderStragglerFactors)
{
    const ProfiledModel pm = smallProfiled();
    const int p = par.pipeline;
    // Stages 0-2 keep two micro-batches in flight, so only the factor
    // tells stage 1 apart from stages 0 and 2.
    const int n = 2;
    StageCostOptions opts;
    opts.stageTimeFactor = {1.0, 1.5, 1.0, 1.5};
    const RunsPair runs = expectIsomorphismExact(pm, p, n, opts);
    EXPECT_GT(runs.iso, 0u);
    EXPECT_LT(runs.iso, runs.raw);
}

TEST_F(PartitionTest, IsomorphismExactOnInterleavedChain)
{
    // The interleaved planner's v = 2 chain: exact per-chunk
    // in-flight peaks, half the device memory per chunk, and chunks
    // g and g + p sharing device g's bubble.
    const ProfiledModel pm = smallProfiled();
    const int p = par.pipeline;
    const int v = 2;
    const int n = train.microBatches(par);
    const Schedule schedule = tryBuildInterleaved1F1B(p, n, v).value();
    const Seconds block = StageCostCalculator(pm, p, n).cost(1, 1, 2).fwd;
    const std::vector<Seconds> device_bubble = {block, 0.5 * block,
                                                0.5 * block, 0};
    StageCostOptions opts;
    opts.inflightOverride = chunkInflightPeaks(schedule);
    opts.memCapacityOverride = pm.memCapacity / v;
    for (int g = 0; g < v * p; ++g)
        opts.overlapBubblePerMb.push_back(device_bubble[g % p]);
    const RunsPair runs = expectIsomorphismExact(pm, v * p, n, opts);
    EXPECT_GT(runs.iso, 0u);
    EXPECT_LT(runs.iso, runs.raw);
}

TEST_F(PartitionTest, IsomorphismOffForPerLayerMeasuredProfiles)
{
    // A measured table gives every layer its own unit times, so two
    // ranges of the same shape no longer cost the same: the cache
    // must key on (s, i, j) to stay exact.
    ProfiledModel pm = smallProfiled();
    ProfileTable table = extractProfileTable(pm);
    Rng rng(2024);
    for (auto &layer : table.layers) {
        for (auto &u : layer) {
            const double noise = rng.uniform(0.9, 1.1);
            u.timeFwd *= noise;
            u.timeBwd *= noise;
        }
    }
    ASSERT_TRUE(tryApplyProfileTable(pm, table).ok());
    const int p = par.pipeline;
    const int n = train.microBatches(par);
    const RunsPair runs = expectIsomorphismExact(pm, p, n, {});
    EXPECT_GT(runs.iso, 0u);
    EXPECT_EQ(runs.iso, runs.raw);
}

TEST_F(PartitionTest, StageCostFeasibilityMonotoneInMemory)
{
    // Shrinking the device memory can only make ranges infeasible.
    ProfiledModel pm = profiled();
    const int n = train.microBatches(par);
    StageCostCalculator calc(pm, par.pipeline, n);
    const StageCost &ok = calc.cost(0, 0, pm.numLayers() / 2);
    ASSERT_TRUE(ok.feasible);

    pm.memCapacity = GiB(2);
    StageCostCalculator tight(pm, par.pipeline, n);
    const StageCost &bad = tight.cost(0, 0, pm.numLayers() / 2);
    EXPECT_FALSE(bad.feasible);
}

TEST_F(PartitionTest, LaterStagesSaveMoreUnits)
{
    // Table 4's monotone saved-unit counts: later stages keep fewer
    // in-flight micro-batches, so the same range saves more.
    train.seqLen = 16384;
    const ProfiledModel pm = profiled();
    const int n = train.microBatches(par);
    StageCostCalculator calc(pm, par.pipeline, n);
    const auto ranges = evenPartition(pm.numLayers(), par.pipeline);
    // Compare interior stages with identical ranges shapes: stage 1
    // and stage 2 hold the same layer count here.
    const StageCost &s1 = calc.cost(1, ranges[1].first,
                                    ranges[1].second);
    const StageCost &s2 = calc.cost(2, ranges[2].first,
                                    ranges[2].second);
    ASSERT_TRUE(s1.feasible && s2.feasible);
    EXPECT_LE(s1.recompute.savedUnits, s2.recompute.savedUnits);
    // And the backward time shrinks accordingly.
    EXPECT_GE(s1.bwd, s2.bwd - 1e-9);
}

TEST_F(PartitionTest, FixedPartitionBaselinesOrdering)
{
    // Both baselines run the even split; they differ only in the
    // recomputation policy.
    const ProfiledModel pm = profiled();
    const PlanResult adaptive = makePlan(pm, PlanMethod::EvenPartition);
    const PlanResult full = makePlan(pm, PlanMethod::DappleFull);
    ASSERT_TRUE(adaptive.ok) << adaptive.oomReason;
    ASSERT_TRUE(full.ok) << full.oomReason;
    // Adaptive recomputation never recomputes more than full
    // recomputation, so it cannot be slower.
    EXPECT_LE(adaptive.plan.timing.total, full.plan.timing.total + 1e-9);
}

TEST_F(PartitionTest, RejectsMoreStagesThanLayers)
{
    const ProfiledModel pm = profiled();
    StageCostCalculator calc(pm, 2, 4);
    EXPECT_DEATH(solveAdaptivePartition(calc, 3, 4, 8),
                 "at least one layer per stage");
}

} // namespace
} // namespace adapipe
