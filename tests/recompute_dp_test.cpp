/**
 * @file
 * Tests for the adaptive-recomputation knapsack (Sec. 4.3),
 * including a brute-force optimality oracle and property sweeps.
 */

#include <gtest/gtest.h>

#include "core/recompute_dp.h"
#include "util/rng.h"

namespace adapipe {
namespace {

UnitProfile
unit(const std::string &name, Seconds time_f, Bytes mem,
     bool always_saved = false)
{
    UnitProfile u;
    u.name = name;
    u.timeFwd = time_f;
    u.timeBwd = 2 * time_f;
    u.memSaved = mem;
    u.alwaysSaved = always_saved;
    return u;
}

TEST(RecomputeDp, EmptyBudgetSavesOnlyAlwaysSaved)
{
    std::vector<UnitProfile> units{
        unit("a", 1.0, 100), unit("b", 2.0, 100),
        unit("out", 0.5, 50, true)};
    const auto r = solveRecomputeKnapsack(units, 0);
    EXPECT_FALSE(r.saved[0]);
    EXPECT_FALSE(r.saved[1]);
    EXPECT_TRUE(r.saved[2]);
    EXPECT_EQ(r.savedUnits, 1);
    EXPECT_EQ(r.savedBytes, 0u);
    EXPECT_DOUBLE_EQ(r.savedFwdTime, 0.0);
}

TEST(RecomputeDp, NegativeBudgetTreatedAsZero)
{
    std::vector<UnitProfile> units{unit("a", 1.0, 100)};
    const auto r = solveRecomputeKnapsack(units, -1000);
    EXPECT_FALSE(r.saved[0]);
}

TEST(RecomputeDp, UnlimitedBudgetSavesEverything)
{
    std::vector<UnitProfile> units{
        unit("a", 1.0, 100), unit("b", 2.0, 200),
        unit("out", 0.5, 50, true)};
    const auto r = solveRecomputeKnapsack(units, 1 << 20);
    EXPECT_TRUE(r.saved[0]);
    EXPECT_TRUE(r.saved[1]);
    EXPECT_TRUE(r.saved[2]);
    EXPECT_EQ(r.savedUnits, 3);
    EXPECT_EQ(r.savedBytes, 300u);
    EXPECT_DOUBLE_EQ(r.savedFwdTime, 3.0);
}

TEST(RecomputeDp, PicksDenserUnit)
{
    // Budget fits exactly one of the two; unit b saves more forward
    // time for the same memory.
    std::vector<UnitProfile> units{unit("a", 1.0, 128),
                                   unit("b", 3.0, 128)};
    const auto r = solveRecomputeKnapsack(units, 128);
    EXPECT_FALSE(r.saved[0]);
    EXPECT_TRUE(r.saved[1]);
    EXPECT_DOUBLE_EQ(r.savedFwdTime, 3.0);
}

TEST(RecomputeDp, ClassicKnapsackInstance)
{
    // Items: (value, weight) = (6,1), (10,2), (12,3); budget 5 ->
    // optimal {10, 12}.
    std::vector<UnitProfile> units{unit("a", 6.0, 1), unit("b", 10.0, 2),
                                   unit("c", 12.0, 3)};
    RecomputeDpOptions opts;
    opts.useGcd = false;
    const auto r = solveRecomputeKnapsack(units, 5, opts);
    EXPECT_FALSE(r.saved[0]);
    EXPECT_TRUE(r.saved[1]);
    EXPECT_TRUE(r.saved[2]);
    EXPECT_DOUBLE_EQ(r.savedFwdTime, 22.0);
}

TEST(RecomputeDp, AlwaysSavedDoesNotConsumeBudget)
{
    std::vector<UnitProfile> units{
        unit("out", 0.5, 1 << 20, true), unit("a", 1.0, 64)};
    const auto r = solveRecomputeKnapsack(units, 64);
    EXPECT_TRUE(r.saved[0]);
    EXPECT_TRUE(r.saved[1]);
}

TEST(RecomputeDp, GcdQuantisationIsExactForPowerOfTwoSizes)
{
    // All sizes share a 4 KiB GCD; the quantised DP must match the
    // exact brute force.
    Rng rng(11);
    std::vector<UnitProfile> units;
    for (int i = 0; i < 12; ++i) {
        units.push_back(unit(std::string("u").append(std::to_string(i)),
                             rng.uniform(0.5, 4.0),
                             4096 * rng.uniformInt(1, 16)));
    }
    const std::int64_t budget = 4096 * 40;
    const auto dp = solveRecomputeKnapsack(units, budget);
    const auto bf = bruteForceRecompute(units, budget);
    EXPECT_NEAR(dp.savedFwdTime, bf.savedFwdTime, 1e-9);
    EXPECT_LE(dp.savedBytes, static_cast<Bytes>(budget));
}

/**
 * Property: for random instances, the DP never exceeds the budget
 * and matches the brute-force optimum whenever quantisation is
 * lossless (power-of-two sizes).
 */
class RecomputeDpProperty : public ::testing::TestWithParam<int>
{};

TEST_P(RecomputeDpProperty, MatchesBruteForce)
{
    Rng rng(GetParam());
    std::vector<UnitProfile> units;
    const int n = 4 + GetParam() % 12;
    for (int i = 0; i < n; ++i) {
        const bool always = rng.uniform() < 0.15;
        units.push_back(unit(std::string("u").append(std::to_string(i)),
                             rng.uniform(0.1, 5.0),
                             1024 * rng.uniformInt(1, 32), always));
    }
    const std::int64_t budget = 1024 * rng.uniformInt(0, 200);
    const auto dp = solveRecomputeKnapsack(units, budget);
    const auto bf = bruteForceRecompute(units, budget);
    EXPECT_NEAR(dp.savedFwdTime, bf.savedFwdTime, 1e-9)
        << "seed " << GetParam();
    EXPECT_LE(dp.savedBytes, static_cast<Bytes>(budget));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecomputeDpProperty,
                         ::testing::Range(1, 25));

/**
 * Property: the saved forward time is monotone in the budget.
 */
class BudgetMonotonicity : public ::testing::TestWithParam<int>
{};

TEST_P(BudgetMonotonicity, MoreMemoryNeverHurts)
{
    Rng rng(1000 + GetParam());
    std::vector<UnitProfile> units;
    for (int i = 0; i < 20; ++i) {
        units.push_back(unit(std::string("u").append(std::to_string(i)),
                             rng.uniform(0.1, 5.0),
                             512 * rng.uniformInt(1, 64)));
    }
    Seconds prev = -1.0;
    for (std::int64_t budget = 0; budget <= 512 * 400;
         budget += 512 * 40) {
        const auto r = solveRecomputeKnapsack(units, budget);
        EXPECT_GE(r.savedFwdTime, prev);
        prev = r.savedFwdTime;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BudgetMonotonicity,
                         ::testing::Range(1, 9));

TEST(RecomputeDp, QuantisationStaysFeasibleOnOddSizes)
{
    // Adversarially odd sizes exercise the bucket clamp; the result
    // must stay within budget even if slightly sub-optimal.
    Rng rng(5);
    std::vector<UnitProfile> units;
    for (int i = 0; i < 64; ++i) {
        units.push_back(unit(std::string("u").append(std::to_string(i)),
                             rng.uniform(0.1, 2.0),
                             static_cast<Bytes>(
                                 rng.uniformInt(1, 1 << 22)) |
                                 1));
    }
    RecomputeDpOptions opts;
    opts.maxBuckets = 256;
    const std::int64_t budget = 1 << 23;
    const auto r = solveRecomputeKnapsack(units, budget, opts);
    EXPECT_LE(r.savedBytes, static_cast<Bytes>(budget));
    EXPECT_GT(r.savedUnits, 0);
}

} // namespace
} // namespace adapipe
