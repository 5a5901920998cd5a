/**
 * @file
 * Golden-plan regression tests: re-plan the two paper workloads
 * (GPT-3 175B and Llama 2 70B on cluster A) with AdaPipe, and one
 * cheaper paper-shaped configuration with every other planner entry
 * (interleaved, overlapped, Even Partitioning, DAPPLE-Full), and
 * compare against the committed fixtures in tests/fixtures/. Any
 * planner, cost-model or serialization change that alters the
 * emitted plans fails here and forces an explicit, reviewable
 * fixture update (scripts/update_golden_plans.sh).
 *
 * A case whose plan differs from its fixture (or whose fixture is
 * missing) writes the plan it computed to "<fixture>.actual" in the
 * working directory; the update script copies those files over the
 * fixtures.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "core/plan_io.h"
#include "core/planner.h"
#include "core/profiled_model.h"
#include "hw/cluster.h"
#include "model/model_config.h"
#include "sim/interleaved_planner.h"

namespace adapipe {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing fixture " << path
                           << " (run scripts/update_golden_plans.sh)";
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

std::string
fixturePath(const std::string &name)
{
    return std::string(ADAPIPE_FIXTURE_DIR) + "/" + name;
}

struct GoldenCase
{
    const char *fixture;
    ModelConfig model;
    int seq;
    int globalBatch;
    int tensor;
    int pipeline;
    int data;
    /** Planner entry under test; makePlan(AdaPipe) by default. */
    std::function<PlanResult(const ProfiledModel &)> plan =
        [](const ProfiledModel &pm) {
            return makePlan(pm, PlanMethod::AdaPipe);
        };
};

void
checkGolden(const GoldenCase &c)
{
    TrainConfig train;
    train.seqLen = c.seq;
    train.globalBatch = c.globalBatch;
    ParallelConfig par;
    par.tensor = c.tensor;
    par.pipeline = c.pipeline;
    par.data = c.data;

    const ProfiledModel pm =
        buildProfiledModel(c.model, train, par, clusterA(8));
    const PlanResult result = c.plan(pm);
    ASSERT_TRUE(result.ok) << result.oomReason;

    // Parse-then-dump both sides: the comparison is over JSON
    // content, insensitive to whitespace or key formatting drift.
    const std::string text = readFile(fixturePath(c.fixture));
    const std::string actual = planToJsonString(result.plan, 0);
    if (text.empty() ||
        actual != planToJsonString(tryPlanFromJsonString(text).value(), 0)) {
        std::ofstream(std::string(c.fixture) + ".actual")
            << planToJsonString(result.plan) << "\n";
        ADD_FAILURE() << c.fixture
                      << ": plan changed (computed plan written to "
                      << c.fixture
                      << ".actual); if intentional, run "
                         "scripts/update_golden_plans.sh and commit "
                         "the diff";
    }

    // Spot checks that survive even a fixture refresh: the golden
    // workloads must stay feasible with the paper's shape.
    EXPECT_EQ(static_cast<int>(result.plan.stages.size()),
              c.pipeline * result.plan.virtualStages);
    EXPECT_GT(result.plan.timing.total, 0.0);
}

TEST(GoldenPlan, Gpt3_175B_ClusterA)
{
    GoldenCase c;
    c.fixture = "gpt3_175b_adapipe_plan.json";
    c.model = gpt3_175b();
    c.seq = 16384;
    c.globalBatch = 32;
    c.tensor = 8;
    c.pipeline = 8;
    c.data = 1;
    checkGolden(c);
}

TEST(GoldenPlan, Llama2_70B_ClusterA)
{
    GoldenCase c;
    c.fixture = "llama2_70b_adapipe_plan.json";
    c.model = llama2_70b();
    c.seq = 4096;
    c.globalBatch = 64;
    c.tensor = 4;
    c.pipeline = 8;
    c.data = 2;
    checkGolden(c);
}

/**
 * The configuration behind the non-AdaPipe and non-1F1B fixtures:
 * the GPT-3 175B golden workload at global batch 8 (n = 8), small
 * enough that the overlap planner's cache-less second pass stays
 * around two seconds.
 */
GoldenCase
smallBatchCase(const char *fixture,
          std::function<PlanResult(const ProfiledModel &)> plan)
{
    GoldenCase c;
    c.fixture = fixture;
    c.model = gpt3_175b();
    c.seq = 16384;
    c.globalBatch = 8;
    c.tensor = 8;
    c.pipeline = 8;
    c.data = 1;
    c.plan = std::move(plan);
    return c;
}

TEST(GoldenPlan, Gpt3_175B_Gb8_InterleavedV2)
{
    checkGolden(smallBatchCase(
        "gpt3_175b_gb8_adapipe_v2_plan.json", [](const ProfiledModel &pm) {
            return makeInterleavedPlan(pm, PlanMethod::AdaPipe, 2);
        }));
}

TEST(GoldenPlan, Gpt3_175B_Gb8_OverlapV1)
{
    checkGolden(smallBatchCase(
        "gpt3_175b_gb8_adapipe_overlap_plan.json",
        [](const ProfiledModel &pm) {
            return makeOverlapPlan(pm, PlanMethod::AdaPipe, 1);
        }));
}

TEST(GoldenPlan, Gpt3_175B_Gb8_EvenPartition)
{
    checkGolden(smallBatchCase(
        "gpt3_175b_gb8_even_plan.json", [](const ProfiledModel &pm) {
            return makePlan(pm, PlanMethod::EvenPartition);
        }));
}

TEST(GoldenPlan, Gpt3_175B_Gb8_DappleFull)
{
    checkGolden(smallBatchCase(
        "gpt3_175b_gb8_dapple_full_plan.json", [](const ProfiledModel &pm) {
            return makePlan(pm, PlanMethod::DappleFull);
        }));
}

TEST(GoldenPlan, FixturesRoundTripThroughPlanIo)
{
    // The committed fixtures themselves must survive a parse/dump
    // round trip (guards the reader against schema drift).
    for (const char *name : {"gpt3_175b_adapipe_plan.json",
                             "llama2_70b_adapipe_plan.json",
                             "gpt3_175b_gb8_adapipe_v2_plan.json",
                             "gpt3_175b_gb8_adapipe_overlap_plan.json",
                             "gpt3_175b_gb8_even_plan.json",
                             "gpt3_175b_gb8_dapple_full_plan.json"}) {
        const std::string text = readFile(fixturePath(name));
        const PipelinePlan plan = tryPlanFromJsonString(text).value();
        const PipelinePlan again =
            tryPlanFromJsonString(planToJsonString(plan)).value();
        EXPECT_EQ(planToJsonString(plan, 0),
                  planToJsonString(again, 0))
            << name;
    }
}

} // namespace
} // namespace adapipe
