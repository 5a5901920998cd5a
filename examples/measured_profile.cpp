/**
 * @file
 * Measured-profile workflow: export the analytic unit-cost table,
 * perturb it the way a real profiling run would (per-unit noise and
 * a slower attention kernel), re-import it and re-plan.
 *
 * This is the paper's intended deployment loop: the search engine
 * consumes whatever per-unit times the profiler measured; nothing in
 * the DP code knows where they came from.
 */

#include <iostream>

#include "core/planner.h"
#include "core/profiled_model.h"
#include "hw/cluster.h"
#include "hw/profile_io.h"
#include "model/model_config.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/units.h"

using namespace adapipe;

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

    ProfiledModel pm = buildProfiledModel(model, train, par, cluster);

    std::cout << "Measured-profile workflow for " << model.name
              << "\n\n1. Export the analytic table (JSON, "
              << "hw/profile_io)\n";
    ProfileTable table = extractProfileTable(pm);
    const std::string json = profileTableToJsonString(table, 0);
    std::cout << "   " << table.layers.size() << " layers, "
              << json.size() << " bytes of JSON\n";

    std::cout << "2. Pretend we measured: +-10% per-unit noise, "
                 "attention kernels 25% slower\n";
    Rng rng(2024);
    table.source = "measured:synthetic";
    for (auto &layer : table.layers) {
        for (auto &u : layer) {
            const double noise = rng.uniform(0.9, 1.1);
            double factor = noise;
            if (u.kind == UnitKind::FlashAttention)
                factor *= 1.25;
            u.timeFwd *= factor;
            u.timeBwd *= factor;
        }
    }

    std::cout << "3. Re-import (round-tripped through JSON) and "
                 "re-plan\n\n";
    const ProfileTable back =
        tryProfileTableFromJsonString(profileTableToJsonString(table))
            .value();

    Table results({"Profile", "AdaPipe iteration", "Stage-0 saved",
                   "Stage-0 B time"});
    auto report = [&](const char *label) {
        const PlanResult r = makePlan(pm, PlanMethod::AdaPipe);
        if (!r.ok) {
            results.addRow({label, "OOM"});
            return;
        }
        const StagePlan &s0 = r.plan.stages.front();
        results.addRow({label, formatSeconds(r.plan.timing.total),
                        std::to_string(s0.savedUnits) + "/" +
                            std::to_string(s0.totalUnits),
                        formatSeconds(s0.timeBwd)});
    };
    report("analytic roofline");
    tryApplyProfileTable(pm, back).value();
    report("measured (synthetic)");
    results.print(std::cout);

    std::cout << "\nThe plan adapts to the measured costs — slower "
                 "attention raises its value\ndensity, so the "
                 "knapsack prioritises saving attention units.\n";
    return 0;
}
