/**
 * @file
 * train_tinylm: tiny-LM training on the multithreaded pipeline
 * runtime, with per-stage recomputation from the overlap planner and
 * overlapped replay on.
 *
 * One operation is one training step. The timed window repeats a
 * fixed-length run (kWindowSteps steps from a freshly initialised
 * model), so every window trains the same steps and must produce the
 * same losses, which are checked bit for bit against the
 * single-threaded trainTinyLM. Set-up is model initialisation plus
 * profiling and planning, repeated between windows. The traced run passes an obs::Registry to
 * runPipeline on odd windows and microtimes the autograd kernels on
 * the workload's shapes after the window.
 */

#include "autograd/module.h"
#include "autograd/ops.h"
#include "autograd/optim.h"
#include "autograd/tensor_pool.h"
#include "autograd/trainer.h"
#include "bench.h"
#include "hw/cluster.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/plan_mapping.h"
#include "sim/interleaved_planner.h"
#include "util/rng.h"

namespace adapipe {
namespace perfbench {
namespace {

constexpr int kStages = 4;
constexpr int kMicroBatches = 8;
constexpr int kSeq = 64;
constexpr int kWindowSteps = 4;
/** Windows between two timed set-ups, for setup_s. */
constexpr int kWindowsPerSetup = 2;

TinyLmConfig
modelConfig(std::uint64_t seed)
{
    TinyLmConfig cfg;
    cfg.dim = 128;
    cfg.ffnHidden = 256;
    cfg.blocks = 8;
    cfg.maxSeq = kSeq;
    cfg.seed = seed;
    return cfg;
}

ProfiledModel
profileTiny(const TinyLmConfig &cfg)
{
    TrainConfig train;
    train.seqLen = kSeq;
    train.microBatch = 1;
    train.globalBatch = kMicroBatches; // d = 1: n micro-batches
    ParallelConfig par;
    par.tensor = 1;
    par.pipeline = kStages;
    par.data = 1;
    return buildProfiledModel(tinyLmModelConfig(cfg), train, par,
                              clusterA(1));
}

/** Median microseconds of @p reps calls of @p fn. */
template <typename Fn>
double
microtime(int reps, Fn &&fn)
{
    std::vector<double> us;
    for (int r = 0; r < reps; ++r) {
        const double t0 = nowSeconds();
        fn();
        us.push_back((nowSeconds() - t0) * 1e6);
    }
    return median(us);
}

/**
 * Kernel microtimings at the workload's shapes: one micro-batch of
 * kSeq tokens through the feed-forward up-projection (matmul), a
 * layer norm and the attention sub-layer, each forward plus backward
 * except matmul, which is split; and one Adam step over the model.
 */
void
microtimeAutograd(const TinyLmConfig &cfg, Report &report)
{
    constexpr int kReps = 200;
    Rng rng(cfg.seed);
    const Variable x(Tensor::randn({kSeq, cfg.dim}, rng), true);
    const Variable w(Tensor::randn({cfg.dim, cfg.ffnHidden}, rng), true);
    const Tensor seed_ffn =
        Tensor::randn({kSeq, cfg.ffnHidden}, rng);
    const Tensor seed_dim = Tensor::randn({kSeq, cfg.dim}, rng);

    report.layers["autograd.matmul_fwd_us"] = {
        microtime(kReps, [&] { (void)ops::matmul(x, w); }), "us", kReps};
    std::vector<double> bwd;
    for (int r = 0; r < kReps; ++r) {
        Variable y = ops::matmul(x, w);
        const double t0 = nowSeconds();
        y.backward(seed_ffn);
        bwd.push_back((nowSeconds() - t0) * 1e6);
    }
    report.layers["autograd.matmul_bwd_us"] = {median(bwd), "us",
                                               bwd.size()};

    const Variable gamma(Tensor::full({cfg.dim}, 1.0f), true);
    const Variable beta(Tensor::full({cfg.dim}, 0.0f), true);
    report.layers["autograd.norm_us"] = {
        microtime(kReps,
                  [&] { ops::layerNorm(x, gamma, beta).backward(seed_dim); }),
        "us", kReps};

    const CausalSelfAttention attn(cfg.dim, cfg.numHeads, rng);
    report.layers["autograd.attention_us"] = {
        microtime(kReps, [&] { attn.forward(x).backward(seed_dim); }),
        "us", kReps};

    // Adam needs gradients to apply: take them from one micro-batch.
    TinyLM model(cfg);
    std::vector<int> tokens;
    std::vector<int> targets;
    makeBigramBatch(cfg.vocab, kSeq, 0, cfg.seed, tokens, targets);
    model.loss(tokens, targets, {}).backward();
    Adam adam(model.params(), 4e-3f);
    report.layers["autograd.adam_us"] = {
        microtime(kReps, [&] { adam.step(); }), "us", kReps};
}

} // namespace

void
runTrainTinyLm(const RunOptions &opts, Report &report,
               TraceOutput &trace)
{
    const TinyLmConfig cfg = modelConfig(opts.seed);

    // Set-up: initialise the model, profile and plan. It is repeated
    // between windows too, outside their time, so the reported median
    // spans the same stretch of host time as the steps. The first
    // set-up of a traced run is traced: it feeds the hw/core/sim layers.
    std::vector<double> setup;
    std::vector<double> profile_s;
    CoreProbe probe;
    const auto set_up = [&](bool traced) {
        obs::ScopedRegistry scoped(traced ? &trace.registry : nullptr);
        SpanScope span(traced ? &trace.spans : nullptr, "train.setup");
        const double t0 = nowSeconds();
        const TinyLM init(cfg);
        const double t1 = nowSeconds();
        const ProfiledModel pm = profileTiny(cfg);
        const double t2 = nowSeconds();
        PlanResult planned = makeOverlapPlan(pm, PlanMethod::AdaPipe, 1);
        setup.push_back(nowSeconds() - t0);
        profile_s.push_back(t2 - t1);
        if (traced && planned.ok)
            probe = probeCore(pm, planned.plan, true);
        return planned;
    };
    const PlanResult plan = set_up(opts.trace);
    if (!plan.ok) {
        report.check("tiny-LM plan is ok", plan.oomReason);
        return;
    }
    const StageMapping mapping = stageSpecsFromPlan(plan.plan, cfg);
    RuntimeOptions run;
    run.steps = kWindowSteps;
    run.seqLen = kSeq;
    run.microBatches = kMicroBatches;
    run.dataSeed = opts.seed;
    run.overlapReplay = true;
    run.intraStageThreads = 1;
    run.virtualStages = mapping.virtualStages;

    // Timed window. Odd windows of a traced run are traced;
    // a traced run makes at least one of each.
    const std::int64_t min_ops = opts.trace ? 2 : 1;
    std::vector<double> untraced_step;
    std::vector<double> traced_step;
    std::vector<double> first_losses;
    std::string mismatch;
    std::vector<RuntimeResult> traced_runs;
    TensorPool::Stats pool_traced{};
    const double start = nowSeconds();
    for (std::int64_t k = 0;
         k < min_ops || nowSeconds() - start < opts.seconds; ++k) {
        const bool traced = opts.trace && k % 2 == 1;
        TinyLM model(cfg);
        const TensorPool::Stats pool_before = TensorPool::instance().stats();
        double dt = 0;
        RuntimeResult result;
        {
            SpanScope span(traced ? &trace.spans : nullptr,
                           "train.window", k);
            const double t0 = nowSeconds();
            result = runPipeline(model, mapping.stages, run,
                                 traced ? &trace.registry : nullptr);
            dt = nowSeconds() - t0;
        }
        (traced ? traced_step : untraced_step)
            .push_back(dt / kWindowSteps);
        if (traced) {
            const TensorPool::Stats after = TensorPool::instance().stats();
            pool_traced.reuses += after.reuses - pool_before.reuses;
            pool_traced.heapAllocs +=
                after.heapAllocs - pool_before.heapAllocs;
        }
        if (k % kWindowsPerSetup == kWindowsPerSetup - 1)
            set_up(false);
        report.attempted += kWindowSteps;
        if (!result.ok) {
            report.failed += kWindowSteps;
            continue;
        }
        if (first_losses.empty())
            first_losses = result.losses;
        else if (result.losses != first_losses && mismatch.empty())
            mismatch = "window " + std::to_string(k) +
                       " losses differ from window 0";
        if (traced)
            traced_runs.push_back(std::move(result));
    }

    report.check("every step ok",
                 report.failed ? std::to_string(report.failed) +
                                     " steps failed"
                               : "");
    report.check("losses identical across windows", mismatch);
    {
        TinyLM ref(cfg); // same seed: identical initialisation
        TrainOptions ref_opts;
        ref_opts.steps = kWindowSteps;
        ref_opts.seqLen = kSeq;
        ref_opts.lr = run.lr;
        ref_opts.dataSeed = run.dataSeed;
        ref_opts.microBatches = kMicroBatches;
        for (const StageSpec &spec : mapping.stages)
            ref_opts.recompute.insert(ref_opts.recompute.end(),
                                      spec.recompute.begin(),
                                      spec.recompute.end());
        const TrainStats ref_stats = trainTinyLM(ref, ref_opts);
        std::string differs;
        if (first_losses.empty())
            differs = "no successful window";
        else if (ref_stats.losses != first_losses)
            differs = "pipeline losses differ from trainTinyLM";
        report.check("losses equal trainTinyLM bit for bit", differs);
    }

    const double tokens_per_step = kMicroBatches * kSeq;
    double total = 0;
    for (const double s : untraced_step)
        total += s;
    const double step = median(untraced_step);
    report.endToEnd["setup_s"] = {median(setup), "s", setup.size()};
    report.endToEnd["op_p50_ms"] = {step * 1e3, "ms",
                                    untraced_step.size()};
    report.endToEnd["work_per_s"] = {
        tokens_per_step * static_cast<double>(untraced_step.size()) /
            total,
        "1/s", untraced_step.size()};
    report.extra["train_tok_s"] = report.endToEnd["work_per_s"];
    report.series["step_s"] = untraced_step;
    report.series["setup_s"] = setup;
    report.extra["final_loss"] = {
        first_losses.empty() ? 0 : first_losses.back(), "nats", 1};

    if (!opts.trace)
        return;

    report.layers["hw.profile_s"] = {median(profile_s), "s",
                                     profile_s.size()};
    report.check("core probe reproduces the planner's partition",
                 probe.reproduces ? ""
                                  : "probe partition differs from plan");
    reportCore(report, probe, 1);
    report.layers["sim.simulate_s"] = {
        registrySpanSeconds(trace.registry, "sim.simulate"), "s", 1};
    report.layers["sim.events"] = {
        static_cast<double>(trace.registry.counter("sim.events")),
        "count", 1};

    // Runtime layer, per step, summed over stages.
    const std::size_t windows = traced_runs.size();
    const double steps = static_cast<double>(windows * kWindowSteps);
    double fwd = 0, bwd = 0, crit = 0, hidden = 0, recv = 0, sent = 0;
    double wall = 0;
    std::int64_t peak_floats = 0;
    for (const RuntimeResult &r : traced_runs) {
        for (const StageMetrics &m : r.stages) {
            fwd += m.fwdSeconds;
            bwd += m.bwdComputeSeconds();
            crit += m.replayCriticalSeconds();
            hidden += m.replayHiddenSeconds;
            recv += m.recvWaitSeconds;
            sent += m.sendBlockedSeconds;
        }
        wall += r.wallSeconds * static_cast<double>(r.stages.size());
        peak_floats = std::max(peak_floats, r.peakActivationFloats);
    }
    report.layers["runtime.fwd_s"] = {fwd / steps, "s", windows};
    report.layers["runtime.bwd_compute_s"] = {bwd / steps, "s", windows};
    report.layers["runtime.replay_critical_s"] = {crit / steps, "s",
                                                  windows};
    report.layers["runtime.replay_hidden_s"] = {hidden / steps, "s",
                                                windows};
    report.layers["runtime.recv_wait_s"] = {recv / steps, "s", windows};
    report.layers["runtime.send_blocked_s"] = {sent / steps, "s",
                                               windows};
    report.layers["runtime.bubble_frac"] = {
        wall > 0 ? (recv + sent) / wall : 0, "ratio", windows};
    report.layers["runtime.peak_act_mib"] = {
        static_cast<double>(peak_floats) * sizeof(float) / (1 << 20),
        "MiB", windows};

    report.layers["autograd.checkpoint_replays"] = {
        static_cast<double>(
            trace.registry.counter("checkpoint.replays")) /
            steps,
        "count", windows};
    const double acquires =
        static_cast<double>(pool_traced.reuses + pool_traced.heapAllocs);
    report.layers["autograd.pool_reuse_ratio"] = {
        acquires > 0 ? static_cast<double>(pool_traced.reuses) / acquires
                     : 0,
        "ratio", windows};
    report.layers["autograd.pool_heap_mib"] = {
        static_cast<double>(TensorPool::instance().stats().heapBytes) /
            (1 << 20),
        "MiB", 1};
    {
        SpanScope span(&trace.spans, "autograd.microtime");
        microtimeAutograd(cfg, report);
    }
    report.layers["trace.overhead_frac"] = {
        median(traced_step) / step - 1, "ratio", traced_step.size()};
    report.extra["step_ms.traced"] = {median(traced_step) * 1e3, "ms",
                                      traced_step.size()};
}

} // namespace perfbench
} // namespace adapipe
