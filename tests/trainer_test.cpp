/**
 * @file
 * Tests for the tiny LM and its trainer: learning on the synthetic
 * bigram task and the Fig. 10 invariant (recomputation does not
 * change the loss trajectory).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "autograd/module.h"
#include "autograd/trainer.h"

namespace adapipe {
namespace {

TinyLmConfig
smallConfig()
{
    TinyLmConfig cfg;
    cfg.vocab = 32;
    cfg.dim = 24;
    cfg.blocks = 2;
    cfg.ffnHidden = 48;
    cfg.maxSeq = 32;
    cfg.seed = 42;
    return cfg;
}

TEST(TinyLM, LossStartsNearLogVocab)
{
    TinyLM model(smallConfig());
    std::vector<int> tokens;
    std::vector<int> targets;
    makeBigramBatch(32, 16, 0, 7, tokens, targets);
    const Variable loss = model.loss(tokens, targets, {});
    EXPECT_NEAR(loss.value()[0], std::log(32.0f), 0.5f);
}

TEST(TinyLM, LearnsTheBigramTask)
{
    TinyLM model(smallConfig());
    TrainOptions opts;
    opts.steps = 120;
    opts.seqLen = 24;
    opts.lr = 5e-3f;
    const TrainStats stats = trainTinyLM(model, opts);
    ASSERT_EQ(stats.losses.size(), 120u);
    const double first = stats.losses.front();
    double last_avg = 0;
    for (int i = 0; i < 10; ++i)
        last_avg += stats.losses[stats.losses.size() - 1 - i];
    last_avg /= 10;
    EXPECT_LT(last_avg, first * 0.5) << "model failed to learn";
}

TEST(TinyLM, ParamsCollected)
{
    TinyLM model(smallConfig());
    // token + pos tables, per block (2 LN affine pairs + 4 linear
    // pairs + 2 MLP pairs), final LN pair, head weight.
    const auto params = model.params();
    const std::size_t per_block = 2 + 2 + 4 * 2 + 2 * 2;
    EXPECT_EQ(params.size(), 2 + 2 * per_block + 2 + 1);
    for (const auto &p : params)
        EXPECT_TRUE(p.requiresGrad());
}

TEST(TrainerConvergence, RecomputationIsBitExact)
{
    // Paper Fig. 10: AdaPipe "only reduces the repeated computation
    // without changing the computation of each operator", so loss
    // curves coincide. Our engine makes this exact: full vs none vs
    // mixed recomputation produce bit-identical losses.
    TrainOptions base;
    base.steps = 30;
    base.seqLen = 16;
    base.lr = 5e-3f;

    auto run = [&](std::vector<BlockRecompute> modes) {
        TinyLM model(smallConfig()); // same seed -> same init
        TrainOptions opts = base;
        opts.recompute = std::move(modes);
        return trainTinyLM(model, opts).losses;
    };

    const auto none = run({BlockRecompute::None, BlockRecompute::None});
    const auto full = run({BlockRecompute::Full, BlockRecompute::Full});
    const auto mixed =
        run({BlockRecompute::Full, BlockRecompute::AttentionOnly});

    ASSERT_EQ(none.size(), full.size());
    for (std::size_t i = 0; i < none.size(); ++i) {
        EXPECT_EQ(none[i], full[i]) << "step " << i;
        EXPECT_EQ(none[i], mixed[i]) << "step " << i;
    }
}

TEST(TrainerConvergence, DifferentInitDiverges)
{
    // The paper attributes residual curve differences to different
    // parameter initialisation (partitioning changes init order).
    TrainOptions opts;
    opts.steps = 10;
    opts.seqLen = 16;

    TinyLmConfig cfg_a = smallConfig();
    TinyLmConfig cfg_b = smallConfig();
    cfg_b.seed = 43;
    TinyLM a(cfg_a);
    TinyLM b(cfg_b);
    const auto la = trainTinyLM(a, opts).losses;
    const auto lb = trainTinyLM(b, opts).losses;
    bool any_diff = false;
    for (std::size_t i = 0; i < la.size(); ++i)
        any_diff = any_diff || la[i] != lb[i];
    EXPECT_TRUE(any_diff);
}

TEST(TrainerConvergence, RecomputationSavesMemory)
{
    // Needs a deep-enough model: checkpointing trades one block's
    // transient recompute graph against all blocks' retained
    // activations, so savings only dominate past a few blocks
    // (paper Sec. 2.2 / Chen et al.'s O(sqrt(L)) argument).
    TinyLmConfig cfg = smallConfig();
    cfg.blocks = 6;
    cfg.dim = 32;
    cfg.ffnHidden = 128;

    TrainOptions opts;
    opts.steps = 3;
    opts.seqLen = 24;

    TinyLM plain(cfg);
    opts.recompute = {};
    const auto none = trainTinyLM(plain, opts);

    TinyLM ckpt(cfg);
    opts.recompute.assign(cfg.blocks, BlockRecompute::Full);
    const auto full = trainTinyLM(ckpt, opts);

    EXPECT_LT(full.peakActivationFloats, none.peakActivationFloats);

    // Attention-only checkpointing sits in between.
    TinyLM mid(cfg);
    opts.recompute.assign(cfg.blocks, BlockRecompute::AttentionOnly);
    const auto attn = trainTinyLM(mid, opts);
    EXPECT_LT(attn.peakActivationFloats, none.peakActivationFloats);
    EXPECT_GT(attn.peakActivationFloats, full.peakActivationFloats);
}

TEST(Trainer, BigramBatchDeterministic)
{
    std::vector<int> t1;
    std::vector<int> y1;
    std::vector<int> t2;
    std::vector<int> y2;
    makeBigramBatch(64, 32, 3, 7, t1, y1);
    makeBigramBatch(64, 32, 3, 7, t2, y2);
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(y1, y2);
    // Different steps give different tokens but the same mapping.
    makeBigramBatch(64, 32, 4, 7, t2, y2);
    EXPECT_NE(t1, t2);
    for (std::size_t i = 0; i < t1.size(); ++i) {
        for (std::size_t j = 0; j < t2.size(); ++j) {
            if (t1[i] == t2[j]) {
                EXPECT_EQ(y1[i], y2[j]);
            }
        }
    }
}

} // namespace
} // namespace adapipe
