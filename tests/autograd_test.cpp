/**
 * @file
 * Tests for the autograd engine: gradient correctness against finite
 * differences, checkpointing bit-exactness and the activation-memory
 * meter.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "autograd/checkpoint.h"
#include "autograd/module.h"
#include "autograd/ops.h"
#include "autograd/optim.h"
#include "autograd/variable.h"
#include "util/rng.h"

namespace adapipe {
namespace {

/** Numerical gradient of f at x via central differences. */
template <typename F>
Tensor
numericalGrad(F f, Variable &x, float eps = 1e-3f)
{
    Tensor grad(x.value().shape());
    for (std::int64_t i = 0; i < x.value().numel(); ++i) {
        const float orig = x.value()[i];
        x.mutableValue()[i] = orig + eps;
        const float hi = f();
        x.mutableValue()[i] = orig - eps;
        const float lo = f();
        x.mutableValue()[i] = orig;
        grad[i] = (hi - lo) / (2 * eps);
    }
    return grad;
}

void
expectGradNear(const Tensor &analytic, const Tensor &numeric,
               float tol = 2e-2f)
{
    ASSERT_EQ(analytic.numel(), numeric.numel());
    for (std::int64_t i = 0; i < analytic.numel(); ++i) {
        EXPECT_NEAR(analytic[i], numeric[i], tol)
            << "at element " << i;
    }
}

TEST(Autograd, MatmulGradient)
{
    Rng rng(1);
    Variable a(Tensor::randn({3, 4}, rng), true);
    Variable b(Tensor::randn({4, 2}, rng), true);

    auto loss_value = [&]() {
        NoGradGuard guard;
        Variable out = ops::matmul(a, b);
        float sum = 0;
        for (std::int64_t i = 0; i < out.value().numel(); ++i)
            sum += out.value()[i];
        return sum;
    };

    a.zeroGrad();
    b.zeroGrad();
    Variable out = ops::matmul(a, b);
    out.backward();
    expectGradNear(a.grad(), numericalGrad(loss_value, a));
    expectGradNear(b.grad(), numericalGrad(loss_value, b));
}

TEST(Autograd, GeluGradient)
{
    Rng rng(2);
    Variable x(Tensor::randn({2, 5}, rng), true);
    auto loss_value = [&]() {
        NoGradGuard guard;
        Variable out = ops::gelu(x);
        float sum = 0;
        for (std::int64_t i = 0; i < out.value().numel(); ++i)
            sum += out.value()[i];
        return sum;
    };
    x.zeroGrad();
    ops::gelu(x).backward();
    expectGradNear(x.grad(), numericalGrad(loss_value, x));
}

TEST(Autograd, LayerNormGradient)
{
    Rng rng(3);
    Variable x(Tensor::randn({3, 6}, rng), true);
    Variable gamma(Tensor::full({6}, 1.2f), true);
    Variable beta(Tensor::full({6}, -0.1f), true);
    auto loss_value = [&]() {
        NoGradGuard guard;
        Variable out = ops::layerNorm(x, gamma, beta);
        float sum = 0;
        for (std::int64_t i = 0; i < out.value().numel(); ++i)
            sum += out.value()[i] * (i % 3 == 0 ? 1.0f : 0.5f);
        return sum;
    };
    // Weighted sum to break symmetry: re-express as explicit graph.
    x.zeroGrad();
    gamma.zeroGrad();
    beta.zeroGrad();
    Variable out = ops::layerNorm(x, gamma, beta);
    Tensor weights(out.value().shape());
    for (std::int64_t i = 0; i < weights.numel(); ++i)
        weights[i] = i % 3 == 0 ? 1.0f : 0.5f;
    Variable w(std::move(weights), false);
    Variable weighted = ops::mul(out, w);
    weighted.backward();
    expectGradNear(x.grad(), numericalGrad(loss_value, x));
    expectGradNear(gamma.grad(), numericalGrad(loss_value, gamma));
    expectGradNear(beta.grad(), numericalGrad(loss_value, beta));
}

TEST(Autograd, SoftmaxCausalRowsSumToOne)
{
    Rng rng(4);
    Variable x(Tensor::randn({5, 5}, rng), false);
    Variable p = ops::softmaxRows(x, true);
    for (int i = 0; i < 5; ++i) {
        float row = 0;
        for (int j = 0; j < 5; ++j) {
            if (j > i) {
                EXPECT_EQ(p.value().at(i, j), 0.0f);
            }
            row += p.value().at(i, j);
        }
        EXPECT_NEAR(row, 1.0f, 1e-5f);
    }
}

TEST(Autograd, CrossEntropyGradient)
{
    Rng rng(5);
    Variable logits(Tensor::randn({4, 7}, rng), true);
    const std::vector<int> targets{1, 3, 0, 6};
    auto loss_value = [&]() {
        NoGradGuard guard;
        return ops::crossEntropy(logits, targets).value()[0];
    };
    logits.zeroGrad();
    ops::crossEntropy(logits, targets).backward();
    expectGradNear(logits.grad(), numericalGrad(loss_value, logits),
                   1e-2f);
}

TEST(Autograd, EmbeddingRoutesGradients)
{
    Variable table(Tensor::full({4, 3}, 0.5f), true);
    table.zeroGrad();
    Variable out = ops::embedding(table, {2, 2, 0});
    out.backward();
    // Row 2 selected twice, row 0 once, rows 1/3 never.
    EXPECT_FLOAT_EQ(table.grad().at(2, 0), 2.0f);
    EXPECT_FLOAT_EQ(table.grad().at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(table.grad().at(1, 0), 0.0f);
    EXPECT_FLOAT_EQ(table.grad().at(3, 0), 0.0f);
}

TEST(Checkpoint, GradientsBitExact)
{
    // The core recomputation invariant: checkpointed and plain
    // execution produce *identical* gradients.
    Rng rng(6);
    const Tensor w_init = Tensor::randn({8, 8}, rng, 0.3f);
    const Tensor x_init = Tensor::randn({4, 8}, rng);

    auto run = [&](bool use_checkpoint) {
        Variable w(w_init, true);
        Variable x(x_init, true);
        w.zeroGrad();
        x.zeroGrad();
        auto segment = [&](const Variable &in) {
            return ops::gelu(ops::matmul(in, w));
        };
        Variable out = use_checkpoint ? checkpoint(segment, x, {w})
                                      : segment(x);
        Variable out2 = ops::gelu(out);
        out2.backward();
        return std::pair<Tensor, Tensor>(w.grad(), x.grad());
    };

    const auto [w_plain, x_plain] = run(false);
    const auto [w_ckpt, x_ckpt] = run(true);
    for (std::int64_t i = 0; i < w_plain.numel(); ++i)
        EXPECT_EQ(w_plain[i], w_ckpt[i]) << "w grad elem " << i;
    for (std::int64_t i = 0; i < x_plain.numel(); ++i)
        EXPECT_EQ(x_plain[i], x_ckpt[i]) << "x grad elem " << i;
}

TEST(Checkpoint, NestedSegments)
{
    Rng rng(7);
    const Tensor w_init = Tensor::randn({6, 6}, rng, 0.3f);
    const Tensor x_init = Tensor::randn({2, 6}, rng);

    auto run = [&](bool ckpt) {
        Variable w(w_init, true);
        Variable x(x_init, true);
        w.zeroGrad();
        x.zeroGrad();
        auto inner = [&](const Variable &in) {
            return ops::gelu(ops::matmul(in, w));
        };
        auto outer = [&](const Variable &in) {
            Variable mid =
                ckpt ? checkpoint(inner, in, {w}) : inner(in);
            return ops::matmul(mid, w);
        };
        Variable out =
            ckpt ? checkpoint(outer, x, {w}) : outer(x);
        out.backward();
        return w.grad();
    };

    const Tensor plain = run(false);
    const Tensor nested = run(true);
    for (std::int64_t i = 0; i < plain.numel(); ++i)
        EXPECT_EQ(plain[i], nested[i]);
}

TEST(Checkpoint, ReducesPeakActivationMemory)
{
    Rng rng(8);
    const int dim = 64;
    const int depth = 6;
    std::vector<Tensor> weights;
    for (int i = 0; i < depth; ++i)
        weights.push_back(Tensor::randn({dim, dim}, rng, 0.1f));
    const Tensor x_init = Tensor::randn({16, dim}, rng);

    auto peak = [&](bool ckpt) {
        std::vector<Variable> ws;
        for (const auto &w : weights)
            ws.emplace_back(w, true);
        Variable x(x_init, true);
        for (auto &w : ws)
            w.zeroGrad();
        x.zeroGrad();
        resetActivationMeter();
        Variable h = x;
        for (int i = 0; i < depth; ++i) {
            auto segment = [&, i](const Variable &in) {
                return ops::gelu(ops::matmul(in, ws[i]));
            };
            h = ckpt ? checkpoint(segment, h, {ws[i]})
                     : segment(h);
        }
        h.backward();
        return peakActivationFloats();
    };

    const auto plain = peak(false);
    const auto saved = peak(true);
    EXPECT_LT(saved, plain);
}

TEST(Optim, SgdDescendsQuadratic)
{
    // Minimise ||x||^2 with SGD; converges to 0.
    Variable x(Tensor::full({4}, 2.0f), true);
    Sgd sgd({x}, 0.1f);
    for (int step = 0; step < 100; ++step) {
        sgd.zeroGrad();
        Variable loss = ops::mul(x, x);
        loss.backward();
        sgd.step();
    }
    for (std::int64_t i = 0; i < x.value().numel(); ++i)
        EXPECT_NEAR(x.value()[i], 0.0f, 1e-3f);
}

TEST(Optim, AdamDescendsQuadratic)
{
    Variable x(Tensor::full({4}, 2.0f), true);
    Adam adam({x}, 0.05f);
    for (int step = 0; step < 400; ++step) {
        adam.zeroGrad();
        Variable loss = ops::mul(x, x);
        loss.backward();
        adam.step();
    }
    for (std::int64_t i = 0; i < x.value().numel(); ++i)
        EXPECT_NEAR(x.value()[i], 0.0f, 1e-2f);
}

TEST(Autograd, NoGradModeBuildsNoGraph)
{
    Rng rng(9);
    Variable a(Tensor::randn({2, 2}, rng), true);
    NoGradGuard guard;
    Variable out = ops::matmul(a, a);
    // Constant leaf: backward from it reaches nothing.
    a.zeroGrad();
    out.backward();
    for (std::int64_t i = 0; i < a.grad().numel(); ++i)
        EXPECT_EQ(a.grad()[i], 0.0f);
}

} // namespace
} // namespace adapipe
