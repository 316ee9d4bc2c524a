/** @file Gradient checks for the SAGE layer and learning tests for the
 *  full model — the functional heart of the reproduction. */

#include <gtest/gtest.h>

#include <cmath>

#include "gnn/feature_table.hh"
#include "gnn/layers.hh"
#include "gnn/model.hh"
#include "gnn/sampler.hh"
#include "graph/builder.hh"
#include "graph/powerlaw.hh"

using namespace smartsage::gnn;
using namespace smartsage::graph;
using smartsage::sim::Rng;

namespace
{

/** Tiny fixed block: 2 dsts over a 4-node src frontier. */
SampledBlock
tinyBlock()
{
    SampledBlock b;
    b.offsets = {0, 2, 3};    // dst0 <- {src2, src3}, dst1 <- {src1}
    b.src_index = {2, 3, 1};
    return b;
}

double
lossOf(const Tensor2D &out)
{
    // Simple quadratic objective sum(out^2)/2 for gradient checking.
    double l = 0;
    for (float v : out.data())
        l += 0.5 * double(v) * v;
    return l;
}

Tensor2D
lossGrad(const Tensor2D &out)
{
    Tensor2D g = out; // dL/dout = out
    return g;
}

} // namespace

TEST(SageLayer, ForwardShapeAndAggregation)
{
    Rng rng(1);
    SageMeanLayer layer(2, 3, false, rng);
    SampledBlock block = tinyBlock();

    Tensor2D h(4, 2);
    for (std::size_t i = 0; i < 4; ++i) {
        h.at(i, 0) = float(i);
        h.at(i, 1) = float(2 * i);
    }

    SageContext ctx;
    Tensor2D out = layer.forward(h, block, ctx);
    EXPECT_EQ(out.rows(), 2u);
    EXPECT_EQ(out.cols(), 3u);

    // Aggregate of dst0 = mean(rows 2, 3) = (2.5, 5).
    EXPECT_FLOAT_EQ(ctx.h_agg.at(0, 0), 2.5f);
    EXPECT_FLOAT_EQ(ctx.h_agg.at(0, 1), 5.0f);
    // Aggregate of dst1 = row 1 = (1, 2).
    EXPECT_FLOAT_EQ(ctx.h_agg.at(1, 0), 1.0f);
    // Self term is the prefix rows.
    EXPECT_FLOAT_EQ(ctx.h_self.at(1, 0), 1.0f);
}

TEST(SageLayer, IsolatedDstAggregatesZero)
{
    Rng rng(2);
    SageMeanLayer layer(2, 2, false, rng);
    SampledBlock block;
    block.offsets = {0, 0}; // one dst, no srcs
    Tensor2D h(1, 2);
    h.at(0, 0) = 3;
    SageContext ctx;
    Tensor2D out = layer.forward(h, block, ctx);
    EXPECT_FLOAT_EQ(ctx.h_agg.at(0, 0), 0.0f);
    EXPECT_EQ(out.rows(), 1u);
}

/** Numerical gradient check of every parameter and the input. */
class SageLayerGradCheck : public ::testing::TestWithParam<bool>
{
};

TEST_P(SageLayerGradCheck, MatchesNumericalGradients)
{
    bool relu = GetParam();
    Rng rng(3);
    SageMeanLayer layer(3, 2, relu, rng);
    SampledBlock block = tinyBlock();
    Rng drng(4);
    Tensor2D h = Tensor2D::uniform(4, 3, 1.0f, drng);

    SageContext ctx;
    Tensor2D out = layer.forward(h, block, ctx);
    SageLayerGrads grads;
    Tensor2D d_in = layer.backward(lossGrad(out), ctx, grads);

    const float eps = 1e-3f;
    auto check_param = [&](Tensor2D &param, const Tensor2D &grad,
                           const char *name) {
        for (std::size_t i = 0; i < param.rows(); ++i) {
            for (std::size_t j = 0; j < param.cols(); ++j) {
                float saved = param.at(i, j);
                SageContext c1, c2;
                param.at(i, j) = saved + eps;
                double lp = lossOf(layer.forward(h, block, c1));
                param.at(i, j) = saved - eps;
                double lm = lossOf(layer.forward(h, block, c2));
                param.at(i, j) = saved;
                double numeric = (lp - lm) / (2 * eps);
                EXPECT_NEAR(grad.at(i, j), numeric, 2e-2)
                    << name << "[" << i << "," << j << "]";
            }
        }
    };
    check_param(layer.mutableWSelf(), grads.w_self, "w_self");
    check_param(layer.mutableWNeigh(), grads.w_neigh, "w_neigh");
    check_param(layer.mutableBias(), grads.bias, "bias");

    // Input gradient.
    for (std::size_t i = 0; i < h.rows(); ++i) {
        for (std::size_t j = 0; j < h.cols(); ++j) {
            float saved = h.at(i, j);
            SageContext c1, c2;
            h.at(i, j) = saved + eps;
            double lp = lossOf(layer.forward(h, block, c1));
            h.at(i, j) = saved - eps;
            double lm = lossOf(layer.forward(h, block, c2));
            h.at(i, j) = saved;
            double numeric = (lp - lm) / (2 * eps);
            EXPECT_NEAR(d_in.at(i, j), numeric, 2e-2)
                << "h[" << i << "," << j << "]";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(LinearAndRelu, SageLayerGradCheck,
                         ::testing::Values(false, true));

TEST(SageLayer, ApplyGradsMovesParameters)
{
    Rng rng(5);
    SageMeanLayer layer(2, 2, false, rng);
    SageLayerGrads g;
    g.w_self = Tensor2D(2, 2);
    g.w_neigh = Tensor2D(2, 2);
    g.bias = Tensor2D(1, 2);
    g.w_self.at(0, 0) = 1.0f;
    float before = layer.wSelf().at(0, 0);
    layer.applyGrads(g, 0.1f);
    EXPECT_FLOAT_EQ(layer.wSelf().at(0, 0), before - 0.1f);
}

TEST(SageLayer, ForwardMacsFormula)
{
    EXPECT_EQ(SageMeanLayer::forwardMacs(10, 4, 8), 2u * 10 * 4 * 8);
}

TEST(SageModel, LayerWidthsChain)
{
    ModelConfig mc;
    mc.in_dim = 12;
    mc.hidden_dim = 7;
    mc.num_classes = 3;
    mc.depth = 3;
    SageModel model(mc);
    ASSERT_EQ(model.layers().size(), 3u);
    EXPECT_EQ(model.layers()[0].inDim(), 12u);
    EXPECT_EQ(model.layers()[0].outDim(), 7u);
    EXPECT_EQ(model.layers()[2].inDim(), 7u);
    EXPECT_EQ(model.layers()[2].outDim(), 3u);
    EXPECT_TRUE(model.layers()[0].hasRelu());
    EXPECT_FALSE(model.layers()[2].hasRelu());
}

TEST(SageModel, ParameterCount)
{
    ModelConfig mc;
    mc.in_dim = 4;
    mc.hidden_dim = 5;
    mc.num_classes = 2;
    mc.depth = 2;
    SageModel model(mc);
    // layer0: 2*4*5 + 5; layer1: 2*5*2 + 2
    EXPECT_EQ(model.parameterCount(), 40u + 5 + 20 + 2);
}

TEST(SageModel, TrainingReducesLoss)
{
    PowerLawParams gp;
    gp.num_nodes = 1024;
    gp.avg_degree = 16;
    CsrGraph g = generatePowerLaw(gp);

    ModelConfig mc;
    mc.in_dim = 16;
    mc.hidden_dim = 24;
    mc.num_classes = 4;
    mc.depth = 2;
    mc.learning_rate = 0.1f;
    SageModel model(mc);
    FeatureTable ft(g.numNodes(), mc.in_dim, mc.num_classes);
    SageSampler sampler({8, 4});
    Rng rng(11);

    double first = 0, avg_late = 0;
    for (int step = 0; step < 40; ++step) {
        auto targets = selectTargets(g, 128, rng);
        Subgraph sg = sampler.sample(g, targets, rng);
        double loss = model.trainStep(sg, ft);
        if (step == 0)
            first = loss;
        if (step >= 35)
            avg_late += loss / 5.0;
    }
    EXPECT_LT(avg_late, first * 0.75);
}

TEST(SageModel, TrainStepMatchesAllocatingPath)
{
    // trainStep skips layer 0's input gradient (the features are not
    // trainable); the allocating forward/backward path still computes
    // it. Parameters and losses must agree bit-for-bit. Widths straddle
    // the GEMM tiles (kKB = 64, kJB = 128) and the 8-lane tails.
    PowerLawParams gp;
    gp.num_nodes = 2048;
    gp.avg_degree = 16;
    CsrGraph g = generatePowerLaw(gp);

    ModelConfig mc;
    mc.in_dim = 150;
    mc.hidden_dim = 70;
    mc.num_classes = 11;
    mc.depth = 2;
    SageModel fast(mc), reference(mc);
    FeatureTable ft(g.numNodes(), mc.in_dim, mc.num_classes);
    SageSampler sampler({10, 5});
    Rng rng(13);

    for (int step = 0; step < 3; ++step) {
        auto targets = selectTargets(g, 200, rng);
        Subgraph sg = sampler.sample(g, targets, rng);
        const double fast_loss = fast.trainStep(sg, ft);

        std::vector<SageContext> ctxs;
        Tensor2D logits = reference.forward(sg, ft, &ctxs);
        Tensor2D d;
        const double ref_loss =
            softmaxCrossEntropy(logits, ft.labels(sg.targets()), d);
        auto &layers = reference.mutableLayers();
        for (std::size_t l = layers.size(); l-- > 0;) {
            SageLayerGrads grads;
            Tensor2D d_src = layers[l].backward(d, ctxs[l], grads);
            EXPECT_EQ(d_src.rows(), ctxs[l].src_rows);
            layers[l].applyGrads(grads, mc.learning_rate);
            d = std::move(d_src);
        }
        EXPECT_EQ(fast_loss, ref_loss) << "step " << step;
        EXPECT_EQ(fast.stateHash(), reference.stateHash())
            << "step " << step;
    }
}

TEST(SageModel, AccuracyBeatsChanceAfterTraining)
{
    PowerLawParams gp;
    gp.num_nodes = 1024;
    gp.avg_degree = 16;
    CsrGraph g = generatePowerLaw(gp);

    ModelConfig mc;
    mc.in_dim = 16;
    mc.hidden_dim = 24;
    mc.num_classes = 4;
    mc.depth = 2;
    mc.learning_rate = 0.1f;
    SageModel model(mc);
    FeatureTable ft(g.numNodes(), mc.in_dim, mc.num_classes);
    SageSampler sampler({8, 4});
    Rng rng(12);

    for (int step = 0; step < 50; ++step) {
        auto targets = selectTargets(g, 128, rng);
        model.trainStep(sampler.sample(g, targets, rng), ft);
    }
    auto targets = selectTargets(g, 512, rng);
    double acc = model.evaluate(sampler.sample(g, targets, rng), ft);
    EXPECT_GT(acc, 0.5); // chance = 0.25
}

TEST(SageModelDeath, DepthMismatchPanics)
{
    PowerLawParams gp;
    gp.num_nodes = 256;
    CsrGraph g = generatePowerLaw(gp);
    ModelConfig mc;
    mc.in_dim = 8;
    mc.depth = 2;
    SageModel model(mc);
    FeatureTable ft(g.numNodes(), 8, mc.num_classes);
    SageSampler sampler({4}); // depth 1 != model depth 2
    Rng rng(13);
    auto targets = selectTargets(g, 8, rng);
    Subgraph sg = sampler.sample(g, targets, rng);
    EXPECT_DEATH(model.trainStep(sg, ft), "depth");
}
