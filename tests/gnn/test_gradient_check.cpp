/**
 * @file
 * Central-difference gradient checks through the code that training
 * runs. The mean-aggregator model is checked through
 * SageModel::trainStep itself (forwardInto, backwardInto and the
 * model's reused workspaces): with plain SGD the step moves every
 * parameter by -lr * grad, so the gradient trainStep computed is read
 * back from the update. The max-pool layer is checked through its
 * forward/backward. Widths cross the GEMM tiles (kKB = 64, kJB = 128)
 * and the 8-lane tails, and every check runs under both kernel modes.
 *
 * Each probed entry is moved by +-eps and the loss re-evaluated; per
 * parameter tensor the worst |numeric - analytic| is normalised by the
 * largest gradient magnitude among its probes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "gnn/feature_table.hh"
#include "gnn/model.hh"
#include "gnn/pool_layer.hh"
#include "gnn/sampler.hh"
#include "gnn/tensor.hh"
#include "graph/powerlaw.hh"

using namespace smartsage;
using gnn::Tensor2D;

namespace
{

constexpr unsigned kInDim = 150;  // > 2 * kKB, tails of 4 and 8 lanes
constexpr unsigned kHidden = 130; // > kJB
constexpr unsigned kClasses = 11;
constexpr float kEps = 5e-4f;
constexpr double kTolerance = 1e-2;

const graph::CsrGraph &
testGraph()
{
    static const graph::CsrGraph g = [] {
        graph::PowerLawParams gp;
        gp.num_nodes = 2048;
        gp.avg_degree = 10;
        gp.seed = 5;
        return graph::generatePowerLaw(gp);
    }();
    return g;
}

gnn::Subgraph
sampleBatch(const std::vector<unsigned> &fanouts)
{
    std::vector<graph::LocalNodeId> targets;
    for (graph::LocalNodeId v = 0; v < 24; ++v)
        targets.push_back(v * 37 % 2048);
    sim::Rng rng(0x5eed);
    return gnn::SageSampler(fanouts).sample(testGraph(), targets, rng);
}

/** Indices on both sides of every tile and lane boundary below @p n. */
std::vector<std::size_t>
probes(std::size_t n)
{
    std::vector<std::size_t> out;
    for (std::size_t i : {0, 7, 63, 64, 128})
        if (i < n - 1)
            out.push_back(i);
    out.push_back(n - 1);
    return out;
}

/**
 * Compare @p grad (the analytic gradient of @p param) against central
 * differences of @p loss at the probed entries; @p param is restored.
 */
void
checkTensor(const std::string &what, Tensor2D &param, const Tensor2D &grad,
            const std::function<double()> &loss)
{
    ASSERT_EQ(grad.rows(), param.rows()) << what;
    ASSERT_EQ(grad.cols(), param.cols()) << what;
    double worst_diff = 0, largest = 0;
    for (std::size_t r : probes(param.rows())) {
        for (std::size_t c : probes(param.cols())) {
            const float saved = param.at(r, c);
            param.at(r, c) = saved + kEps;
            const double up = loss();
            param.at(r, c) = saved - kEps;
            const double down = loss();
            param.at(r, c) = saved;
            const double numeric = (up - down) / (2.0 * kEps);
            const double exact = grad.at(r, c);
            worst_diff = std::max(worst_diff, std::abs(numeric - exact));
            largest = std::max({largest, std::abs(numeric), std::abs(exact)});
        }
    }
    ASSERT_GT(largest, 1e-6) << what << ": every probed gradient is 0";
    EXPECT_LT(worst_diff / largest, kTolerance)
        << what << ": worst |numeric - analytic| " << worst_diff
        << " against largest magnitude " << largest;
}

/** Mean cross-entropy of @p logits against the targets' labels. */
double
crossEntropy(const Tensor2D &logits, const gnn::FeatureTable &features,
             const gnn::Subgraph &sg, Tensor2D &grad)
{
    return gnn::softmaxCrossEntropy(logits, features.labels(sg.targets()),
                                    grad);
}

class GradientCheck : public ::testing::TestWithParam<gnn::KernelMode>
{
};

TEST_P(GradientCheck, MeanModelThroughTrainStep)
{
    gnn::ScopedKernelMode mode(GetParam());
    gnn::ModelConfig mc;
    mc.in_dim = kInDim;
    mc.hidden_dim = kHidden;
    mc.num_classes = kClasses;
    mc.depth = 2;
    mc.learning_rate = 1.0f; // a step then moves each parameter by -grad
    mc.seed = 9;
    const gnn::FeatureTable features(testGraph().numNodes(), kInDim,
                                     kClasses);
    const gnn::Subgraph sg = sampleBatch({5, 3});

    gnn::SageModel model(mc);
    Tensor2D unused_grad;
    const auto loss = [&] {
        const Tensor2D logits = model.forward(sg, features, nullptr);
        return crossEntropy(logits, features, sg, unused_grad);
    };
    gnn::SageModel stepped = model;
    EXPECT_EQ(stepped.trainStep(sg, features), loss())
        << "trainStep's workspace forward differs from forward()";

    const auto update = [](const Tensor2D &before, const Tensor2D &after) {
        Tensor2D grad = before;
        for (std::size_t i = 0; i < grad.data().size(); ++i)
            grad.data()[i] -= after.data()[i];
        return grad;
    };
    for (std::size_t l = 0; l < mc.depth; ++l) {
        gnn::SageMeanLayer &layer = model.mutableLayers()[l];
        const gnn::SageMeanLayer &after = stepped.layers()[l];
        const std::string name = "layer " + std::to_string(l) + " ";
        checkTensor(name + "w_self", layer.mutableWSelf(),
                    update(layer.wSelf(), after.wSelf()), loss);
        checkTensor(name + "w_neigh", layer.mutableWNeigh(),
                    update(layer.wNeigh(), after.wNeigh()), loss);
        checkTensor(name + "bias", layer.mutableBias(),
                    update(layer.biasRow(), after.biasRow()), loss);
    }
}

TEST_P(GradientCheck, PoolLayer)
{
    gnn::ScopedKernelMode mode(GetParam());
    const gnn::FeatureTable features(testGraph().numNodes(), kInDim,
                                     kClasses);
    const gnn::Subgraph sg = sampleBatch({6});
    Tensor2D h_src;
    features.gather(sg.inputNodes(), h_src);
    sim::Rng init(11);
    gnn::SagePoolLayer layer(kInDim, kHidden, kClasses, false, init);

    Tensor2D unused_grad;
    const auto loss = [&] {
        gnn::SagePoolContext ctx;
        return crossEntropy(layer.forward(h_src, sg.blocks[0], ctx),
                            features, sg, unused_grad);
    };
    gnn::SagePoolContext ctx;
    Tensor2D d_logits;
    crossEntropy(layer.forward(h_src, sg.blocks[0], ctx), features, sg,
                 d_logits);
    gnn::SagePoolGrads grads;
    layer.backward(d_logits, ctx, grads);

    checkTensor("w_pool", layer.mutableWPool(), grads.w_pool, loss);
    checkTensor("b_pool", layer.mutableBPool(), grads.b_pool, loss);
    checkTensor("w_self", layer.mutableWSelf(), grads.w_self, loss);
    checkTensor("w_neigh", layer.mutableWNeigh(), grads.w_neigh, loss);
    checkTensor("bias", layer.mutableBias(), grads.bias, loss);
}

std::string
modeName(const ::testing::TestParamInfo<gnn::KernelMode> &info)
{
    return info.param == gnn::KernelMode::Naive ? "Naive" : "Tiled";
}

INSTANTIATE_TEST_SUITE_P(KernelModes, GradientCheck,
                         ::testing::Values(gnn::KernelMode::Naive,
                                           gnn::KernelMode::Tiled),
                         modeName);

} // namespace
