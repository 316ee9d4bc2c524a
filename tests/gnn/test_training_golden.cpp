/**
 * @file
 * Fixed-seed training golden: four SGD steps through the real
 * training path (sampling pipeline + SageModel::trainStep) must leave
 * the model in one exact state, with one exact loss trajectory, at any
 * GEMM thread count and any sampler worker count. A kernel change that
 * moves a single bit — or stops learning — fails here.
 *
 * The build disables implicit floating-point contraction, so the bits
 * depend neither on the compiler, the optimization level or -march,
 * nor on which instance of the tiled kernels (baseline or AVX2) the
 * host runs.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <vector>

#include "gnn/feature_table.hh"
#include "gnn/model.hh"
#include "gnn/sampler.hh"
#include "gnn/tensor.hh"
#include "graph/powerlaw.hh"
#include "pipeline/producer.hh"
#include "sim/thread_pool.hh"

using namespace smartsage;

namespace
{

struct Trajectory
{
    std::uint64_t state_hash = 0;
    std::vector<std::uint64_t> loss_bits; //!< per step, as double bits

    bool operator==(const Trajectory &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Trajectory &t)
{
    os << std::hex << "{0x" << t.state_hash << "ULL, {";
    for (std::uint64_t bits : t.loss_bits)
        os << "0x" << bits << "ULL, ";
    return os << "}}" << std::dec;
}

/** Four training steps of a 2-layer model whose widths straddle the
 *  GEMM tiles (kKB = 64, kJB = 128) and the 8-lane tails. */
Trajectory
train(unsigned gemm_threads, unsigned sampler_workers)
{
    graph::PowerLawParams gp;
    gp.num_nodes = 4096;
    gp.avg_degree = 20;
    gp.seed = 31;
    static const graph::CsrGraph g = graph::generatePowerLaw(gp);

    gnn::ModelConfig mc;
    mc.in_dim = 150;
    mc.hidden_dim = 70;
    mc.num_classes = 11;
    mc.depth = 2;
    mc.seed = 77;
    gnn::FeatureTable features(g.numNodes(), mc.in_dim, mc.num_classes);
    gnn::SageSampler sampler({10, 5});

    gnn::ScopedKernelMode tiled(gnn::KernelMode::Tiled);
    gnn::ScopedGemmThreads threads(gemm_threads);

    pipeline::ParallelSampleConfig psc;
    psc.workers = sampler_workers;
    psc.num_batches = 4;
    psc.batch_size = 256;
    psc.seed = 0x901d;
    sim::ThreadPool pool(sampler_workers);

    gnn::SageModel model(mc);
    Trajectory t;
    pipeline::runSamplingPipeline(
        g, sampler, psc, &pool,
        [&](std::size_t, pipeline::FunctionalBatch &&batch) {
            t.loss_bits.push_back(std::bit_cast<std::uint64_t>(
                model.trainStep(batch.subgraph, features)));
        });
    t.state_hash = model.stateHash();
    return t;
}

} // namespace

TEST(TrainingGolden, ScalarFourSteps)
{
    const Trajectory golden{0x63ee2b74bd9206fbULL,
                            {0x400686b4eacd83f1ULL, 0x4005343b85a08854ULL,
                             0x40038e5c2c843b44ULL, 0x4001f41740bc8ff3ULL}};
    const Trajectory reference = train(1, 1);
    EXPECT_EQ(reference, golden)
        << "trajectory moved (kernel isa " << gnn::kernelIsa() << ")";
    ASSERT_EQ(reference.loss_bits.size(), 4u);
    EXPECT_LT(std::bit_cast<double>(reference.loss_bits.back()),
              std::bit_cast<double>(reference.loss_bits.front()));
    for (unsigned gemm_threads : {1u, 4u}) {
        for (unsigned workers : {1u, 3u}) {
            EXPECT_EQ(train(gemm_threads, workers), reference)
                << "gemm_threads=" << gemm_threads
                << " sampler_workers=" << workers;
        }
    }
}
