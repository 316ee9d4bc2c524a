/** @file Tiled-kernel equivalence (ctest label `kernel`): the tiled
 *  and thread-parallel GEMMs against the naive golden reference, plus
 *  knob round-trips, the bit-exactness contract of the row-parallel
 *  kernels (invariant to thread count), and the thread pool's safety
 *  under a racing rebuild. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gnn/feature_table.hh"
#include "gnn/layers.hh"
#include "gnn/tensor.hh"
#include "sim/random.hh"

using namespace smartsage;
using gnn::Tensor2D;

namespace
{

Tensor2D
randomTensor(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    sim::Rng rng(seed);
    return Tensor2D::uniform(rows, cols, 1.0f, rng);
}

/** Max |a - b| over all elements; FLT_MAX on shape mismatch. */
double
maxAbsDiff(const Tensor2D &a, const Tensor2D &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return 1e30;
    double worst = 0;
    for (std::size_t i = 0; i < a.data().size(); ++i)
        worst = std::max(
            worst, std::abs(double(a.data()[i]) - double(b.data()[i])));
    return worst;
}

bool
bitIdentical(const Tensor2D &a, const Tensor2D &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           a.data() == b.data();
}

/**
 * Run @p compute serially and at 2, 3 and 4 threads; every threaded
 * result must equal the serial one bitwise.
 * The shapes used with it are large enough to clear the per-range
 * work threshold, so each count really splits the rows differently.
 */
template <typename F>
void
expectThreadInvariant(const char *what, F &&compute)
{
    gnn::ScopedKernelMode tiled(gnn::KernelMode::Tiled);
    std::vector<Tensor2D> serial;
    {
        gnn::ScopedGemmThreads one(1);
        serial = compute();
    }
    for (unsigned threads : {2u, 3u, 4u}) {
        gnn::ScopedGemmThreads many(threads);
        std::vector<Tensor2D> threaded = compute();
        ASSERT_EQ(threaded.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_TRUE(bitIdentical(threaded[i], serial[i]))
                << what << " output " << i << " threads=" << threads;
    }
}

} // namespace

TEST(TiledKernel, KnobRoundTrip)
{
    gnn::KernelConfig cfg;
    EXPECT_EQ(cfg.gemm_threads, 0u); // default: one per usable CPU
    EXPECT_TRUE(gnn::applyKnob(cfg, "gemm_threads", 4));
    EXPECT_EQ(cfg.gemm_threads, 4u);
    EXPECT_TRUE(gnn::applyKnob(cfg, "gemm_threads", 0));
    EXPECT_EQ(cfg.gemm_threads, 0u);
    {
        // 0 resolves to the usable CPU count, never to 0 itself.
        gnn::ScopedGemmThreads automatic(0);
        EXPECT_GE(gnn::gemmThreads(), 1u);
        EXPECT_LE(gnn::gemmThreads(), 64u);
    }
    EXPECT_FALSE(gnn::applyKnob(cfg, "no_such_knob", 1));

    const std::string isa = gnn::kernelIsa();
    EXPECT_TRUE(isa == "avx2" || isa == "baseline") << isa;
}

TEST(TiledKernel, MatchesNaiveWithinTolerance)
{
    Tensor2D a = randomTensor(97, 33, 0xaa);  // A . B
    Tensor2D b = randomTensor(33, 41, 0xbb);
    Tensor2D c = randomTensor(33, 29, 0xcc);  // B^T . C (rows match)
    Tensor2D d = randomTensor(29, 33, 0xdd);  // A . D^T (cols match)

    Tensor2D nn_naive, tn_naive, nt_naive;
    {
        gnn::ScopedKernelMode naive(gnn::KernelMode::Naive);
        nn_naive = gnn::matmul(a, b);
        tn_naive = gnn::matmulTN(b, c);
        nt_naive = gnn::matmulNT(a, d);
    }
    gnn::ScopedKernelMode tiled(gnn::KernelMode::Tiled);
    // The tiled kernels reassociate the k-loop, so equality is up to
    // float rounding, not bitwise.
    EXPECT_LT(maxAbsDiff(gnn::matmul(a, b), nn_naive), 1e-4);
    EXPECT_LT(maxAbsDiff(gnn::matmulTN(b, c), tn_naive), 1e-4);
    EXPECT_LT(maxAbsDiff(gnn::matmulNT(a, d), nt_naive), 1e-4);
}

TEST(TiledKernel, NaiveModeIgnoresThreadCount)
{
    // KernelMode::Naive is the golden reference: its output must not
    // depend on the thread count at all.
    Tensor2D a = randomTensor(65, 31, 0x88);
    Tensor2D b = randomTensor(31, 29, 0x99);

    gnn::ScopedKernelMode naive(gnn::KernelMode::Naive);
    Tensor2D golden;
    {
        gnn::ScopedGemmThreads one(1);
        golden = gnn::matmul(a, b);
    }
    gnn::ScopedGemmThreads four(4);
    EXPECT_TRUE(bitIdentical(gnn::matmul(a, b), golden));
}

TEST(TiledKernel, ThreadedGemmBitIdenticalAtAnyWorkerCount)
{
    // Row counts (301) are no multiple of 2, 3 or 4; the reduction and
    // output widths straddle kKB = 64, kJB = 128 and the 8/16-lane
    // tails; TN's 203 reduction rows leave a tail of its 4-row panels.
    Tensor2D a = randomTensor(301, 131, 0x101);  // A . B
    Tensor2D b = randomTensor(131, 137, 0x102);
    Tensor2D r = randomTensor(203, 301, 0x103);  // R^T . S
    Tensor2D sm = randomTensor(203, 137, 0x104);
    Tensor2D x = randomTensor(301, 139, 0x105);  // X . Y^T
    Tensor2D y = randomTensor(137, 139, 0x106);
    expectThreadInvariant("gemm", [&] {
        Tensor2D acc = randomTensor(301, 137, 0x107);
        gnn::matmulAccumulate(a, b, acc);
        return std::vector<Tensor2D>{gnn::matmul(a, b), acc,
                                     gnn::matmulTN(r, sm),
                                     gnn::matmulNT(x, y)};
    });
}

TEST(TiledKernel, ThreadedLayerBitIdenticalAtAnyThreadCount)
{
    // One SAGE layer forward and backward: the h_self copy, the mean
    // aggregate (isolated, single-edge and multi-edge dsts), the GEMMs
    // and the serial scatter of the input gradient.
    const std::size_t n_dst = 2003, n_src = 3001;
    const unsigned in_dim = 523, out_dim = 19;
    gnn::SampledBlock block;
    block.offsets.push_back(0);
    sim::Rng edge_rng(0x201);
    for (std::size_t u = 0; u < n_dst; ++u) {
        const std::size_t degree = u % 7; // 0 = isolated
        for (std::size_t e = 0; e < degree; ++e)
            block.src_index.push_back(
                static_cast<std::uint32_t>(edge_rng.nextBounded(n_src)));
        block.offsets.push_back(
            static_cast<std::uint32_t>(block.src_index.size()));
    }
    Tensor2D h_src = randomTensor(n_src, in_dim, 0x202);
    sim::Rng init(0x203);
    gnn::SageMeanLayer layer(in_dim, out_dim, true, init);

    expectThreadInvariant("layer", [&] {
        gnn::SageContext ctx;
        Tensor2D out = layer.forward(h_src, block, ctx);
        gnn::SageLayerGrads grads;
        Tensor2D d_src = layer.backward(out, ctx, grads);
        return std::vector<Tensor2D>{ctx.h_self, ctx.h_agg, out,
                                     grads.w_self, grads.w_neigh,
                                     grads.bias, d_src};
    });
}

TEST(TiledKernel, ThreadedGatherBitIdenticalAtAnyThreadCount)
{
    gnn::FeatureTable table(50000, 523, 7);
    std::vector<graph::LocalNodeId> nodes;
    sim::Rng rng(0x301);
    for (int i = 0; i < 2003; ++i)
        nodes.push_back(
            static_cast<graph::LocalNodeId>(rng.nextBounded(50000)));
    expectThreadInvariant("gather", [&] {
        Tensor2D out;
        table.gather(nodes, out);
        return std::vector<Tensor2D>{out};
    });
}

TEST(TiledKernel, RowRangesPartitionRowsAndRethrow)
{
    gnn::ScopedGemmThreads four(4);
    const std::size_t rows = 1001;
    std::vector<std::atomic<int>> hits(rows);
    gnn::forEachRowRange(rows, std::size_t(1) << 30,
                         [&](std::size_t r0, std::size_t r1) {
                             for (std::size_t r = r0; r < r1; ++r)
                                 hits[r]++;
                         });
    for (std::size_t r = 0; r < rows; ++r)
        EXPECT_EQ(hits[r].load(), 1) << "row " << r;

    // Below the work threshold the caller runs one full range inline.
    std::size_t calls = 0;
    gnn::forEachRowRange(rows, 1, [&](std::size_t r0, std::size_t r1) {
        ++calls;
        EXPECT_EQ(r0, 0u);
        EXPECT_EQ(r1, rows);
    });
    EXPECT_EQ(calls, 1u);

    // A range that throws — on the caller or on a pool thread — is
    // rethrown once every range has finished.
    for (std::size_t bad : {std::size_t(0), rows - 1}) {
        EXPECT_THROW(gnn::forEachRowRange(
                         rows, std::size_t(1) << 30,
                         [&](std::size_t r0, std::size_t r1) {
                             if (bad >= r0 && bad < r1)
                                 throw std::runtime_error("range failed");
                         }),
                     std::runtime_error);
    }
}

TEST(TiledKernel, PoolRebuildRacingGemmsIsSafe)
{
    // Two threads run threaded GEMMs while a third keeps changing the
    // thread count, which rebuilds the shared pool under them. Each
    // GEMM must keep the pool it started with alive and still produce
    // the serial bits.
    Tensor2D a = randomTensor(257, 67, 0x401);
    Tensor2D b = randomTensor(67, 65, 0x402);
    gnn::ScopedKernelMode tiled(gnn::KernelMode::Tiled);
    Tensor2D serial;
    {
        gnn::ScopedGemmThreads one(1);
        serial = gnn::matmul(a, b);
    }
    gnn::ScopedGemmThreads restore(2);

    std::atomic<bool> stop{false};
    std::thread flipper([&] {
        for (unsigned i = 0; !stop.load(); ++i) {
            gnn::setGemmThreads(2 + i % 3);
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    });
    std::atomic<int> mismatches{0};
    auto worker = [&] {
        for (int i = 0; i < 150; ++i)
            if (!bitIdentical(gnn::matmul(a, b), serial))
                mismatches++;
    };
    std::thread w1(worker), w2(worker);
    w1.join();
    w2.join();
    stop = true;
    flipper.join();
    EXPECT_EQ(mismatches.load(), 0);
}
