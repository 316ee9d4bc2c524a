/** @file Kernel-dispatch equivalence (ctest label `kernel`): the
 *  scalar-tiled, AVX2, and thread-parallel GEMM flavors against the
 *  naive golden reference, plus knob round-trips and the bit-exactness
 *  contracts the dispatch layer promises (row-parallel kernels
 *  invariant to thread count, row microkernels invariant to dispatch
 *  flavor), and the thread pool's safety under a racing rebuild. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gnn/feature_table.hh"
#include "gnn/layers.hh"
#include "gnn/tensor.hh"
#include "sim/random.hh"

using namespace smartsage;
using gnn::KernelDispatch;
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

/** The dispatch flavors this host can run. */
std::vector<KernelDispatch>
hostFlavors()
{
    std::vector<KernelDispatch> flavors = {KernelDispatch::Scalar};
    if (gnn::cpuSupportsAvx2())
        flavors.push_back(KernelDispatch::Avx2);
    return flavors;
}

/**
 * Run @p compute serially and at 2, 3 and 4 threads on every host
 * flavor; every threaded result must equal the serial one bitwise.
 * The shapes used with it are large enough to clear the per-range
 * work threshold, so each count really splits the rows differently.
 */
template <typename F>
void
expectThreadInvariant(const char *what, F &&compute)
{
    gnn::ScopedKernelMode tiled(gnn::KernelMode::Tiled);
    for (KernelDispatch flavor : hostFlavors()) {
        gnn::ScopedKernelDispatch guard(flavor);
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
                    << what << " output " << i << " "
                    << gnn::kernelDispatchName(flavor)
                    << " threads=" << threads;
        }
    }
}

} // namespace

TEST(KernelDispatch, KnobRoundTripAndResolution)
{
    EXPECT_EQ(gnn::kernelDispatchFromKnob(0), KernelDispatch::Auto);
    EXPECT_EQ(gnn::kernelDispatchFromKnob(1), KernelDispatch::Scalar);
    EXPECT_EQ(gnn::kernelDispatchFromKnob(2), KernelDispatch::Avx2);

    gnn::KernelConfig cfg;
    EXPECT_TRUE(gnn::applyKnob(cfg, "dispatch", 1));
    EXPECT_EQ(cfg.dispatch, KernelDispatch::Scalar);
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

    // resolvedKernelDispatch never reports Auto, and only reports Avx2
    // on hardware that can actually run it.
    gnn::ScopedKernelDispatch guard(KernelDispatch::Auto);
    KernelDispatch resolved = gnn::resolvedKernelDispatch();
    EXPECT_NE(resolved, KernelDispatch::Auto);
    if (!gnn::cpuSupportsAvx2())
        EXPECT_EQ(resolved, KernelDispatch::Scalar);
}

TEST(KernelDispatch, ScalarTiledMatchesNaiveWithinTolerance)
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
    gnn::ScopedKernelDispatch scalar(KernelDispatch::Scalar);
    // The tiled kernels reassociate the k-loop, so equality is up to
    // float rounding, not bitwise.
    EXPECT_LT(maxAbsDiff(gnn::matmul(a, b), nn_naive), 1e-4);
    EXPECT_LT(maxAbsDiff(gnn::matmulTN(b, c), tn_naive), 1e-4);
    EXPECT_LT(maxAbsDiff(gnn::matmulNT(a, d), nt_naive), 1e-4);
}

TEST(KernelDispatch, Avx2MatchesScalarWithinTolerance)
{
    if (!gnn::cpuSupportsAvx2())
        GTEST_SKIP() << "host CPU has no AVX2+FMA";

    Tensor2D a = randomTensor(70, 48, 0x11);  // A . B
    Tensor2D b = randomTensor(48, 53, 0x22);
    Tensor2D c = randomTensor(48, 31, 0x33);  // B^T . C (rows match)
    Tensor2D d = randomTensor(53, 48, 0x44);  // A . D^T (cols match)

    gnn::ScopedKernelMode tiled(gnn::KernelMode::Tiled);
    Tensor2D nn_s, tn_s, nt_s;
    {
        gnn::ScopedKernelDispatch scalar(KernelDispatch::Scalar);
        nn_s = gnn::matmul(a, b);
        tn_s = gnn::matmulTN(b, c);
        nt_s = gnn::matmulNT(a, d);
    }
    gnn::ScopedKernelDispatch avx2(KernelDispatch::Avx2);
    EXPECT_LT(maxAbsDiff(gnn::matmul(a, b), nn_s), 1e-4);
    EXPECT_LT(maxAbsDiff(gnn::matmulTN(b, c), tn_s), 1e-4);
    EXPECT_LT(maxAbsDiff(gnn::matmulNT(a, d), nt_s), 1e-4);
}

TEST(KernelDispatch, RowMicrokernelsBitIdenticalAcrossFlavors)
{
    // rowAccumulate/rowAccumulateScale use add/mul only (no FMA), so
    // the AVX2 flavor must match scalar bit-for-bit — aggregation
    // results cannot depend on the host CPU.
    if (!gnn::cpuSupportsAvx2())
        GTEST_SKIP() << "host CPU has no AVX2+FMA";

    const std::size_t n = 77; // odd: exercises the vector tail
    Tensor2D src = randomTensor(1, n, 0x66);
    Tensor2D acc_s = randomTensor(1, n, 0x77);
    Tensor2D acc_v = acc_s;

    {
        gnn::ScopedKernelDispatch scalar(KernelDispatch::Scalar);
        gnn::rowAccumulate(acc_s.row(0).data(), src.row(0).data(), n);
        gnn::rowAccumulateScale(acc_s.row(0).data(), src.row(0).data(),
                                0.125f, n);
    }
    {
        gnn::ScopedKernelDispatch avx2(KernelDispatch::Avx2);
        gnn::rowAccumulate(acc_v.row(0).data(), src.row(0).data(), n);
        gnn::rowAccumulateScale(acc_v.row(0).data(), src.row(0).data(),
                                0.125f, n);
    }
    EXPECT_TRUE(bitIdentical(acc_s, acc_v));
}

TEST(KernelDispatch, NaiveModeBypassesDispatch)
{
    // KernelMode::Naive is the golden reference: its output must not
    // depend on the dispatch flavor or thread count at all.
    Tensor2D a = randomTensor(65, 31, 0x88);
    Tensor2D b = randomTensor(31, 29, 0x99);

    gnn::ScopedKernelMode naive(gnn::KernelMode::Naive);
    Tensor2D golden;
    {
        gnn::ScopedKernelDispatch scalar(KernelDispatch::Scalar);
        gnn::ScopedGemmThreads one(1);
        golden = gnn::matmul(a, b);
    }
    gnn::ScopedKernelDispatch auto_(KernelDispatch::Auto);
    gnn::ScopedGemmThreads four(4);
    EXPECT_TRUE(bitIdentical(gnn::matmul(a, b), golden));
}

TEST(KernelDispatch, ThreadedGemmBitIdenticalAtAnyWorkerCount)
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

TEST(KernelDispatch, ThreadedLayerBitIdenticalAtAnyThreadCount)
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

TEST(KernelDispatch, ThreadedGatherBitIdenticalAtAnyThreadCount)
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

TEST(KernelDispatch, RowRangesPartitionRowsAndRethrow)
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

TEST(KernelDispatch, PoolRebuildRacingGemmsIsSafe)
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
