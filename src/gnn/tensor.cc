#include "tensor.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "sim/logging.hh"
#include "sim/thread_pool.hh"

// x86 builds compile every tiled kernel body a second time for AVX2
// (see the instances below), whatever -march the build selects.
#if defined(__x86_64__) || defined(__i386__)
#define SMARTSAGE_AVX2_INSTANCES 1
#else
#define SMARTSAGE_AVX2_INSTANCES 0
#endif

namespace smartsage::gnn
{

namespace
{

std::atomic<KernelMode> g_kernel_mode{KernelMode::Tiled};
std::atomic<unsigned> g_gemm_threads{0}; //!< 0 = one per usable CPU

/** CPUs this process may run on, capped at 64; probed once. */
unsigned
usableCpus()
{
    static const unsigned cpus = [] {
        unsigned n = 0;
#ifdef __linux__
        cpu_set_t set;
        if (sched_getaffinity(0, sizeof(set), &set) == 0)
            n = static_cast<unsigned>(CPU_COUNT(&set));
#endif
        if (n == 0)
            n = std::thread::hardware_concurrency();
        return std::clamp(n, 1u, 64u);
    }();
    return cpus;
}

/**
 * Shared pool backing the row-parallel kernels: @p threads - 1
 * workers, because the calling thread runs one range itself. Rebuilt
 * when the requested count changes; callers hold the returned
 * shared_ptr for the whole kernel, so a rebuild racing a running
 * kernel only drops the registry's reference and the old pool lives
 * until its last kernel finishes.
 */
std::shared_ptr<sim::ThreadPool>
gemmPool(unsigned threads)
{
    static std::mutex mutex;
    static std::shared_ptr<sim::ThreadPool> pool;
    std::lock_guard<std::mutex> lock(mutex);
    if (!pool || pool->size() != threads - 1)
        pool = std::make_shared<sim::ThreadPool>(threads - 1);
    return pool;
}

/**
 * Below this many multiply-adds (or element operations) per range a
 * further split costs more in wake-up latency than it saves, so
 * forEachRowRange uses fewer ranges, down to running inline. A fixed
 * constant: the partition never changes output bits, only speed.
 */
constexpr std::size_t kMinRangeWork = std::size_t(1) << 18;

/** One forEachRowRange call: the range partition plus a completion
 *  latch private to the call, so concurrent callers sharing the pool
 *  never wait on each other's ranges. */
struct RowRangeCall
{
    const std::function<void(std::size_t, std::size_t)> &fn;
    std::size_t rows;
    std::size_t ranges;
    std::mutex mutex;
    std::condition_variable done;
    std::size_t pending;
    std::exception_ptr error;

    void
    run(std::size_t idx)
    {
        std::exception_ptr err;
        try {
            fn(rows * idx / ranges, rows * (idx + 1) / ranges);
        } catch (...) {
            err = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(mutex);
        if (err && !error)
            error = err;
        if (--pending == 0)
            done.notify_one();
    }
};

} // namespace

void
setKernelMode(KernelMode mode)
{
    g_kernel_mode.store(mode, std::memory_order_relaxed);
}

KernelMode
kernelMode()
{
    return g_kernel_mode.load(std::memory_order_relaxed);
}

void
setGemmThreads(unsigned threads)
{
    g_gemm_threads.store(threads, std::memory_order_relaxed);
}

unsigned
gemmThreads()
{
    const unsigned threads = g_gemm_threads.load(std::memory_order_relaxed);
    return threads == 0 ? usableCpus() : threads;
}

void
forEachRowRange(std::size_t rows, std::size_t work,
                const std::function<void(std::size_t, std::size_t)> &fn)
{
    const unsigned threads = gemmThreads();
    const std::size_t ranges = std::min<std::size_t>(
        {threads, rows, std::max<std::size_t>(1, work / kMinRangeWork)});
    if (ranges <= 1) {
        fn(0, rows);
        return;
    }
    const std::shared_ptr<sim::ThreadPool> pool = gemmPool(threads);
    RowRangeCall call{fn, rows, ranges, {}, {}, ranges, nullptr};
    for (std::size_t idx = 1; idx < ranges; ++idx)
        pool->submit([&call, idx] { call.run(idx); });
    call.run(0);
    std::unique_lock<std::mutex> lock(call.mutex);
    call.done.wait(lock, [&call] { return call.pending == 0; });
    if (call.error)
        std::rethrow_exception(call.error);
}

bool
applyKnob(KernelConfig &config, std::string_view key, double value)
{
    if (key == "gemm_threads") {
        if (value != std::floor(value) || value < 0 || value > 64)
            SS_FATAL("kernel.gemm_threads must be an integer in "
                     "[0, 64], got ",
                     value);
        config.gemm_threads = static_cast<unsigned>(value);
    } else {
        return false;
    }
    return true;
}

void
applyKernelConfig(const KernelConfig &config)
{
    setGemmThreads(config.gemm_threads);
}

Tensor2D::Tensor2D(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
{
}

Tensor2D
Tensor2D::uniform(std::size_t rows, std::size_t cols, float scale,
                  sim::Rng &rng)
{
    Tensor2D t(rows, cols);
    for (auto &v : t.data_)
        v = static_cast<float>((rng.nextDouble() * 2.0 - 1.0) * scale);
    return t;
}

Tensor2D &
Tensor2D::operator+=(const Tensor2D &other)
{
    SS_ASSERT(rows_ == other.rows_ && cols_ == other.cols_,
              "shape mismatch in +=");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
    return *this;
}

Tensor2D &
Tensor2D::operator*=(float s)
{
    for (auto &v : data_)
        v *= s;
    return *this;
}

void
Tensor2D::zero()
{
    std::fill(data_.begin(), data_.end(), 0.0f);
}

double
Tensor2D::normSq() const
{
    double acc = 0.0;
    for (float v : data_)
        acc += static_cast<double>(v) * v;
    return acc;
}

void
Tensor2D::saveState(sim::ByteWriter &writer) const
{
    writer.u64(rows_);
    writer.u64(cols_);
    for (float v : data_)
        writer.f32(v);
}

void
Tensor2D::loadState(sim::ByteReader &reader)
{
    const std::uint64_t rows = reader.u64();
    const std::uint64_t cols = reader.u64();
    // The shape comes from the file: size it against the bytes that
    // are actually left before allocating anything.
    const std::uint64_t max_elems = reader.remaining() / sizeof(float);
    if (cols != 0 && rows > max_elems / cols)
        throw sim::SerializeError(
            "tensor shape " + std::to_string(rows) + " x " +
            std::to_string(cols) + " exceeds the " +
            std::to_string(reader.remaining()) + " bytes left");
    rows_ = static_cast<std::size_t>(rows);
    cols_ = static_cast<std::size_t>(cols);
    data_.resize(rows_ * cols_);
    for (float &v : data_)
        v = reader.f32();
}

namespace
{

// Cache-blocked kernels. Blocks are sized so one B panel (KB x JB
// floats = 32 KiB) stays L1-resident across the whole i sweep, and the
// 4-way k unroll keeps four accumulator streams per C row in registers,
// which is what lets the compiler vectorize the j loop.
constexpr std::size_t kKB = 64;  //!< reduction-dim block
constexpr std::size_t kJB = 128; //!< output-column block

void
matmulNaive(const Tensor2D &a, const Tensor2D &b, Tensor2D &c)
{
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t k = 0; k < a.cols(); ++k) {
            float aik = a.at(i, k);
            if (aik == 0.0f)
                continue;
            auto brow = b.row(k);
            auto crow = c.row(i);
            for (std::size_t j = 0; j < b.cols(); ++j)
                crow[j] += aik * brow[j];
        }
    }
}

// Every tiled kernel below computes rows [i0, i1) of C, and the
// accumulation order of each output element never depends on the row
// range: any partition of C's rows yields output bit-identical to a
// single full-range call. runGemmRows relies on this to split C across
// threads.
//
// Each tiled kernel and row microkernel is one always_inline body with
// two instances: the body itself, compiled for the build's target, and
// on x86 an AVX2 copy made by inlining it into a target("avx2")
// wrapper (Avx2<body>::run), so a portable build still runs 8-lane
// loops on an AVX2 host. tiledKernels() picks one set once, by cpuid.
// Both instances give the same bits: the build disables floating-point
// contraction, the avx2 target carries no FMA, and without fast-math
// the vectorizer never reassociates a sum.

/**
 * NN microkernel: C += A * B. Per-row accumulation order (kk outer,
 * then jj, then the 4-way k unroll) is independent of the row range.
 */
[[gnu::always_inline]] inline void
matmulNNTiledRows(const Tensor2D &a, const Tensor2D &b, Tensor2D &c,
                  std::size_t i0, std::size_t i1)
{
    const std::size_t kdim = a.cols(), n = b.cols();
    const float *adata = a.data().data();
    const float *bdata = b.data().data();
    float *cdata = c.data().data();
    for (std::size_t kk = 0; kk < kdim; kk += kKB) {
        const std::size_t kb = std::min(kKB, kdim - kk);
        for (std::size_t jj = 0; jj < n; jj += kJB) {
            const std::size_t jb = std::min(kJB, n - jj);
            for (std::size_t i = i0; i < i1; ++i) {
                const float *arow = adata + i * kdim + kk;
                float *crow = cdata + i * n + jj;
                std::size_t k = 0;
                for (; k + 4 <= kb; k += 4) {
                    const float a0 = arow[k], a1 = arow[k + 1];
                    const float a2 = arow[k + 2], a3 = arow[k + 3];
                    const float *b0 = bdata + (kk + k) * n + jj;
                    const float *b1 = b0 + n, *b2 = b1 + n, *b3 = b2 + n;
                    for (std::size_t j = 0; j < jb; ++j)
                        crow[j] += a0 * b0[j] + a1 * b1[j] +
                                   a2 * b2[j] + a3 * b3[j];
                }
                for (; k < kb; ++k) {
                    const float a0 = arow[k];
                    const float *b0 = bdata + (kk + k) * n + jj;
                    for (std::size_t j = 0; j < jb; ++j)
                        crow[j] += a0 * b0[j];
                }
            }
        }
    }
}

void
matmulTNNaive(const Tensor2D &a, const Tensor2D &b, Tensor2D &c)
{
    for (std::size_t k = 0; k < a.rows(); ++k) {
        auto arow = a.row(k);
        auto brow = b.row(k);
        for (std::size_t i = 0; i < a.cols(); ++i) {
            float aki = arow[i];
            if (aki == 0.0f)
                continue;
            auto crow = c.row(i);
            for (std::size_t j = 0; j < b.cols(); ++j)
                crow[j] += aki * brow[j];
        }
    }
}

[[gnu::always_inline]] inline void
matmulTNTiledRows(const Tensor2D &a, const Tensor2D &b, Tensor2D &c,
                  std::size_t i0, std::size_t i1)
{
    // C[i][j] = sum_r A[r][i] * B[r][j]; r is the reduction dim. Rows
    // of B are processed four at a time so the panel stays cached
    // across the sweep of A's columns [i0, i1). Every row range sweeps
    // all of r in the same order.
    const std::size_t rdim = a.rows(), m = a.cols(), n = b.cols();
    const float *adata = a.data().data();
    const float *bdata = b.data().data();
    float *cdata = c.data().data();

    std::size_t r = 0;
    for (; r + 4 <= rdim; r += 4) {
        const float *a0 = adata + r * m;
        const float *a1 = a0 + m, *a2 = a1 + m, *a3 = a2 + m;
        const float *b0 = bdata + r * n;
        const float *b1 = b0 + n, *b2 = b1 + n, *b3 = b2 + n;
        for (std::size_t i = i0; i < i1; ++i) {
            const float w0 = a0[i], w1 = a1[i], w2 = a2[i], w3 = a3[i];
            float *crow = cdata + i * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += w0 * b0[j] + w1 * b1[j] + w2 * b2[j] +
                           w3 * b3[j];
        }
    }
    for (; r < rdim; ++r) {
        const float *arow = adata + r * m;
        const float *brow = bdata + r * n;
        for (std::size_t i = i0; i < i1; ++i) {
            const float w = arow[i];
            float *crow = cdata + i * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += w * brow[j];
        }
    }
}

void
matmulNTNaive(const Tensor2D &a, const Tensor2D &b, Tensor2D &c)
{
    for (std::size_t i = 0; i < a.rows(); ++i) {
        auto arow = a.row(i);
        for (std::size_t j = 0; j < b.rows(); ++j) {
            auto brow = b.row(j);
            float acc = 0.0f;
            for (std::size_t k = 0; k < a.cols(); ++k)
                acc += arow[k] * brow[k];
            c.at(i, j) = acc;
        }
    }
}

[[gnu::always_inline]] inline void
matmulNTTiledRows(const Tensor2D &a, const Tensor2D &b, Tensor2D &c,
                  std::size_t i0, std::size_t i1)
{
    // C[i][j] = dot(A row i, B row j). The reduction is split into
    // eight explicit partial-sum lanes so the compiler can map them to
    // vector registers without needing permission to reassociate a
    // single serial chain (no fast-math: NaN/Inf still propagate).
    constexpr std::size_t kLanes = 8;
    const std::size_t n = b.rows(), kdim = a.cols();
    const float *adata = a.data().data();
    const float *bdata = b.data().data();
    float *cdata = c.data().data();

    for (std::size_t i = i0; i < i1; ++i) {
        const float *arow = adata + i * kdim;
        float *crow = cdata + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            const float *brow = bdata + j * kdim;
            float lane[kLanes] = {};
            std::size_t k = 0;
            for (; k + kLanes <= kdim; k += kLanes)
                for (std::size_t l = 0; l < kLanes; ++l)
                    lane[l] += arow[k + l] * brow[k + l];
            float acc = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                        ((lane[4] + lane[5]) + (lane[6] + lane[7]));
            for (; k < kdim; ++k)
                acc += arow[k] * brow[k];
            crow[j] = acc;
        }
    }
}

/** dst[j] += src[j]: the rowAccumulate body. */
[[gnu::always_inline]] inline void
rowAccumulateBody(float *dst, const float *src, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        dst[j] += src[j];
}

/** dst[j] = (dst[j] + src[j]) * scale: the rowAccumulateScale body. */
[[gnu::always_inline]] inline void
rowAccumulateScaleBody(float *dst, const float *src, float scale,
                       std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        dst[j] = (dst[j] + src[j]) * scale;
}

using GemmRowsFn = void (*)(const Tensor2D &, const Tensor2D &,
                            Tensor2D &, std::size_t, std::size_t);
using RowFn = void (*)(float *, const float *, std::size_t);
using RowScaleFn = void (*)(float *, const float *, float, std::size_t);

/** One instance of every tiled kernel, all built for one ISA; the
 *  defaults are the instances compiled for the build's target. */
struct TiledKernels
{
    GemmRowsFn nn = matmulNNTiledRows;
    GemmRowsFn tn = matmulTNTiledRows;
    GemmRowsFn nt = matmulNTTiledRows;
    RowFn accumulate = rowAccumulateBody;
    RowScaleFn accumulate_scale = rowAccumulateScaleBody;
    const char *isa = "baseline";
};

#if SMARTSAGE_AVX2_INSTANCES
/** The AVX2 instance of kernel body @p body. */
template <auto body> struct Avx2;

template <typename... Args, void (*body)(Args...)>
struct Avx2<body>
{
    __attribute__((target("avx2"))) static void
    run(Args... args)
    {
        body(args...);
    }
};
#endif

/** The instances this host runs, picked on first use. */
const TiledKernels &
tiledKernels()
{
    static const TiledKernels kernels = [] {
        TiledKernels k;
#if SMARTSAGE_AVX2_INSTANCES
        if (__builtin_cpu_supports("avx2")) {
            k.nn = Avx2<matmulNNTiledRows>::run;
            k.tn = Avx2<matmulTNTiledRows>::run;
            k.nt = Avx2<matmulNTTiledRows>::run;
            k.accumulate = Avx2<rowAccumulateBody>::run;
            k.accumulate_scale = Avx2<rowAccumulateScaleBody>::run;
            k.isa = "avx2";
        }
#endif
        return k;
    }();
    return kernels;
}

/** Run @p fn over C's rows through forEachRowRange. Each range writes
 *  a disjoint row slice and keeps every element's serial reduction
 *  order, so the result equals the serial call bit-for-bit.
 *  @param kdim the reduction length (work estimate only) */
void
runGemmRows(GemmRowsFn fn, const Tensor2D &a, const Tensor2D &b,
            Tensor2D &c, std::size_t kdim)
{
    forEachRowRange(c.rows(), c.rows() * c.cols() * kdim,
                    [&](std::size_t i0, std::size_t i1) {
                        fn(a, b, c, i0, i1);
                    });
}

} // namespace

const char *
kernelIsa()
{
    return tiledKernels().isa;
}

Tensor2D
matmul(const Tensor2D &a, const Tensor2D &b)
{
    Tensor2D c;
    matmulInto(a, b, c);
    return c;
}

Tensor2D
matmulTN(const Tensor2D &a, const Tensor2D &b)
{
    Tensor2D c;
    matmulTNInto(a, b, c);
    return c;
}

Tensor2D
matmulNT(const Tensor2D &a, const Tensor2D &b)
{
    Tensor2D c;
    matmulNTInto(a, b, c);
    return c;
}

void
matmulInto(const Tensor2D &a, const Tensor2D &b, Tensor2D &c)
{
    SS_ASSERT(a.cols() == b.rows(), "matmul shape mismatch: ", a.cols(),
              " vs ", b.rows());
    c.resizeToZero(a.rows(), b.cols());
    matmulAccumulate(a, b, c);
}

void
matmulAccumulate(const Tensor2D &a, const Tensor2D &b, Tensor2D &c)
{
    SS_ASSERT(a.cols() == b.rows() && c.rows() == a.rows() &&
                  c.cols() == b.cols(),
              "matmulAccumulate shape mismatch");
    if (kernelMode() == KernelMode::Naive)
        matmulNaive(a, b, c);
    else
        runGemmRows(tiledKernels().nn, a, b, c, a.cols());
}

void
matmulTNInto(const Tensor2D &a, const Tensor2D &b, Tensor2D &c)
{
    SS_ASSERT(a.rows() == b.rows(), "matmulTN shape mismatch");
    c.resizeToZero(a.cols(), b.cols());
    if (kernelMode() == KernelMode::Naive)
        matmulTNNaive(a, b, c);
    else
        runGemmRows(tiledKernels().tn, a, b, c, a.rows());
}

void
matmulNTInto(const Tensor2D &a, const Tensor2D &b, Tensor2D &c)
{
    SS_ASSERT(a.cols() == b.cols(), "matmulNT shape mismatch");
    // Both NT kernels overwrite every output element: reshape only.
    c.resizeTo(a.rows(), b.rows());
    if (kernelMode() == KernelMode::Naive)
        matmulNTNaive(a, b, c);
    else
        runGemmRows(tiledKernels().nt, a, b, c, a.cols());
}

void
rowAccumulate(float *dst, const float *src, std::size_t n)
{
    tiledKernels().accumulate(dst, src, n);
}

void
rowAccumulateScale(float *dst, const float *src, float scale,
                   std::size_t n)
{
    tiledKernels().accumulate_scale(dst, src, scale, n);
}

std::vector<char>
reluForward(Tensor2D &x)
{
    std::vector<char> mask;
    reluForwardInto(x, mask);
    return mask;
}

void
reluForwardInto(Tensor2D &x, std::vector<char> &mask)
{
    mask.resize(x.rows() * x.cols());
    auto &d = x.data();
    for (std::size_t i = 0; i < d.size(); ++i) {
        mask[i] = d[i] > 0.0f;
        if (!mask[i])
            d[i] = 0.0f;
    }
}

void
reluBackward(Tensor2D &grad, const std::vector<char> &mask)
{
    auto &d = grad.data();
    SS_ASSERT(d.size() == mask.size(), "relu mask size mismatch");
    for (std::size_t i = 0; i < d.size(); ++i) {
        if (!mask[i])
            d[i] = 0.0f;
    }
}

void
addBias(Tensor2D &x, const Tensor2D &bias)
{
    SS_ASSERT(bias.rows() == 1 && bias.cols() == x.cols(),
              "bias shape mismatch");
    for (std::size_t i = 0; i < x.rows(); ++i) {
        auto row = x.row(i);
        auto b = bias.row(0);
        for (std::size_t j = 0; j < x.cols(); ++j)
            row[j] += b[j];
    }
}

double
softmaxCrossEntropy(const Tensor2D &logits,
                    const std::vector<std::uint32_t> &labels,
                    Tensor2D &grad)
{
    SS_ASSERT(labels.size() == logits.rows(), "label count mismatch");
    grad.resizeTo(logits.rows(), logits.cols()); // fully written below
    double loss = 0.0;
    const double inv_n = 1.0 / static_cast<double>(logits.rows());

    // One exp per element: stash exp(v - max) per row, then normalize.
    // thread_local so the warm training loop stays allocation-free.
    thread_local std::vector<double> exps;
    exps.resize(logits.cols());
    for (std::size_t i = 0; i < logits.rows(); ++i) {
        auto row = logits.row(i);
        float max_v = *std::max_element(row.begin(), row.end());
        double denom = 0.0;
        for (std::size_t j = 0; j < logits.cols(); ++j) {
            exps[j] = std::exp(static_cast<double>(row[j] - max_v));
            denom += exps[j];
        }
        std::uint32_t y = labels[i];
        SS_ASSERT(y < logits.cols(), "label ", y, " out of range");
        double log_p =
            static_cast<double>(row[y] - max_v) - std::log(denom);
        loss -= log_p * inv_n;
        auto grow = grad.row(i);
        for (std::size_t j = 0; j < logits.cols(); ++j) {
            double p = exps[j] / denom;
            grow[j] = static_cast<float>(
                (p - (j == y ? 1.0 : 0.0)) * inv_n);
        }
    }
    return loss;
}

std::vector<std::uint32_t>
argmaxRows(const Tensor2D &logits)
{
    std::vector<std::uint32_t> out(logits.rows());
    for (std::size_t i = 0; i < logits.rows(); ++i) {
        auto row = logits.row(i);
        out[i] = static_cast<std::uint32_t>(
            std::max_element(row.begin(), row.end()) - row.begin());
    }
    return out;
}

} // namespace smartsage::gnn
