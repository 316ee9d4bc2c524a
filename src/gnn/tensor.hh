/**
 * @file
 * Minimal dense 2-D float tensor with the operations GraphSAGE needs.
 *
 * Row-major, CPU-only. The backend GNN stages of the paper run on a
 * GPU; functionally the math is identical, and the *timing* of the GPU
 * is modeled separately (gpu_model.hh), so a simple correct CPU tensor
 * is the right substrate here.
 */

#ifndef SMARTSAGE_GNN_TENSOR_HH
#define SMARTSAGE_GNN_TENSOR_HH

#include <cstddef>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "sim/random.hh"
#include "sim/serialize.hh"

namespace smartsage::gnn
{

/** Row-major dense matrix of floats. */
class Tensor2D
{
  public:
    Tensor2D() = default;

    /** Zero-initialized rows x cols. */
    Tensor2D(std::size_t rows, std::size_t cols);

    /** Xavier/Glorot-style uniform init in [-scale, scale]. */
    static Tensor2D uniform(std::size_t rows, std::size_t cols,
                            float scale, sim::Rng &rng);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    float &at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    float at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

    std::span<float> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
    std::span<const float> row(std::size_t r) const { return {data_.data() + r * cols_, cols_}; }

    const std::vector<float> &data() const { return data_; }
    std::vector<float> &data() { return data_; }

    /** this += other (same shape). */
    Tensor2D &operator+=(const Tensor2D &other);

    /** this *= scalar. */
    Tensor2D &operator*=(float s);

    /** Zero every element, keeping the shape. */
    void zero();

    /**
     * Reshape to rows x cols reusing the existing buffer (contents
     * unspecified afterwards). The workspace-reuse primitive of the
     * training hot loop: steady-state reshapes never allocate once the
     * buffer has grown to the episode's high-water mark.
     */
    void
    resizeTo(std::size_t rows, std::size_t cols)
    {
        rows_ = rows;
        cols_ = cols;
        data_.resize(rows * cols);
    }

    /** resizeTo, then zero-fill. */
    void
    resizeToZero(std::size_t rows, std::size_t cols)
    {
        resizeTo(rows, cols);
        zero();
    }

    /** Frobenius-norm squared (for tests and gradient clipping). */
    double normSq() const;

    /** Serialize shape + element bit patterns (checkpointing). */
    void saveState(sim::ByteWriter &writer) const;

    /** Restore a tensor saved by saveState(), bit-exactly. */
    void loadState(sim::ByteReader &reader);

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

/**
 * GEMM/aggregate kernel selection. Tiled is the default: cache-blocked,
 * register-tiled loops. Naive preserves the original reference loops
 * and exists for golden equivalence tests and the perf_hotpath
 * naive-vs-fast comparison. The flag is process-global and atomic;
 * flip it only between batches, not mid-kernel.
 */
enum class KernelMode { Tiled, Naive };

void setKernelMode(KernelMode mode);
KernelMode kernelMode();

/** RAII guard restoring the previous KernelMode (for tests/bench). */
class ScopedKernelMode
{
  public:
    explicit ScopedKernelMode(KernelMode mode) : prev_(kernelMode())
    {
        setKernelMode(mode);
    }
    ~ScopedKernelMode() { setKernelMode(prev_); }
    ScopedKernelMode(const ScopedKernelMode &) = delete;
    ScopedKernelMode &operator=(const ScopedKernelMode &) = delete;

  private:
    KernelMode prev_;
};

/**
 * Instruction set of the tiled kernels this process runs: "avx2" or
 * "baseline". Every tiled kernel (the NN/TN/NT GEMMs and the row
 * microkernels) has one source body, compiled once for the build's
 * target and, on x86, once more for AVX2; the AVX2 instance is picked
 * once, on first use, when cpuid reports AVX2. Both instances produce
 * the same bits, so results never depend on which one runs.
 */
const char *kernelIsa();

/**
 * Worker-thread count of the row-parallel kernels (GEMM, aggregate,
 * feature gather); 0 selects one thread per usable CPU
 * (sched_getaffinity, capped at 64), which is also the process
 * default. Each kernel splits its output rows into one contiguous
 * range per thread and every output element keeps its serial
 * reduction order, so results are bit-identical at any thread count
 * — including 1. The backing sim::ThreadPool is created lazily and
 * rebuilt when the count changes; a kernel already running keeps the
 * pool it started with.
 */
void setGemmThreads(unsigned threads);
/** The resolved thread count (never 0). */
unsigned gemmThreads();

/**
 * Run @p fn(r0, r1) over a partition of [0, rows) into contiguous
 * ranges, one per gemmThreads() thread: the caller runs the first
 * range, the shared pool the rest, and the call returns once all have
 * finished. @p work estimates the cost in multiply-adds (or element
 * operations); work below a fixed per-range threshold runs inline as
 * a single range. @p fn must write only rows in its own range and
 * must not itself call forEachRowRange. The first exception thrown by
 * any range is rethrown here.
 */
void forEachRowRange(std::size_t rows, std::size_t work,
                     const std::function<void(std::size_t, std::size_t)> &fn);

/**
 * The `kernel.*` knob block (scenario-sweepable). Settings are
 * process-global once applied — a scenario sweeping them should run
 * its cells sequentially (--workers 1).
 */
struct KernelConfig
{
    unsigned gemm_threads = 0; //!< 0 = one per usable CPU
};

/**
 * Apply one `kernel.`-namespace knob (namespace already stripped):
 * `gemm_threads` ([0, 64], 0 = one per usable CPU). Fatal on
 * out-of-range values.
 * @return false if the key is unknown
 */
bool applyKnob(KernelConfig &config, std::string_view key, double value);

/** Install @p config into the process-global kernel state. */
void applyKernelConfig(const KernelConfig &config);

/** RAII guard restoring the previous GEMM thread count. */
class ScopedGemmThreads
{
  public:
    explicit ScopedGemmThreads(unsigned threads) : prev_(gemmThreads())
    {
        setGemmThreads(threads);
    }
    ~ScopedGemmThreads() { setGemmThreads(prev_); }
    ScopedGemmThreads(const ScopedGemmThreads &) = delete;
    ScopedGemmThreads &operator=(const ScopedGemmThreads &) = delete;

  private:
    unsigned prev_;
};

// Row microkernels for the aggregate path (layers.cc): elementwise, so
// each element is one add (and one multiply) in a fixed order.

/** dst[j] += src[j] for j in [0, n). */
void rowAccumulate(float *dst, const float *src, std::size_t n);

/** dst[j] = (dst[j] + src[j]) * scale for j in [0, n). */
void rowAccumulateScale(float *dst, const float *src, float scale,
                        std::size_t n);

/** C = A * B. @pre A.cols == B.rows */
Tensor2D matmul(const Tensor2D &a, const Tensor2D &b);

/** C = A^T * B. @pre A.rows == B.rows */
Tensor2D matmulTN(const Tensor2D &a, const Tensor2D &b);

/** C = A * B^T. @pre A.cols == B.cols */
Tensor2D matmulNT(const Tensor2D &a, const Tensor2D &b);

// Workspace-reuse variants of the GEMMs: identical math, but the
// output tensor is reshaped in place (no allocation once warm).

/** c = A * B (c reshaped). */
void matmulInto(const Tensor2D &a, const Tensor2D &b, Tensor2D &c);

/** c += A * B. @pre c is a.rows x b.cols */
void matmulAccumulate(const Tensor2D &a, const Tensor2D &b, Tensor2D &c);

/** c = A^T * B (c reshaped). */
void matmulTNInto(const Tensor2D &a, const Tensor2D &b, Tensor2D &c);

/** c = A * B^T (c reshaped). */
void matmulNTInto(const Tensor2D &a, const Tensor2D &b, Tensor2D &c);

/** In-place ReLU; returns the pre-activation mask needed for backward. */
std::vector<char> reluForward(Tensor2D &x);

/** reluForward writing the mask into @p mask (capacity reused). */
void reluForwardInto(Tensor2D &x, std::vector<char> &mask);

/** dX = dY masked by the forward mask. */
void reluBackward(Tensor2D &grad, const std::vector<char> &mask);

/** Add row-vector @p bias (1 x C) to every row of @p x. */
void addBias(Tensor2D &x, const Tensor2D &bias);

/**
 * Softmax + cross-entropy over rows.
 * @param logits  N x C scores
 * @param labels  N class ids
 * @param grad    out: dLoss/dLogits (N x C), averaged over rows
 * @return mean loss
 */
double softmaxCrossEntropy(const Tensor2D &logits,
                           const std::vector<std::uint32_t> &labels,
                           Tensor2D &grad);

/** Row-wise argmax (predictions). */
std::vector<std::uint32_t> argmaxRows(const Tensor2D &logits);

} // namespace smartsage::gnn

#endif // SMARTSAGE_GNN_TENSOR_HH
