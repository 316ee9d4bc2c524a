/**
 * @file
 * Settings and helpers shared by the untraced and the traced run of
 * the benchmark: the workload's fixed parameters, the system
 * configurations of the four storage backends, result comparison, and
 * the Report that collects metrics, checks and failure counts.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/serving.hh"
#include "core/system.hh"
#include "pipeline/trainer.hh"

namespace perfbench
{

namespace core = smartsage::core;
namespace gnn = smartsage::gnn;
namespace pipeline = smartsage::pipeline;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ settings

/** The four Fig 18 storage backends of the modeled training stage;
 *  direct-io-cache is direct-io with cache.capacity_fraction=0.1. */
inline const char *const kBackends[] = {"ssd-mmap", "direct-io",
                                        "direct-io-cache", "isp-hwsw"};

/** Sampler threads of functional training; with the consumer thread
 *  the stage uses four cores. */
constexpr unsigned kTrainWorkers = 3;

struct ServePoint
{
    const char *label;
    double qps;
};
/** Fixed offered rates of the serving stage: below the knee and at it. */
constexpr ServePoint kServePoints[] = {{"q100k", 100e3}, {"q200k", 200e3}};
/** Requests per fixed-rate serving run. */
constexpr std::size_t kServeRequests = 300000;

// ------------------------------------------------------------- helpers

double secondsSince(Clock::time_point t0);

double median(std::vector<double> v);

/** The system of @p backend (one of kBackends) at pipeline seed @p seed. */
core::SystemConfig backendConfig(const std::string &backend,
                                 std::uint64_t seed);

/** The trained model: the workload's feature width and classes, the
 *  default system's hidden width and sampling depth, and @p seed. */
gnn::ModelConfig modelConfig(const core::Workload &workload,
                             std::uint64_t seed);

/** Single-stream Poisson open loop, fanout 10. */
core::ServingConfig servingConfig(std::uint64_t seed, double qps,
                                  std::size_t requests);

/** The Reddit large-scale dataset all stages run on. */
core::Workload makeWorkload();

bool samePipelineResult(const pipeline::PipelineResult &a,
                        const pipeline::PipelineResult &b);

bool sameServingResult(const core::ServingResult &a,
                       const core::ServingResult &b);

// -------------------------------------------------------------- report

/** Metrics, checks and failure accounting of one run. */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Print the check's outcome; any failure makes the run incorrect. */
    void check(bool ok, const std::string &what);

    void count(std::uint64_t attempted, std::uint64_t failed);

    /** Account one serving run: a request not answered Ok failed. Also
     *  checks completed_ok + shed == requests. */
    void countServing(const core::ServingResult &result);

    /** Metric table, then the one-line JSON result as the last line. */
    void print();

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    bool correct_ = true;
    bool conserved_ = true;
    std::uint64_t served_ = 0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

// ------------------------------------------------------------ the runs

/**
 * Untraced run: set-up, then the three stages interleaved, the stage
 * named by @p workload measured for @p seconds and the other two for
 * half as long. Reports every end-to-end metric.
 */
void runUntraced(const std::string &workload, std::uint64_t seed,
                 double seconds, Report &report);

/**
 * Traced run: each stage once at a fixed size, with spans around the
 * calls into each module. Reports every per-layer metric and writes
 * the spans as Chrome trace-event JSON to @p trace_out when non-empty.
 */
void runTraced(std::uint64_t seed, const std::string &trace_out,
               const std::string &provenance, Report &report);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
