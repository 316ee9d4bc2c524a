#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "core/scenario.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

core::SystemConfig
backendConfig(const std::string &backend, std::uint64_t seed)
{
    core::SystemConfig cfg;
    cfg.pipeline.seed = seed;
    if (backend == "direct-io-cache") {
        cfg.backend = "direct-io";
        core::applyKnob(cfg, {"cache.capacity_fraction", 0.1});
    } else {
        cfg.backend = backend;
    }
    return cfg;
}

gnn::ModelConfig
modelConfig(const core::Workload &workload, std::uint64_t seed)
{
    core::SystemConfig config;
    gnn::ModelConfig mc;
    mc.in_dim = workload.features.dim();
    mc.hidden_dim = config.hidden_dim;
    mc.num_classes = workload.features.numClasses();
    mc.depth = config.depth();
    mc.seed = seed;
    return mc;
}

core::ServingConfig
servingConfig(std::uint64_t seed, double qps, std::size_t requests)
{
    core::ServingConfig sc;
    sc.arrival_qps = qps;
    sc.num_requests = requests;
    sc.fanout = 10;
    sc.seed = seed;
    return sc;
}

core::Workload
makeWorkload()
{
    return core::Workload::make(smartsage::graph::DatasetId::Reddit);
}

bool
samePipelineResult(const pipeline::PipelineResult &a,
                   const pipeline::PipelineResult &b)
{
    return a.makespan == b.makespan && a.batches == b.batches &&
           a.stages.sampling == b.stages.sampling &&
           a.stages.feature == b.stages.feature &&
           a.stages.transfer == b.stages.transfer &&
           a.stages.gpu == b.stages.gpu &&
           a.gpu_idle_frac == b.gpu_idle_frac;
}

bool
sameServingResult(const core::ServingResult &a, const core::ServingResult &b)
{
    return a.makespan == b.makespan && a.completed_ok == b.completed_ok &&
           a.p50_us() == b.p50_us() && a.p99_us() == b.p99_us() &&
           a.max_us() == b.max_us();
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

void
Report::check(bool ok, const std::string &what)
{
    std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    correct_ = correct_ && ok;
}

void
Report::count(std::uint64_t attempted, std::uint64_t failed)
{
    attempted_ += attempted;
    failed_ += failed;
}

void
Report::countServing(const core::ServingResult &r)
{
    std::uint64_t shed = r.shed_error + r.shed_timeout + r.shed_admission;
    conserved_ = conserved_ && r.completed_ok + shed == r.requests;
    ++served_;
    count(r.requests, r.requests - r.completed_ok);
}

void
Report::print()
{
    if (served_)
        check(conserved_, "serving completed_ok + shed == requests in all " +
                              std::to_string(served_) + " serving runs");
    for (const Metric &m : metrics_)
        if (!std::isfinite(m.value))
            check(false, "metric " + m.name + " is finite");

    for (const Metric &m : metrics_)
        std::printf("metric %-52s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct_ ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        // JSON has no NaN/Inf; a non-finite value failed a check above.
        double v = std::isfinite(m.value) ? m.value : 0.0;
        os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << v
           << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
}

} // namespace perfbench
