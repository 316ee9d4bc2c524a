/**
 * @file
 * The traced run: every per-layer metric. Each stage runs once at a
 * fixed size with spans recorded from this file around the calls into
 * each module's public functions, next to an untraced run of the same
 * work; the simulated results of the two must be identical, and the
 * difference in host time is reported as the tracing overhead.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.hh"
#include "gnn/sampler.hh"
#include "host/feature_cache.hh"
#include "host/io_path.hh"
#include "pipeline/producer.hh"
#include "sim/thread_pool.hh"
#include "trace.hh"

namespace perfbench
{
namespace
{

namespace graph = smartsage::graph;
namespace host = smartsage::host;
namespace isp = smartsage::isp;
namespace sim = smartsage::sim;

/** Batches of the traced training run and of the sampler probe. */
constexpr std::size_t kTracedBatches = 6;
/** Batches of each functional-sampling throughput probe. */
constexpr std::size_t kSamplingProbeBatches = 32;

/** Nearest-rank percentile, @p p in [0, 100]; 0 for no samples. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

/** Parse the flat {"stat": value} map of GnnSystem::dumpStatsJsonMap. */
std::map<std::string, double>
systemStats(const core::GnnSystem &system)
{
    std::ostringstream os;
    system.dumpStatsJsonMap(os, "");
    std::istringstream is(os.str());
    std::map<std::string, double> stats;
    std::string line;
    while (std::getline(is, line)) {
        auto q0 = line.find('"');
        auto q1 = line.find("\":", q0 + 1);
        if (q0 == std::string::npos || q1 == std::string::npos)
            continue;
        stats[line.substr(q0 + 1, q1 - q0 - 1)] =
            std::strtod(line.c_str() + q1 + 2, nullptr);
    }
    return stats;
}

/**
 * SubgraphProducer decorator of the traced modeled-training run: one
 * span per batch around startBatch (functional sampling plus trace
 * capture) and one aggregate span per batch for its BatchJob::step
 * calls. Steps of concurrent batches interleave, so the aggregate span
 * ends at the batch's last step and lasts the summed step time.
 */
class TracingProducer : public pipeline::SubgraphProducer
{
  public:
    TracingProducer(pipeline::SubgraphProducer &inner, Tracer &tracer,
                    int parent)
        : inner_(inner), tracer_(tracer), parent_(parent)
    {}

    std::unique_ptr<pipeline::BatchJob>
    startBatch(const std::vector<graph::LocalNodeId> &targets,
               sim::Rng &rng) override
    {
        double t0 = tracer_.nowUs();
        auto job = inner_.startBatch(targets, rng);
        double t1 = tracer_.nowUs();
        tracer_.add("pipeline.start_batch", t0, t1, parent_);
        start_ms.push_back((t1 - t0) / 1e3);
        return std::make_unique<Job>(std::move(job), *this);
    }

    void
    reset() override
    {
        double t0 = tracer_.nowUs();
        inner_.reset();
        double t1 = tracer_.nowUs();
        tracer_.add("pipeline.producer_reset", t0, t1, parent_);
        reset_ms += (t1 - t0) / 1e3;
    }

    std::vector<double> start_ms, replay_ms, replay_steps;
    double reset_ms = 0;

  private:
    class Job : public pipeline::BatchJob
    {
      public:
        Job(std::unique_ptr<pipeline::BatchJob> inner, TracingProducer &owner)
            : inner_(std::move(inner)), owner_(owner)
        {}

        bool done() const override { return inner_->done(); }

        sim::Tick
        step(sim::Tick now) override
        {
            double t0 = owner_.tracer_.nowUs();
            sim::Tick finish = inner_->step(now);
            double t1 = owner_.tracer_.nowUs();
            busy_us_ += t1 - t0;
            ++steps_;
            if (inner_->done()) {
                owner_.tracer_.add("pipeline.replay", t1 - busy_us_, t1,
                                   owner_.parent_);
                owner_.replay_ms.push_back(busy_us_ / 1e3);
                owner_.replay_steps.push_back(static_cast<double>(steps_));
            }
            return finish;
        }

        gnn::Subgraph takeSubgraph() override { return inner_->takeSubgraph(); }

      private:
        std::unique_ptr<pipeline::BatchJob> inner_;
        TracingProducer &owner_;
        double busy_us_ = 0;
        std::uint64_t steps_ = 0;
    };

    pipeline::SubgraphProducer &inner_;
    Tracer &tracer_;
    int parent_;
};

std::unique_ptr<core::Workload>
tracedSetup(Tracer &tracer, std::uint64_t seed, Report &report)
{
    ScopedSpan setup(tracer, "setup");
    double t0 = tracer.nowUs();
    auto workload = std::make_unique<core::Workload>(makeWorkload());
    double t1 = tracer.nowUs();
    tracer.add("graph.build", t0, t1, setup.id());
    report.metric("graph.build_s", (t1 - t0) / 1e6, "s");

    // The five systems the untraced set-up builds: the training
    // system at program defaults and one per backend.
    std::vector<core::SystemConfig> configs(1);
    configs[0].pipeline.seed = seed;
    for (const char *b : kBackends)
        configs.push_back(backendConfig(b, seed));
    double build_us = 0;
    for (const core::SystemConfig &cfg : configs) {
        double s0 = tracer.nowUs();
        core::GnnSystem system(cfg, *workload);
        double s1 = tracer.nowUs();
        tracer.add("core.system_build", s0, s1, setup.id());
        build_us += s1 - s0;
    }
    report.metric("core.system_build_s", build_us / 1e6, "s");
    return workload;
}

/** @return traced minus untraced host time, as a share of untraced */
double
tracedTrain(Tracer &tracer, const core::Workload &workload,
            std::uint64_t seed, Report &report)
{
    core::SystemConfig cfg;
    cfg.pipeline.seed = seed;
    core::GnnSystem system(cfg, workload);
    gnn::ModelConfig mc = modelConfig(workload, seed);
    gnn::GpuTimingModel gpu(system.config().gpu, mc);

    // Traced: runFunctionalTraining's loop, driven through
    // runSamplingPipeline so trainStep and the consumer's waits show.
    gnn::SageModel traced_model(mc);
    std::vector<double> step_ms, losses;
    double flops = 0, wait_ms = 0, last_exit_us = -1;
    double traced_s = 0;
    {
        pipeline::ParallelSampleConfig psc;
        psc.workers = kTrainWorkers;
        psc.num_batches = kTracedBatches;
        psc.batch_size = cfg.pipeline.batch_size;
        psc.seed = cfg.pipeline.seed;
        sim::ThreadPool pool(kTrainWorkers);
        ScopedSpan loop(tracer, "pipeline.functional_training");
        double t0 = tracer.nowUs();
        pipeline::runSamplingPipeline(
            workload.graph, system.sampler(), psc, &pool,
            [&](std::size_t, pipeline::FunctionalBatch &&batch) {
                double enter = tracer.nowUs();
                if (last_exit_us >= 0) {
                    wait_ms += (enter - last_exit_us) / 1e3;
                    tracer.add("pipeline.consumer_wait", last_exit_us,
                               enter, loop.id());
                }
                losses.push_back(
                    traced_model.trainStep(batch.subgraph, workload.features));
                last_exit_us = tracer.nowUs();
                tracer.add("gnn.train_step", enter, last_exit_us, loop.id());
                step_ms.push_back((last_exit_us - enter) / 1e3);
                flops += 3.0 * 2.0 *
                         static_cast<double>(gpu.forwardMacs(batch.subgraph));
            });
        traced_s = (tracer.nowUs() - t0) / 1e6;
    }
    std::uint64_t bad = 0;
    for (double l : losses)
        bad += std::isfinite(l) ? 0 : 1;
    report.count(losses.size(), bad);
    report.check(bad == 0 && losses.back() < losses.front(),
                 "traced train loss is finite and falls");

    report.metric("gnn.train_step_ms.p50", percentile(step_ms, 50), "ms");
    report.metric("gnn.train_step_ms.p95", percentile(step_ms, 95), "ms");
    report.metric("gnn.train_gflops", flops / (sum(step_ms) / 1e3) / 1e9,
                  "GFLOP/s");
    report.metric("pipeline.consumer_wait_ms.sum", wait_ms, "ms");

    // Untraced references: the same batches at 3 and at 1 sampler
    // thread must leave the model in the same state.
    gnn::SageModel untraced_model(mc), serial_model(mc);
    auto untraced =
        system.runFunctionalTraining(untraced_model, kTrainWorkers,
                                     kTracedBatches);
    system.runFunctionalTraining(serial_model, 1, kTracedBatches);
    report.check(traced_model.stateHash() == serial_model.stateHash() &&
                     untraced_model.stateHash() == serial_model.stateHash(),
                 "traced training stateHash matches 1-sampler-thread run");

    // One thread of the sampler alone, batch by batch.
    {
        ScopedSpan span(tracer, "gnn.sampling_probe");
        gnn::SampleScratch &scratch = gnn::threadSampleScratch();
        std::vector<graph::LocalNodeId> targets;
        gnn::Subgraph sg;
        std::vector<double> sample_ms, edges, unique;
        for (std::size_t i = 0; i < kTracedBatches; ++i) {
            sim::Rng rng = sim::Rng(seed).fork(i);
            gnn::selectTargetsInto(workload.graph, cfg.pipeline.batch_size,
                                   rng, scratch, targets);
            double t0 = tracer.nowUs();
            system.sampler().sampleInto(workload.graph, targets, rng,
                                        scratch, sg);
            double t1 = tracer.nowUs();
            tracer.add("gnn.sample", t0, t1, span.id());
            sample_ms.push_back((t1 - t0) / 1e3);
            edges.push_back(static_cast<double>(sg.totalSampledEdges()));
            unique.push_back(static_cast<double>(sg.numUniqueNodes()));
        }
        report.metric("gnn.sample_ms.p50", percentile(sample_ms, 50), "ms");
        report.metric("gnn.sampled_edges_per_batch", median(edges), "count");
        report.metric("gnn.unique_nodes_per_batch", median(unique), "count");
    }
    for (unsigned threads : {1u, kTrainWorkers}) {
        ScopedSpan span(tracer, "pipeline.functional_sampling");
        auto r = system.runFunctionalSampling(threads,
                                              kSamplingProbeBatches);
        report.metric("pipeline.sample_batches_per_s.t" +
                          std::to_string(threads),
                      r.batchesPerSecond(), "batches/s");
    }
    return traced_s / untraced.wall_seconds - 1.0;
}

/** Stats of the modeled run reported per backend, where present. */
const char *const kSimStats[] = {
    "ssd.host_reads",         "ssd.bytes_to_host",
    "ssd.page_buffer.hit_rate", "ssd.cores.busy_us",
    "ssd.flash.pages_read",   "host.page_cache.hit_rate",
    "host.page_faults",       "host.scratchpad.hit_rate",
    "host.direct_io.submits", "host.feature_cache.hit_rate",
    "host.feature_cache.mshr_piggybacks",
    "host.feature_cache.gather_dedup",
    "host.feature_cache.mshr_stalls"};

double
tracedSim(Tracer &tracer, const core::Workload &workload,
          std::uint64_t seed, Report &report)
{
    ScopedSpan stage(tracer, "sim_train");
    double traced_s = 0, untraced_s = 0;
    for (const char *b : kBackends) {
        core::SystemConfig cfg = backendConfig(b, seed);
        pipeline::PipelineResult reference;
        {
            core::GnnSystem system(cfg, workload);
            auto t0 = Clock::now();
            reference = system.runPipeline();
            untraced_s += secondsSince(t0);
        }

        core::GnnSystem system(cfg, workload);
        gnn::GpuTimingModel gpu(system.config().gpu,
                                modelConfig(workload, seed));
        pipeline::TrainingPipeline pipe(system.config().pipeline,
                                        system.config().host, gpu,
                                        workload.features);
        int run_span = tracer.begin(std::string("pipeline.run.") + b,
                                    stage.id());
        TracingProducer producer(system.producer(), tracer, run_span);
        double t0 = tracer.nowUs();
        pipeline::PipelineResult r = pipe.run(producer, workload.graph);
        traced_s += (tracer.nowUs() - t0) / 1e6;
        tracer.end(run_span);

        report.count(cfg.pipeline.num_batches,
                     cfg.pipeline.num_batches - producer.replay_ms.size());
        report.check(samePipelineResult(r, reference),
                     std::string("traced TrainingPipeline::run equals "
                                 "runPipeline on ") +
                         b + " (makespan " + std::to_string(r.makespan) +
                         ")");

        std::string sfx = std::string(".") + b;
        report.metric("pipeline.start_batch_ms" + sfx,
                      median(producer.start_ms), "ms");
        report.metric("pipeline.replay_ms" + sfx, median(producer.replay_ms),
                      "ms");
        report.metric("pipeline.replay_steps" + sfx,
                      median(producer.replay_steps), "count");
        report.metric("pipeline.producer_reset_ms" + sfx, producer.reset_ms,
                      "ms");
        // TrainingPipeline::run outside the producer: the scheduler's
        // interleaving and the feature/transfer/GPU timing models.
        report.metric("pipeline.run_self_ms" + sfx,
                      tracer.selfTimesUs()[run_span] / 1e3, "ms");
        report.metric("pipeline.stage_sampling_s" + sfx, r.stages.sampling,
                      "s");
        report.metric("pipeline.stage_feature_s" + sfx, r.stages.feature, "s");
        report.metric("pipeline.stage_transfer_s" + sfx, r.stages.transfer,
                      "s");
        report.metric("pipeline.stage_gpu_s" + sfx, r.stages.gpu, "s");
        report.metric("pipeline.gpu_idle_frac" + sfx, r.gpu_idle_frac,
                      "frac");

        std::map<std::string, double> stats = systemStats(system);
        // Zero host reads on the in-storage backend say nothing; its
        // traffic is reported by the ISP counters below.
        bool isp = std::string(b) == "isp-hwsw";
        for (const char *key : kSimStats) {
            auto it = stats.find(key);
            std::string name = key;
            if (it == stats.end() ||
                (isp && name.rfind("ssd.host_", 0) == 0) ||
                (isp && name == "ssd.bytes_to_host"))
                continue;
            if (name == "ssd.flash.pages_read")
                name = "flash.pages_read";
            report.metric(name + sfx, it->second,
                          name.find("rate") != std::string::npos ? "frac"
                          : name.find("bytes") != std::string::npos ? "B"
                          : name.find("_us") != std::string::npos ? "us"
                                                                  : "count");
        }
        if (isp) {
            auto *producer_isp =
                dynamic_cast<pipeline::IspProducer *>(&system.producer());
            report.check(producer_isp != nullptr,
                         "isp-hwsw producer is an IspProducer");
            if (producer_isp) {
                const isp::IspBatchResult &acc = producer_isp->accumulated();
                report.metric("isp.commands", acc.commands, "count");
                report.metric("isp.bytes_to_host", acc.bytes_to_host, "B");
                report.metric("isp.bytes_from_host", acc.bytes_from_host,
                              "B");
                report.metric("isp.flash_pages", acc.flash_pages, "count");
            }
        }
    }
    return traced_s / untraced_s - 1.0;
}

double
tracedServe(Tracer &tracer, const core::Workload &workload,
            std::uint64_t seed, Report &report)
{
    ScopedSpan stage(tracer, "serve_cached");
    double traced_s = 0, untraced_s = 0;
    for (const ServePoint &p : kServePoints) {
        core::ServingResult reference;
        {
            core::GnnSystem system(backendConfig("direct-io-cache", seed),
                                   workload);
            auto t0 = Clock::now();
            reference = core::runServingLoad(
                system, servingConfig(seed, p.qps, kServeRequests));
            untraced_s += secondsSince(t0);
        }

        core::GnnSystem system(backendConfig("direct-io-cache", seed),
                               workload);
        double s0 = tracer.nowUs();
        core::ServingResult r = core::runServingLoad(
            system, servingConfig(seed, p.qps, kServeRequests));
        double s1 = tracer.nowUs();
        tracer.add(std::string("host.serve.") + p.label, s0, s1, stage.id());
        traced_s += (s1 - s0) / 1e6;
        report.countServing(r);
        report.check(sameServingResult(r, reference),
                     std::string("traced serving equals untraced at ") +
                         p.label);

        std::string sfx = std::string(".") + p.label;
        const host::FeatureCacheStore *cache = system.featureCache();
        report.check(cache != nullptr, "direct-io-cache builds a cache");
        if (cache) {
            const host::FeatureCacheStats &cs = cache->stats();
            report.metric("host.feature_cache.hit_rate" + sfx, cs.hitRate(),
                          "frac");
            report.metric("host.feature_cache.mshr_piggybacks" + sfx,
                          cs.mshr_piggybacks, "count");
            report.metric("host.feature_cache.mshr_stalls" + sfx,
                          cs.mshr_stalls, "count");
        }
        report.metric("host.io_commands" + sfx,
                      system.edgeStore()->ioChannel().submitted(), "count");
        report.metric("host.queue_wait_us" + sfx, r.mean_queue_wait_us, "us");
        report.metric("host.peak_outstanding" + sfx, r.peak_outstanding,
                      "count");
        report.metric("host.serve_ms" + sfx, (s1 - s0) / 1e3, "ms");
    }
    return traced_s / untraced_s - 1.0;
}

void
printSpanSummary(const Tracer &tracer)
{
    std::map<std::string, std::pair<std::uint64_t, std::pair<double, double>>>
        by_name;
    std::vector<double> self = tracer.selfTimesUs();
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
        auto &row = by_name[tracer.spans()[i].name];
        ++row.first;
        row.second.first += tracer.spans()[i].durUs();
        row.second.second += self[i];
    }
    std::printf("span %-34s %7s %12s %12s\n", "name", "count", "total_ms",
                "self_ms");
    for (const auto &[name, row] : by_name)
        std::printf("span %-34s %7llu %12.3f %12.3f\n", name.c_str(),
                    static_cast<unsigned long long>(row.first),
                    row.second.first / 1e3, row.second.second / 1e3);
}

} // namespace

void
runTraced(std::uint64_t seed, const std::string &trace_out,
          const std::string &provenance, Report &report)
{
    Tracer tracer;
    auto workload = tracedSetup(tracer, seed, report);
    double train = tracedTrain(tracer, *workload, seed, report);
    double simt = tracedSim(tracer, *workload, seed, report);
    double serve = tracedServe(tracer, *workload, seed, report);
    report.metric("trace.overhead_pct.train-functional", 100 * train, "%");
    report.metric("trace.overhead_pct.sim-train", 100 * simt, "%");
    report.metric("trace.overhead_pct.serve-cached", 100 * serve, "%");
    printSpanSummary(tracer);
    if (!trace_out.empty())
        report.check(tracer.writeChromeTrace(trace_out, provenance),
                     "trace written to " + trace_out);
}

} // namespace perfbench
