/**
 * @file
 * Hot-path microbenchmark: times the three compute hot paths — frontier
 * sampling, GEMM/aggregate kernels, and the multi-worker functional
 * sampling/training pipeline — in both their naive (seed) and optimized
 * forms, plus the storage blocking-adapter overhead (direct service
 * call vs the blocking call served inline on the idle channel) and the
 * feature-cache decorator's replay-path cost/benefit (raw store vs an
 * LRU-cached store on a skewed gather stream), the MSHR/coalescing
 * miss path under concurrent duplicate-heavy gathers (legacy
 * forward-everything vs coalesced line fills with piggybacked
 * secondary misses), and emits machine-readable BENCH_hotpath.json so
 * every future PR can be checked against this perf trajectory.
 *
 * Naive forms: SageSampler::sampleBaseline (per-batch hash dedup,
 * virtual visitor dispatch) and KernelMode::Naive (reference loops).
 * Fast forms: sampleInto through a reusable SampleScratch (flat
 * epoch-stamped dedup, statically dispatched no-op visitor) and
 * KernelMode::Tiled, with the pipeline running real worker threads.
 *
 * Usage: perf_hotpath [--quick] [--out <path>] [--workers <n>]
 *   --quick    CI smoke sizes (seconds, looser statistics)
 *   --out      JSON output path (default: BENCH_hotpath.json)
 *   --workers  pipeline worker threads (default: hardware concurrency)
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "gnn/feature_table.hh"
#include "gnn/model.hh"
#include "gnn/sampler.hh"
#include "graph/powerlaw.hh"
#include "host/feature_cache.hh"
#include "host/io_path.hh"
#include "pipeline/producer.hh"
#include "sim/random.hh"
#include "sim/thread_pool.hh"
#include "ssd/ssd_device.hh"

using namespace smartsage;

namespace
{

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One naive-vs-fast measurement. */
struct Pair
{
    double naive = 0; //!< metric for the naive path (per second)
    double fast = 0;  //!< metric for the optimized path (per second)

    double speedup() const { return naive > 0 ? fast / naive : 0.0; }
};

struct BenchConfig
{
    std::uint64_t num_nodes = 1ULL << 19;
    double avg_degree = 16.0;
    std::vector<unsigned> fanouts = {25, 10};
    std::size_t batch_size = 1024;
    std::size_t sampler_batches = 8;
    std::size_t gemm_rows = 16384;
    unsigned dim = 32;
    std::size_t kernel_reps = 4;
    std::size_t pipeline_batches = 10;
    std::size_t storage_gathers = 20000;
    unsigned workers = std::max(1u, std::thread::hardware_concurrency());
};

/** Blocking-adapter overhead on the storage replay path. */
struct AdapterCost
{
    double direct_ops_per_s = 0;  //!< serviceGather called directly
    double adapter_ops_per_s = 0; //!< blocking readGather call

    /** Fraction of direct-call throughput lost to the adapter. */
    double
    overheadFrac() const
    {
        return direct_ops_per_s > 0
                   ? 1.0 - adapter_ops_per_s / direct_ops_per_s
                   : 0.0;
    }
};

/** Feature-cache decorator cost/benefit on the replay path. */
struct CacheCost
{
    double raw_ops_per_s = 0;    //!< undecorated blocking gathers
    double cached_ops_per_s = 0; //!< through the LRU feature cache
    double hit_frac = 0;         //!< line hit rate the stream reached
};

/** GEMM GFLOP/s of the naive reference and the tiled kernel. */
struct KernelCost
{
    double naive_gflops = 0;    //!< KernelMode::Naive reference loops
    double tiled_gflops = 0;    //!< tiled kernel, one thread
    double threaded_gflops = 0; //!< tiled kernel, pool workers
    unsigned gemm_threads = 1;  //!< thread count of the threaded run

    double
    tiledSpeedup() const
    {
        return naive_gflops > 0 ? tiled_gflops / naive_gflops : 0.0;
    }
};

/** MSHR + gather-coalescing benefit on concurrent duplicate misses. */
struct MshrCost
{
    double nomshr_ops_per_s = 0; //!< wall throughput, legacy miss path
    double mshr_ops_per_s = 0;   //!< wall throughput, MSHRs on
    double inner_cmds_nomshr = 0; //!< storage commands, legacy path
    double inner_cmds_mshr = 0;   //!< storage commands, MSHRs on
    double piggyback_frac = 0; //!< misses served by an in-flight fill
    double sim_speedup = 0;    //!< simulated makespan ratio (old/new)
};

/**
 * Exposes the protected service entry point so the bench can time the
 * pre-refactor equivalent (direct service-math call, no event-queue
 * machinery) against the blocking readGather the sweep path rides,
 * which serves the request inline on the idle channel.
 */
class RawDirectIoStore : public host::DirectIoEdgeStore
{
  public:
    using host::DirectIoEdgeStore::DirectIoEdgeStore;

    sim::Tick
    rawGather(sim::Tick start, const std::vector<std::uint64_t> &addrs,
              unsigned entry_bytes)
    {
        return serviceGather(start, addrs, entry_bytes);
    }
};

/**
 * Gathers per second through the direct-I/O store: the raw service
 * call vs the blocking adapter, on identical request streams against
 * identical (separate) stores. Tracks what the async refactor costs
 * the classic sweep replay path.
 */
AdapterCost
benchStorageAdapter(const BenchConfig &cfg)
{
    host::HostConfig host;
    host.scratchpad_bytes = sim::MiB(4); // small: a real hit/miss mix
    ssd::SsdConfig ssd_cfg;
    ssd_cfg.page_buffer_bytes = sim::MiB(8);

    // One identical pre-generated gather stream for both paths.
    const std::uint64_t span = sim::MiB(512);
    std::vector<std::vector<std::uint64_t>> gathers(cfg.storage_gathers);
    sim::Rng rng(0x10ad);
    for (auto &addrs : gathers) {
        addrs.resize(12);
        std::uint64_t node_base = rng.nextBounded(span);
        for (auto &a : addrs)
            a = node_base + rng.nextBounded(sim::KiB(64));
    }

    AdapterCost cost;
    {
        ssd::SsdDevice ssd(ssd_cfg);
        RawDirectIoStore store(host, ssd);
        sim::Tick t = 0;
        double t0 = now_s();
        for (const auto &addrs : gathers)
            t = store.rawGather(t, addrs, 8);
        cost.direct_ops_per_s =
            static_cast<double>(gathers.size()) / (now_s() - t0);
    }
    {
        ssd::SsdDevice ssd(ssd_cfg);
        host::DirectIoEdgeStore store(host, ssd);
        sim::Tick t = 0;
        double t0 = now_s();
        for (const auto &addrs : gathers)
            t = store.readGather(t, addrs, 8);
        cost.adapter_ops_per_s =
            static_cast<double>(gathers.size()) / (now_s() - t0);
    }
    return cost;
}

/**
 * Wall-clock gathers per second with and without the feature-cache
 * decorator, on a skewed (70% hot-set) stream where the cache has
 * real reuse: what the decorator costs per request when cold and what
 * the hit bypass buys once warm.
 */
CacheCost
benchFeatureCache(const BenchConfig &cfg)
{
    host::HostConfig host;
    host.scratchpad_bytes = sim::MiB(4);
    ssd::SsdConfig ssd_cfg;
    ssd_cfg.page_buffer_bytes = sim::MiB(8);

    const std::uint64_t span = sim::MiB(512);
    const std::uint64_t hot_span = sim::MiB(16);
    std::vector<std::vector<std::uint64_t>> gathers(cfg.storage_gathers);
    sim::Rng rng(0xfeca);
    for (auto &addrs : gathers) {
        addrs.resize(12);
        bool hot = rng.nextBounded(100) < 70;
        std::uint64_t node_base =
            rng.nextBounded(hot ? hot_span : span);
        for (auto &a : addrs)
            a = node_base + rng.nextBounded(sim::KiB(64));
    }

    CacheCost cost;
    {
        ssd::SsdDevice ssd(ssd_cfg);
        host::DirectIoEdgeStore store(host, ssd);
        sim::Tick t = 0;
        double t0 = now_s();
        for (const auto &addrs : gathers)
            t = store.readGather(t, addrs, 8);
        cost.raw_ops_per_s =
            static_cast<double>(gathers.size()) / (now_s() - t0);
    }
    {
        ssd::SsdDevice ssd(ssd_cfg);
        host::FeatureCacheParams params;
        params.policy = host::FeatureCachePolicy::Lru;
        params.line_bytes = sim::KiB(4);
        params.capacity_bytes = sim::MiB(32);
        host::FeatureCacheStore store(
            std::make_unique<host::DirectIoEdgeStore>(host, ssd),
            params);
        sim::Tick t = 0;
        double t0 = now_s();
        for (const auto &addrs : gathers)
            t = store.readGather(t, addrs, 8);
        cost.cached_ops_per_s =
            static_cast<double>(gathers.size()) / (now_s() - t0);
        cost.hit_frac = store.hitRate();
    }
    return cost;
}

/**
 * The MSHR/coalescing leg: a duplicate-heavy gather stream (entries of
 * one gather straddle the same hot lines, and concurrent gathers miss
 * on the same lines) submitted open-loop through the async port, so
 * misses genuinely overlap. Identical streams with the MSHR path on
 * and off; wall throughput, inner storage commands, and the simulated
 * makespan measure what coalescing and piggybacking buy.
 */
MshrCost
benchMshr(const BenchConfig &cfg)
{
    host::HostConfig host;
    host.scratchpad_bytes = sim::MiB(4);
    ssd::SsdConfig ssd_cfg;
    ssd_cfg.page_buffer_bytes = sim::MiB(8);

    // 80% of gathers land in a hot set barely larger than the cache
    // line count, so concurrent misses collide on the same lines.
    const std::uint64_t span = sim::MiB(512);
    const std::uint64_t hot_span = sim::MiB(4);
    std::vector<std::vector<std::uint64_t>> gathers(cfg.storage_gathers);
    sim::Rng rng(0x3577);
    for (auto &addrs : gathers) {
        addrs.resize(16);
        bool hot = rng.nextBounded(100) < 80;
        std::uint64_t node_base =
            rng.nextBounded(hot ? hot_span : span);
        // Entries cluster within a couple of lines of the base: heavy
        // intra-gather duplication once rounded to 4 KiB lines.
        for (auto &a : addrs)
            a = node_base + rng.nextBounded(sim::KiB(8));
    }

    auto run = [&](bool mshr, double &ops_per_s, double &inner_cmds,
                   double &piggyback_frac) {
        ssd::SsdDevice ssd(ssd_cfg);
        host::FeatureCacheParams params;
        params.policy = host::FeatureCachePolicy::Lru;
        params.line_bytes = sim::KiB(4);
        params.capacity_bytes = sim::MiB(8);
        params.mshr_enabled = mshr;
        host::FeatureCacheStore store(
            std::make_unique<host::DirectIoEdgeStore>(host, ssd),
            params);

        // Open-loop arrivals 500 ns apart: tens of requests overlap in
        // flight, the regime MSHRs exist for.
        sim::EventQueue eq;
        std::size_t completed = 0;
        double t0 = now_s();
        for (std::size_t i = 0; i < gathers.size(); ++i) {
            eq.schedule(sim::ns(500) * i, [&, i] {
                store.submitGather(eq, gathers[i], 8,
                                   [&completed](sim::Tick,
                                                sim::IoStatus) {
                                       ++completed;
                                   });
            });
        }
        sim::Tick makespan = eq.run();
        ops_per_s = static_cast<double>(completed) / (now_s() - t0);
        inner_cmds =
            static_cast<double>(store.ioChannel().submitted());
        const host::FeatureCacheStats &cs = store.stats();
        piggyback_frac =
            cs.misses ? static_cast<double>(cs.mshr_piggybacks) /
                            static_cast<double>(cs.misses)
                      : 0.0;
        return makespan;
    };

    MshrCost cost;
    double unused = 0;
    sim::Tick makespan_nomshr =
        run(false, cost.nomshr_ops_per_s, cost.inner_cmds_nomshr,
            unused);
    sim::Tick makespan_mshr = run(true, cost.mshr_ops_per_s,
                                  cost.inner_cmds_mshr,
                                  cost.piggyback_frac);
    cost.sim_speedup =
        makespan_mshr ? static_cast<double>(makespan_nomshr) /
                            static_cast<double>(makespan_mshr)
                      : 0.0;
    return cost;
}

/** Sampler throughput in sampled edges per second. */
Pair
benchSampler(const graph::CsrGraph &g, const BenchConfig &cfg)
{
    gnn::SageSampler sampler(cfg.fanouts);
    const std::uint64_t seed = 0xbe7c;

    // Identical batches on both paths: per-index RNG forks.
    auto targetsFor = [&](std::size_t i, sim::Rng &rng,
                          gnn::SampleScratch &scratch,
                          std::vector<graph::LocalNodeId> &targets) {
        rng = sim::Rng(seed).fork(i);
        gnn::selectTargetsInto(g, cfg.batch_size, rng, scratch, targets);
    };

    Pair p;
    {
        std::uint64_t edges = 0;
        gnn::SampleScratch scratch;
        std::vector<graph::LocalNodeId> targets;
        sim::Rng rng(0);
        targetsFor(0, rng, scratch, targets); // warmup batch
        edges += sampler.sampleBaseline(g, targets, rng)
                     .totalSampledEdges();
        edges = 0;
        double t0 = now_s();
        for (std::size_t i = 0; i < cfg.sampler_batches; ++i) {
            targetsFor(i, rng, scratch, targets);
            edges += sampler.sampleBaseline(g, targets, rng)
                         .totalSampledEdges();
        }
        p.naive = static_cast<double>(edges) / (now_s() - t0);
    }
    {
        std::uint64_t edges = 0;
        gnn::SampleScratch scratch;
        std::vector<graph::LocalNodeId> targets;
        gnn::Subgraph sg;
        sim::Rng rng(0);
        targetsFor(0, rng, scratch, targets); // warmup batch
        sampler.sampleInto(g, targets, rng, scratch, sg);
        double t0 = now_s();
        for (std::size_t i = 0; i < cfg.sampler_batches; ++i) {
            targetsFor(i, rng, scratch, targets);
            sampler.sampleInto(g, targets, rng, scratch, sg);
            edges += sg.totalSampledEdges();
        }
        p.fast = static_cast<double>(edges) / (now_s() - t0);
    }
    return p;
}

/** GFLOP/s of one GEMM variant under the given kernel mode. */
template <typename F>
double
gemmGflops(F &&call, double flops, std::size_t reps,
           gnn::KernelMode mode)
{
    gnn::ScopedKernelMode guard(mode);
    call(); // warmup
    double t0 = now_s();
    for (std::size_t r = 0; r < reps; ++r)
        call();
    double dt = now_s() - t0;
    return flops * static_cast<double>(reps) / dt / 1e9;
}

/**
 * The kernel leg: one GEMM shape through the naive reference, the
 * tiled kernel on one thread, and the tiled kernel's thread-parallel
 * row-range decomposition.
 */
KernelCost
benchKernel(const BenchConfig &cfg, const gnn::Tensor2D &a,
            const gnn::Tensor2D &w, double flops)
{
    KernelCost cost;
    auto call = [&] { gnn::matmul(a, w); };
    cost.naive_gflops = gemmGflops(call, flops, cfg.kernel_reps,
                                   gnn::KernelMode::Naive);
    {
        gnn::ScopedGemmThreads one(1);
        cost.tiled_gflops = gemmGflops(call, flops, cfg.kernel_reps,
                                       gnn::KernelMode::Tiled);
    }
    {
        cost.gemm_threads = std::min(cfg.workers, 8u);
        gnn::ScopedGemmThreads threads(cost.gemm_threads);
        cost.threaded_gflops = gemmGflops(call, flops, cfg.kernel_reps,
                                          gnn::KernelMode::Tiled);
    }
    return cost;
}

/** End-to-end functional batch throughput (sample + train), batches/s. */
Pair
benchPipeline(const graph::CsrGraph &g, const BenchConfig &cfg)
{
    gnn::FeatureTable features(g.numNodes(), cfg.dim, 16);
    gnn::SageSampler sampler(cfg.fanouts);

    gnn::ModelConfig mc;
    mc.in_dim = cfg.dim;
    mc.hidden_dim = cfg.dim;
    mc.num_classes = 16;
    mc.depth = static_cast<unsigned>(cfg.fanouts.size());

    pipeline::ParallelSampleConfig psc;
    psc.workers = cfg.workers;
    psc.num_batches = cfg.pipeline_batches;
    psc.batch_size = cfg.batch_size;
    psc.seed = 0xe2e;

    Pair p;
    {
        // Naive: seed-style serial loop — hash-based sampler, naive
        // kernels, one thread, and the allocating forward/backward API
        // (fresh context and gradient tensors per batch, as the seed's
        // trainStep did).
        gnn::ScopedKernelMode guard(gnn::KernelMode::Naive);
        gnn::SageModel model(mc);
        double t0 = 0;
        // One untimed warmup batch (i == 0), then the timed run.
        for (std::size_t i = 0; i <= psc.num_batches; ++i) {
            if (i == 1)
                t0 = now_s();
            sim::Rng rng = sim::Rng(psc.seed).fork(i);
            auto targets = gnn::selectTargets(g, psc.batch_size, rng);
            gnn::Subgraph sg = sampler.sampleBaseline(g, targets, rng);

            std::vector<gnn::SageContext> ctxs;
            gnn::Tensor2D logits = model.forward(sg, features, &ctxs);
            auto labels = features.labels(sg.targets());
            gnn::Tensor2D d_logits;
            gnn::softmaxCrossEntropy(logits, labels, d_logits);
            gnn::Tensor2D d = std::move(d_logits);
            auto &layers = model.mutableLayers();
            for (std::size_t l = layers.size(); l-- > 0;) {
                gnn::SageLayerGrads grads;
                d = layers[l].backward(d, ctxs[l], grads);
                layers[l].applyGrads(grads,
                                     model.config().learning_rate);
            }
        }
        p.naive =
            static_cast<double>(psc.num_batches) / (now_s() - t0);
    }
    {
        // Fast: flat-table sampler on pool workers feeding the tiled
        // kernels through the overlapped pipeline.
        gnn::ScopedKernelMode guard(gnn::KernelMode::Tiled);
        gnn::SageModel model(mc);
        sim::ThreadPool pool(cfg.workers);
        // Untimed warmup batch to populate the scratch/workspaces.
        auto warm = psc;
        warm.num_batches = 1;
        pipeline::runSamplingPipeline(
            g, sampler, warm, &pool,
            [&](std::size_t, pipeline::FunctionalBatch &&batch) {
                model.trainStep(batch.subgraph, features);
            });
        double t0 = now_s();
        pipeline::runSamplingPipeline(
            g, sampler, psc, &pool,
            [&](std::size_t, pipeline::FunctionalBatch &&batch) {
                model.trainStep(batch.subgraph, features);
            });
        p.fast =
            static_cast<double>(psc.num_batches) / (now_s() - t0);
    }
    return p;
}

/** The bench's pass/fail line. */
bool
acceptancePass(const Pair &sampler, const Pair &pipeline,
               const KernelCost &kernel)
{
    return sampler.speedup() >= 3.0 && pipeline.speedup() >= 2.0 &&
           kernel.tiledSpeedup() >= 2.0;
}

void
writeJson(std::ostream &os, const BenchConfig &cfg, const Pair &sampler,
          const Pair &mm, const Pair &mm_tn, const Pair &mm_nt,
          const Pair &pipeline, const KernelCost &kernel,
          const AdapterCost &adapter, const CacheCost &cache,
          const MshrCost &mshr)
{
    auto obj = [&os](const char *name, const Pair &p, const char *unit,
                     bool last = false) {
        os << "    \"" << name << "\": {\"naive\": " << p.naive
           << ", \"fast\": " << p.fast << ", \"speedup\": "
           << p.speedup() << ", \"unit\": \"" << unit << "\"}"
           << (last ? "\n" : ",\n");
    };
    os.precision(6);
    os << "{\n"
       << "  \"bench\": \"perf_hotpath\",\n"
       << "  \"schema_version\": 2,\n"
       << "  \"config\": {\n"
       << "    \"num_nodes\": " << cfg.num_nodes << ",\n"
       << "    \"avg_degree\": " << cfg.avg_degree << ",\n"
       << "    \"batch_size\": " << cfg.batch_size << ",\n"
       << "    \"fanouts\": [" << cfg.fanouts[0];
    for (std::size_t i = 1; i < cfg.fanouts.size(); ++i)
        os << ", " << cfg.fanouts[i];
    os << "],\n"
       << "    \"dim\": " << cfg.dim << ",\n"
       << "    \"workers\": " << cfg.workers << ",\n"
       << "    \"kernel_isa\": \"" << gnn::kernelIsa() << "\"\n"
       << "  },\n"
       << "  \"results\": {\n";
    obj("sampler_edges_per_s", sampler, "edges/s");
    obj("matmul_gflops", mm, "GFLOP/s");
    obj("matmul_tn_gflops", mm_tn, "GFLOP/s");
    obj("matmul_nt_gflops", mm_nt, "GFLOP/s");
    obj("pipeline_batches_per_s", pipeline, "batches/s");
    os << "    \"kernel\": {\"naive_gflops\": " << kernel.naive_gflops
       << ", \"tiled_gflops\": " << kernel.tiled_gflops
       << ", \"threaded_gflops\": " << kernel.threaded_gflops
       << ", \"gemm_threads\": " << kernel.gemm_threads
       << ", \"tiled_speedup\": " << kernel.tiledSpeedup()
       << ", \"unit\": \"GFLOP/s\"},\n";
    os << "    \"storage_adapter\": {\"direct_ops_per_s\": "
       << adapter.direct_ops_per_s << ", \"adapter_ops_per_s\": "
       << adapter.adapter_ops_per_s << ", \"overhead_frac\": "
       << adapter.overheadFrac() << ", \"unit\": \"gathers/s\"},\n";
    os << "    \"feature_cache\": {\"raw_ops_per_s\": "
       << cache.raw_ops_per_s << ", \"cached_ops_per_s\": "
       << cache.cached_ops_per_s << ", \"hit_frac\": "
       << cache.hit_frac << ", \"unit\": \"gathers/s\"},\n";
    os << "    \"feature_cache_mshr\": {\"nomshr_ops_per_s\": "
       << mshr.nomshr_ops_per_s << ", \"mshr_ops_per_s\": "
       << mshr.mshr_ops_per_s << ", \"inner_cmds_nomshr\": "
       << mshr.inner_cmds_nomshr << ", \"inner_cmds_mshr\": "
       << mshr.inner_cmds_mshr << ", \"piggyback_frac\": "
       << mshr.piggyback_frac << ", \"sim_speedup\": "
       << mshr.sim_speedup << ", \"unit\": \"gathers/s\"}\n";
    os << "  },\n"
       << "  \"acceptance\": {\n"
       << "    \"sampler_speedup_target\": 3.0,\n"
       << "    \"sampler_speedup\": " << sampler.speedup() << ",\n"
       << "    \"pipeline_speedup_target\": 2.0,\n"
       << "    \"pipeline_speedup\": " << pipeline.speedup() << ",\n"
       << "    \"tiled_speedup_target\": 2.0,\n"
       << "    \"tiled_speedup\": " << kernel.tiledSpeedup() << ",\n"
       << "    \"pass\": "
       << (acceptancePass(sampler, pipeline, kernel) ? "true" : "false")
       << "\n  }\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    BenchConfig cfg;
    std::string out_path = "BENCH_hotpath.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            cfg.num_nodes = 1ULL << 16;
            cfg.sampler_batches = 4;
            cfg.gemm_rows = 4096;
            cfg.kernel_reps = 2;
            cfg.pipeline_batches = 4;
            cfg.storage_gathers = 4000;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--workers" && i + 1 < argc) {
            int n = std::atoi(argv[++i]);
            if (n < 1) {
                std::cerr << "perf_hotpath: --workers needs a count "
                             ">= 1\n";
                return 2;
            }
            cfg.workers = static_cast<unsigned>(n);
        } else {
            std::cerr << "usage: perf_hotpath [--quick] [--out <path>] "
                         "[--workers <n>]\n";
            return 2;
        }
    }

    std::cout << "perf_hotpath: building power-law graph ("
              << cfg.num_nodes << " nodes, avg degree "
              << cfg.avg_degree << ")...\n";
    graph::PowerLawParams params;
    params.num_nodes = cfg.num_nodes;
    params.avg_degree = cfg.avg_degree;
    params.seed = 42;
    graph::CsrGraph g = graph::generatePowerLaw(params);

    std::cout << "perf_hotpath: sampler (" << cfg.sampler_batches
              << " batches x " << cfg.batch_size << " targets)...\n";
    Pair sampler = benchSampler(g, cfg);

    std::cout << "perf_hotpath: GEMM kernels (" << cfg.gemm_rows
              << " rows)...\n";
    const std::size_t m = cfg.gemm_rows, d = 64;
    sim::Rng krng(7);
    gnn::Tensor2D a =
        gnn::Tensor2D::uniform(m, d, 1.0f, krng);
    gnn::Tensor2D w = gnn::Tensor2D::uniform(d, d, 1.0f, krng);
    gnn::Tensor2D dz = gnn::Tensor2D::uniform(m, d, 1.0f, krng);
    const double flops = 2.0 * static_cast<double>(m) * d * d;

    Pair mm, mm_tn, mm_nt;
    mm.naive = gemmGflops([&] { gnn::matmul(a, w); }, flops,
                          cfg.kernel_reps, gnn::KernelMode::Naive);
    mm.fast = gemmGflops([&] { gnn::matmul(a, w); }, flops,
                         cfg.kernel_reps, gnn::KernelMode::Tiled);
    mm_tn.naive = gemmGflops([&] { gnn::matmulTN(a, dz); }, flops,
                             cfg.kernel_reps, gnn::KernelMode::Naive);
    mm_tn.fast = gemmGflops([&] { gnn::matmulTN(a, dz); }, flops,
                            cfg.kernel_reps, gnn::KernelMode::Tiled);
    mm_nt.naive = gemmGflops([&] { gnn::matmulNT(dz, w); }, flops,
                             cfg.kernel_reps, gnn::KernelMode::Naive);
    mm_nt.fast = gemmGflops([&] { gnn::matmulNT(dz, w); }, flops,
                            cfg.kernel_reps, gnn::KernelMode::Tiled);

    std::cout << "perf_hotpath: tiled kernel (" << gnn::kernelIsa()
              << " instance)...\n";
    KernelCost kernel = benchKernel(cfg, a, w, flops);

    std::cout << "perf_hotpath: end-to-end pipeline ("
              << cfg.pipeline_batches << " batches, " << cfg.workers
              << " workers)...\n";
    Pair pipeline = benchPipeline(g, cfg);

    std::cout << "perf_hotpath: storage blocking adapter ("
              << cfg.storage_gathers << " gathers)...\n";
    AdapterCost adapter = benchStorageAdapter(cfg);

    std::cout << "perf_hotpath: feature-cache decorator ("
              << cfg.storage_gathers << " gathers)...\n";
    CacheCost cache = benchFeatureCache(cfg);

    std::cout << "perf_hotpath: MSHR/coalescing miss path ("
              << cfg.storage_gathers << " concurrent gathers)...\n";
    MshrCost mshr = benchMshr(cfg);

    auto report = [](const char *name, const Pair &p, const char *unit) {
        std::cout << "  " << name << ": naive " << p.naive << " " << unit
                  << ", fast " << p.fast << " " << unit << "  ("
                  << p.speedup() << "x)\n";
    };
    std::cout.precision(4);
    report("sampler   ", sampler, "edges/s");
    report("matmul    ", mm, "GFLOP/s");
    report("matmulTN  ", mm_tn, "GFLOP/s");
    report("matmulNT  ", mm_nt, "GFLOP/s");
    report("pipeline  ", pipeline, "batches/s");
    std::cout << "  kernel    : naive " << kernel.naive_gflops << ", tiled "
              << kernel.tiled_gflops << ", threaded(x" << kernel.gemm_threads
              << ") " << kernel.threaded_gflops << " GFLOP/s  (tiled "
              << kernel.tiledSpeedup() << "x vs naive)\n";
    std::cout << "  storage   : direct " << adapter.direct_ops_per_s
              << " gathers/s, adapter " << adapter.adapter_ops_per_s
              << " gathers/s  (overhead "
              << adapter.overheadFrac() * 100.0 << "%)\n";
    std::cout << "  cache     : raw " << cache.raw_ops_per_s
              << " gathers/s, cached " << cache.cached_ops_per_s
              << " gathers/s  (hit rate " << cache.hit_frac * 100.0
              << "%)\n";
    std::cout << "  mshr      : " << mshr.inner_cmds_nomshr
              << " -> " << mshr.inner_cmds_mshr
              << " storage cmds, piggyback "
              << mshr.piggyback_frac * 100.0 << "%, sim makespan "
              << mshr.sim_speedup << "x\n";

    std::ofstream json(out_path);
    if (!json) {
        std::cerr << "perf_hotpath: cannot open " << out_path << "\n";
        return 1;
    }
    writeJson(json, cfg, sampler, mm, mm_tn, mm_nt, pipeline, kernel,
              adapter, cache, mshr);
    std::cout << "perf_hotpath: wrote " << out_path << "\n";

    const bool pass = acceptancePass(sampler, pipeline, kernel);
    std::cout << "perf_hotpath: acceptance "
              << (pass ? "PASS" : "FAIL") << " (sampler "
              << sampler.speedup() << "x >= 3x, pipeline "
              << pipeline.speedup() << "x >= 2x, tiled "
              << kernel.tiledSpeedup() << "x >= 2x)\n";
    return pass ? 0 : 1;
}
