#include "knobs.hh"

#include <utility>

#include "backend.hh"

namespace smartsage::core
{

const std::vector<KnobNamespaceDoc> &
knobCatalog()
{
    static const std::vector<KnobNamespaceDoc> catalog = {
        {"ssd.", "SSD controller", "src/ssd/config.hh",
         {
             {"page_buffer_ways", "int", "16", ">= 1",
              "set associativity of the controller DRAM page buffer",
              8},
             {"embedded_cores", "int", "2", ">= 1",
              "firmware cores running the FTL and the ISP loop", 4},
             {"firmware_duty", "double", "0.30", "[0, 1]",
              "core-time fraction reserved by baseline FTL work", 0.5},
             {"isp_per_edge_ns", "double", "150", "> 0",
              "firmware cost to gather one sampled edge", 200},
             {"nvme_command_us", "double", "5", "> 0",
              "NVMe command handling (submit + completion doorbells)",
              3},
             {"pcie_gbps", "double", "3.2", "> 0",
              "PCIe link bandwidth to the host", 6.4},
         }},
        {"ssd.flash.", "NAND flash geometry", "src/flash/config.hh",
         {
             {"channels", "int", "8", ">= 1",
              "independent ONFI channels", 16},
             {"dies_per_channel", "int", "4", ">= 1",
              "dies (LUNs) per channel", 8},
             {"page_kib", "int", "16", ">= 1",
              "NAND page size in KiB", 8},
             {"read_latency_us", "double", "55", "> 0",
              "tR: cell array to die register", 70},
             {"channel_gbps", "double", "1.0", "> 0",
              "ONFI transfer rate per channel", 2},
         }},
        {"isp.", "In-storage sampling engine", "src/isp/isp_engine.hh",
         {
             {"coalesce_targets", "int", "1024", ">= 1",
              "targets batched into one NSconfig command", 512},
             {"host_submit_us", "double", "3", "> 0",
              "host cost to build and submit one NSconfig", 5},
         }},
        {"fpga.", "FPGA CSD engine", "src/isp/fpga_csd.hh",
         {
             {"p2p_gbps", "double", "3.0", "> 0",
              "SSD-to-FPGA bandwidth over the on-card switch", 6},
             {"queue_depth", "int", "64", ">= 1",
              "outstanding P2P transfers", 32},
             {"fpga_per_edge_ns", "double", "8", "> 0",
              "hardwired gather-unit cost per edge", 12},
             {"kernel_setup_us", "double", "40", "> 0",
              "per-batch kernel control overhead", 20},
         }},
        {"host.", "Host memory and I/O path", "src/host/config.hh",
         {
             {"llc_mib", "int", "16", ">= 1",
              "shared last-level cache capacity in MiB", 32},
             {"dram_peak_gbps", "double", "125", "> 0",
              "peak DRAM bandwidth", 100},
             {"memory_level_parallelism", "double", "3.0", ">= 1",
              "outstanding misses per sampling worker", 4},
             {"page_fault_cost_us", "double", "28", "> 0",
              "mmap fault + kernel traversal + page install", 20},
             {"direct_io_submit_us", "double", "8", "> 0",
              "O_DIRECT syscall + NVMe submit cost", 6},
             {"io_queue_depth", "int", "64", ">= 1",
              "host I/O channel service slots (serving sweeps this)",
              16},
             {"pmem_latency_ns", "double", "320", "> 0",
              "Optane PMEM random-load latency", 250},
             {"cpu_per_edge_ns", "double", "350", "> 0",
              "host CPU work per sampled edge", 300},
             {"feature_stream_gbps", "double", "25", "> 0",
              "feature-row streaming copy bandwidth", 20},
             {"host_gpu_gbps", "double", "12", "> 0",
              "effective host-to-GPU PCIe bandwidth", 16},
         }},
        {"fault.", "Fault-injection schedule", "src/sim/fault.hh",
         {
             {"seed", "int", "0xfa0175eed", "any",
              "fault-plan RNG seed (decoupled from workload seeds)",
              42},
             {"read_error_rate", "double", "0", "[0, 1]",
              "probability a host-I/O attempt fails transiently",
              0.05},
             {"slow_rate", "double", "0", "[0, 1]",
              "probability a host-I/O attempt runs slow", 0.05},
             {"slow_multiplier", "double", "8", ">= 1",
              "service-time multiplier of a slow attempt", 4},
             {"ecc_rate", "double", "0", "[0, 1]",
              "probability a flash sense needs an ECC retry", 0.02},
             {"ecc_retry_us", "double", "60", "> 0",
              "extra die occupancy per ECC retry", 80},
             {"shard_outage_rate", "double", "0", "[0, 1)",
              "fraction of each period a shard spends down", 0.1},
             {"outage_period_ms", "double", "50", "> 0",
              "shard outage window period", 100},
             {"degraded_penalty", "double", "4", ">= 1",
              "latency multiplier of reads routed around a down shard",
              2},
             {"kill_batch", "int", "0", ">= 0",
              "recovery harness: crash while this (0-based) training "
              "batch is in flight; 0 disables",
              3},
         }},
        {"retry.", "Retry and timeout policy", "src/sim/fault.hh",
         {
             {"max_attempts", "int", "3", ">= 1",
              "total service attempts (1 = no retries)", 4},
             {"backoff_base_us", "double", "100", "> 0",
              "backoff before the first retry (doubles per attempt)",
              50},
             {"backoff_cap_us", "double", "10000", ">= base",
              "exponential backoff ceiling", 5000},
             {"jitter", "double", "0.5", "[0, 1]",
              "uniform jitter fraction added to each backoff", 0.25},
             {"timeout_us", "double", "0", ">= 0",
              "end-to-end request deadline; 0 disables", 100000},
         }},
        {"ckpt.", "Checkpoint / suspend-resume policy",
         "src/core/checkpoint.hh",
         {
             {"interval_batches", "int", "0", ">= 0",
              "checkpoint every N trained batches; 0 disables", 2},
             {"warm_cache", "bool", "0", "0 or 1",
              "snapshot feature-cache residency for warm restarts", 1},
             {"keep_last", "int", "2", ">= 1",
              "manifests retained; older ones pruned, unreferenced "
              "chunks collected",
              3},
             {"chunk_kib", "int", "256", ">= 1",
              "content-addressed payload chunk size in KiB", 64},
             {"write_gbps", "double", "2.0", "> 0",
              "modeled checkpoint write bandwidth (overhead metric)",
              4},
             {"read_gbps", "double", "3.5", "> 0",
              "modeled checkpoint read bandwidth (recovery metric)", 2},
         }},
        {"kernel.", "GEMM/aggregate row-parallel kernels",
         "src/gnn/tensor.hh",
         {
             {"gemm_threads", "int", "0", "[0, 64]",
              "threads of the row-parallel GEMM, aggregate and feature "
              "gather; 0 = one per usable CPU. Each output row keeps "
              "its serial reduction order, so outputs are "
              "bit-identical at any count",
              2},
         }},
        {"sched.", "Host I/O channel dispatch", "src/sim/io.hh",
         {
             {"policy", "enum", "0 (fifo)",
              "0 = fifo, 1 = priority, 2 = edf",
              "queue dispatch order; fifo reproduces the historical "
              "arrival-order channel",
              2},
         }},
        {"admit.", "Host I/O admission control", "src/sim/io.hh",
         {
             {"max_queue", "int", "0", ">= 0",
              "bound on the channel wait queue; 0 disables", 64},
             {"slo_aware", "bool", "0", "0 or 1",
              "shed tagged requests whose deadline the backlog "
              "estimate already misses",
              1},
         }},
        {"tenant.", "Serving tenant classes", "src/core/tenant.hh",
         {
             {"count", "int", "0", ">= 0",
              "number of tenant classes (0 = classic single stream)",
              2},
             {"<i>.clients", "int", "0", ">= 0",
              "closed-loop client population; 0 = open loop", 8},
             {"<i>.think_us", "double", "500", ">= 0",
              "mean exponential think time of a closed-loop client",
              300},
             {"<i>.qps", "double", "10000", "> 0 (open loop)",
              "offered arrival rate of an open-loop class", 5000},
             {"<i>.shape", "enum", "0 (poisson)",
              "0 = poisson, 1 = fixed, 2 = diurnal, 3 = bursty, "
              "4 = flash-crowd",
              "arrival process of an open-loop class", 3},
             {"<i>.fanout", "int", "10", ">= 1",
              "neighbor entries gathered per request", 4},
             {"<i>.slo_us", "double", "0", ">= 0",
              "per-request latency SLO; 0 = none", 2000},
             {"<i>.priority", "int", "0", "any",
              "dispatch priority under sched.policy = 1", 10},
             {"<i>.requests", "int", "0", ">= 0",
              "request budget; 0 = even share of the run total", 256},
             {"<i>.shape_period_us", "double", "5000", "> 0 (shaped)",
              "period of the diurnal/bursty/flash-crowd modulation",
              2000},
             {"<i>.shape_mag", "double", "4", ">= 1",
              "peak-to-baseline rate multiplier of a shaped stream",
              3},
         }},
        {"cache.", "Feature cache (registry-routed)",
         "src/host/feature_cache.cc",
         {
             {"policy", "enum", "0 (lru)",
              "0 = lru, 1 = clock, 2 = lfu-lite, 3 = degree-pin",
              "replacement policy of the feature-cache decorator", 1},
             {"capacity_fraction", "double", "0", "[0, 1]",
              "cache capacity as a fraction of the edge file; 0 "
              "builds no cache",
              0.1},
             {"line_kib", "int", "4", ">= 1",
              "fill/lookup line granularity in KiB", 8},
             {"hit_ns", "double", "150", "> 0",
              "host DRAM hit latency of a cached line", 200},
             {"mshr.enabled", "bool", "1", "0/1",
              "per-line MSHRs + gather coalescing on the miss path; "
              "0 restores the pre-MSHR forward-everything behavior",
              1},
             {"mshr.entries", "int", "64", "[1, 65536]",
              "max distinct lines in flight; further misses park "
              "FIFO until a fill frees an entry",
              32},
             {"mshr.waiters", "int", "16", "[1, 65536]",
              "max requests coalesced onto one in-flight line", 8},
             {"prefetch.enabled", "bool", "0", "0/1 (needs mshr)",
              "hoard-style async prefetch of announced gather lists "
              "through low-priority fills",
              1},
             {"prefetch.lookahead", "int", "1", "[1, 64]",
              "serving requests announced ahead of demand on the "
              "classic open-loop path",
              2},
             {"prefetch.max_lines", "int", "256", "[1, 1048576]",
              "line budget of one announced batch; excess lines shed",
              64},
         }},
        {"multi-ssd.", "Sharded-SSD backend (registry-routed)",
         "src/ssd/sharded_ssd.cc",
         {
             {"shards", "int", "4", ">= 1",
              "independent SSD timelines striped RAID-0", 8},
             {"stripe_kib", "int", "64", ">= 1",
              "stripe unit in KiB", 128},
         }},
        {"tiered.", "Tiered-hybrid backend (registry-routed)",
         "src/host/tiered_store.cc",
         {
             {"hot_line_kib", "int", "64", ">= 1",
              "hot-tier line granularity in KiB", 32},
             {"hot_hit_ns", "double", "150", "> 0",
              "hot-tier DRAM hit latency", 200},
         }},
        {"part.", "Partitioned scale-out backend (registry-routed)",
         "src/host/partitioned_store.cc",
         {
             {"nodes", "int", "2", "[1, 64]",
              "simulated host+SSD nodes the edge list is cut across",
              4},
             {"strategy", "enum", "0 (hash)", "0 = hash, 1 = degree",
              "edge-cut assignment: node-id hash or degree-balanced "
              "greedy",
              1},
         }},
        {"net.", "Inter-node network channel (partitioned backend)",
         "src/sim/net.hh",
         {
             {"bandwidth_gbps", "double", "25.0", "> 0",
              "link bandwidth per node pair", 100},
             {"latency_us", "double", "2.0", ">= 0",
              "one-way message latency", 5},
             {"queue_depth", "int", "16", ">= 1",
              "in-flight transfers per link before queueing", 32},
         }},
        {"", "Top-level system", "src/core/system.hh",
         {
             {"page_cache_fraction", "double", "0.45", "[0, 1]",
              "OS page cache sized as a fraction of the edge file",
              0.3},
             {"scratchpad_fraction", "double", "0.45", "[0, 1]",
              "direct-I/O scratchpad sized the same way", 0.3},
             {"ssd_buffer_fraction", "double", "0.02", "[0, 2]",
              "SSD-internal page buffer sized the same way", 0.15},
             {"hidden_dim", "int", "64", ">= 1",
              "GNN hidden dimension", 128},
             {"use_saint", "bool", "0", "0 or 1",
              "GraphSAINT random-walk sampling instead of GraphSAGE",
              1},
             {"saint_walk_length", "int", "2", ">= 1",
              "SAINT random-walk length", 3},
             {"else_per_batch_us", "double", "0", ">= 0",
              "per-batch non-sampling pipeline overhead", 50},
         }},
    };
    return catalog;
}

void
writeKnobsDoc(std::ostream &os)
{
    os << "# Configuration knobs\n"
       << "\n"
       << "<!-- Generated by `design_space --knobs-doc`; do not edit "
          "by hand.\n"
       << "     CI regenerates this file and fails on drift. -->\n"
       << "\n"
       << "Every scenario override (`design_space` families, "
          "`--family` grids,\n"
       << "tests) is a `key = value` pair dispatched on the key's "
          "namespace\n"
       << "prefix by `core::applyKnob` (src/core/scenario.cc). Values "
          "are\n"
       << "doubles on the wire; `int`/`bool`/`enum` knobs reject or "
          "truncate\n"
       << "non-integral values as documented in the owning header. "
          "`<i>` is a\n"
       << "tenant-class index (`tenant.0.qps`, `tenant.1.slo_us`, "
          "...).\n";

    for (const KnobNamespaceDoc &ns : knobCatalog()) {
        os << "\n## "
           << (ns.prefix.empty() ? std::string("Top-level keys")
                                 : "`" + ns.prefix + "*`")
           << " — " << ns.title << "\n"
           << "\n"
           << "Interpreted by `" << ns.owner << "`.\n"
           << "\n"
           << "| knob | type | default | range | meaning |\n"
           << "|---|---|---|---|---|\n";
        for (const KnobDoc &k : ns.knobs)
            os << "| `" << ns.prefix << k.key << "` | " << k.type
               << " | " << k.def << " | " << k.range << " | " << k.desc
               << " |\n";
    }

    // Registry-claimed namespaces: keys a backend interprets privately
    // at build time (core/backend.hh knob_namespaces). The builtin
    // namespaces are excluded; what remains maps each backend-routed
    // namespace above to the backends that accept it.
    std::vector<std::pair<std::string, std::string>> claimed;
    for (const StorageBackend *backend :
         BackendRegistry::instance().all()) {
        for (const std::string &ns : backend->caps().knob_namespaces) {
            if (ns == "ssd." || ns == "isp." || ns == "fpga." ||
                ns == "host.")
                continue;
            bool found = false;
            for (auto &entry : claimed) {
                if (entry.first == ns) {
                    entry.second += ", `" + backend->id() + "`";
                    found = true;
                }
            }
            if (!found)
                claimed.emplace_back(ns, "`" + backend->id() + "`");
        }
    }
    os << "\n## Namespace-to-backend routing\n"
       << "\n"
       << "Keys in a namespace a registered backend claims are stored\n"
       << "verbatim in `SystemConfig::backend_knobs` for that backend "
          "to\n"
       << "interpret at build time; a knob in a claimed namespace is "
          "only\n"
       << "meaningful when one of the claiming backends is selected.\n"
       << "\n"
       << "| namespace | claimed by |\n"
       << "|---|---|\n";
    for (const auto &entry : claimed)
        os << "| `" << entry.first << "*` | " << entry.second << " |\n";
}

} // namespace smartsage::core
