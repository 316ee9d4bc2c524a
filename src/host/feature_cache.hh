/**
 * @file
 * Policy-pluggable host-side feature cache over the async I/O path.
 *
 * Where neighbor-feature reads land in the memory/storage hierarchy is
 * the paper's central tension; a host-DRAM feature/page cache in front
 * of *any* edge store is the missing axis between the DRAM oracle and
 * the device paths. `FeatureCacheStore` is a decorator over an owned
 * inner `EdgeStore`: requests whose touched cache lines are all
 * resident complete at a flat DRAM-tier latency *without entering the
 * host I/O channel*; anything else flows through to the inner store
 * unchanged and fills the missed lines when the completion fires.
 * Because the decorator speaks the async submit/complete port
 * (io_path.hh) and its blocking adapters drain through that same port,
 * every registered storage backend — DRAM, mmap, direct-io, PMEM,
 * sharded, tiered — gains the cache for free, in both the throughput
 * sweeps and the open-loop serving harness.
 *
 * The miss path is concurrency-aware. Per-line miss-status holding
 * registers (MSHRs) track lines whose fill is in flight: a secondary
 * miss on such a line registers as a waiter and completes when the one
 * fill returns instead of issuing a duplicate read through the host
 * I/O channel, and the touched lines of one gather are deduplicated so
 * each missing line is issued exactly once (gather coalescing). Both
 * are bounded (`cache.mshr.entries` / `cache.mshr.waiters`); requests
 * that cannot take an entry park in FIFO order and retry as fills
 * complete, with the stall accounted. A hoard-style prefetch engine
 * rides the same table: announced gather lists (the sampler's
 * materialized batch, or a serving request a configurable lookahead
 * ahead of demand) issue low-priority fills through the same async
 * port, so every line is in exactly one of three residency states —
 * resident, in-flight-demand, or in-flight-prefetch — and a demand
 * touch on an in-flight prefetch upgrades it in place.
 *
 * Replacement is pluggable (`CacheReplacementPolicy`): exact LRU,
 * CLOCK (second chance), LFU-lite (saturating frequency, FIFO
 * tiebreak), and a degree-aware static-pin policy that pins the
 * edge-list lines of the highest-degree nodes (fed by CsrGraph degree,
 * the Fig 13 skew) and never replaces — the Ginex-style static regime
 * against the GNNLab-style dynamic ones.
 *
 * Configured through the backend-knob system: `cache.policy`,
 * `cache.capacity_fraction`, `cache.line_kib`, `cache.hit_ns`, plus
 * the miss-path knobs `cache.mshr.*` (MSHRs + coalescing, default on)
 * and `cache.prefetch.*` (hoard prefetch, default off). The default
 * capacity fraction is 0, which builds no decorator at all, so
 * existing design points are bit-identical with the cache disabled.
 */

#ifndef SMARTSAGE_HOST_FEATURE_CACHE_HH
#define SMARTSAGE_HOST_FEATURE_CACHE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/event_queue.hh"

#include "io_path.hh"
#include "sim/types.hh"

namespace smartsage::graph
{
class CsrGraph;
struct EdgeLayout;
} // namespace smartsage::graph

namespace smartsage::core
{
struct BackendBuildContext; // core/backend.hh
} // namespace smartsage::core

namespace smartsage::host
{

/** Replacement policy selector (the `cache.policy` knob values). */
enum class FeatureCachePolicy
{
    Lru = 0,       //!< exact least-recently-used
    Clock = 1,     //!< second-chance clock sweep
    LfuLite = 2,   //!< saturating-frequency LFU, FIFO tiebreak
    DegreePin = 3, //!< static pin of the highest-degree nodes' lines
};

/** Display name of a policy ("lru", "clock", "lfu-lite", "degree-pin"). */
const std::string &featureCachePolicyName(FeatureCachePolicy policy);

/** Decode the `cache.policy` knob; non-integral or out-of-range values
 *  are fatal, listing the valid ids. */
FeatureCachePolicy featureCachePolicyFromKnob(double value);

/** Resolved cache shape of one FeatureCacheStore. */
struct FeatureCacheParams
{
    FeatureCachePolicy policy = FeatureCachePolicy::Lru;
    /** Total capacity; 0 builds a pass-through cache that never hits
     *  (useful for pinning byte-identity in tests). */
    std::uint64_t capacity_bytes = 0;
    std::uint64_t line_bytes = sim::KiB(4); //!< fill/lookup granularity
    sim::Tick hit = sim::ns(150);           //!< DRAM-tier hit latency
    /** DegreePin only: the pinned line set, hottest nodes first. */
    std::vector<std::uint64_t> pinned_lines;

    /** MSHRs + gather coalescing on the miss path (`cache.mshr.*`).
     *  Disabled reproduces the pre-MSHR decorator exactly: the whole
     *  request forwards to the inner store and concurrent same-line
     *  misses each pay full storage latency. */
    bool mshr_enabled = true;
    std::uint32_t mshr_entries = 64; //!< max distinct lines in flight
    std::uint32_t mshr_waiters = 16; //!< max coalesced requests per line

    /** Hoard-style prefetch of announced gathers (`cache.prefetch.*`);
     *  requires mshr_enabled (residency state lives in the MSHR
     *  table). Default off so default artifacts stay byte-identical. */
    bool prefetch_enabled = false;
    /** Serving requests announced ahead of demand (classic path). */
    std::uint32_t prefetch_lookahead = 1;
    /** Line budget of one announced batch; the rest shed. */
    std::uint32_t prefetch_max_lines = 256;

    /** Capacity in whole lines (0 when disabled). */
    std::uint64_t capacityLines() const
    {
        return capacity_bytes / line_bytes;
    }
};

/**
 * Replacement decisions over 64-bit line ids. Residency bookkeeping
 * and hit/miss/eviction counting live in the store; policies only
 * answer "is it resident" and "what gets evicted".
 */
class CacheReplacementPolicy
{
  public:
    virtual ~CacheReplacementPolicy() = default;

    /** Touch @p line, updating recency/frequency state.
     *  @return true when resident */
    virtual bool access(std::uint64_t line) = 0;

    /** Non-mutating residency probe (fill-time idempotence guard). */
    virtual bool contains(std::uint64_t line) const = 0;

    /**
     * Install @p line after its miss completed, evicting a victim when
     * full. @pre !contains(line) @return true when a victim was
     * evicted, storing its id through @p victim when non-null (the
     * store uses it to retire hoard bookkeeping with the line).
     */
    virtual bool fill(std::uint64_t line,
                      std::uint64_t *victim = nullptr) = 0;

    /** Resident line count. */
    virtual std::uint64_t size() const = 0;

    /** Drop all residency and recency state. */
    virtual void reset() = 0;

    /**
     * Append every resident line id to @p out, in a deterministic
     * policy-defined order. Checkpointing uses this to persist the
     * warm set; the store sorts before serializing, so only residency
     * (not recency) must be stable.
     */
    virtual void appendResident(std::vector<std::uint64_t> &out) const = 0;
};

/** Build the policy implementation for @p params. */
std::unique_ptr<CacheReplacementPolicy>
makeCacheReplacementPolicy(const FeatureCacheParams &params);

/**
 * The pinned-line set of the degree-aware static policy: walk nodes by
 * descending degree (node id breaks ties) and pin the lines their
 * edge-list rows span, until @p max_lines are taken. Deterministic for
 * a fixed graph/layout/shape.
 */
std::vector<std::uint64_t>
degreePinnedLines(const graph::CsrGraph &graph,
                  const graph::EdgeLayout &layout,
                  std::uint64_t line_bytes, std::uint64_t max_lines);

/** Lifetime counters of one FeatureCacheStore (line granularity). */
struct FeatureCacheStats
{
    std::uint64_t hits = 0;      //!< line touches found resident
    std::uint64_t misses = 0;    //!< line touches that went to storage
    std::uint64_t evictions = 0; //!< victims replaced by fills
    /** Demand lines whose fill failed; counted once per line per fill
     *  no matter how many coalesced waiters shared it, and never
     *  installed (no garbage). */
    std::uint64_t failed_fills = 0;

    /** Miss touches that attached to an already-in-flight fill instead
     *  of issuing a duplicate read (MSHR secondary misses). */
    std::uint64_t mshr_piggybacks = 0;
    /** Duplicate missing-line touches folded within one gather. */
    std::uint64_t gather_dedup = 0;
    /** Requests parked because the MSHR table or a line's waiter list
     *  was full (counted once per park event). */
    std::uint64_t mshr_stalls = 0;

    std::uint64_t prefetch_issued = 0; //!< lines fetched by the hoard
    /** Prefetched lines a demand touch later wanted: an in-flight
     *  prefetch upgraded through the MSHR, or the first demand hit on
     *  a hoarded resident line. */
    std::uint64_t prefetch_useful = 0;
    /** Prefetch fill lines shed on a failed read (silent: no
     *  failed_fills, nothing installed). */
    std::uint64_t prefetch_failed = 0;
    /** Announced lines dropped: per-announce budget exhausted or no
     *  MSHR entry free (prefetch never parks). */
    std::uint64_t prefetch_dropped = 0;

    double hitRate() const
    {
        std::uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) / total : 0.0;
    }

    /** Fraction of issued prefetch lines that turned out useful. */
    double prefetchHitRate() const
    {
        return prefetch_issued ? static_cast<double>(prefetch_useful) /
                                     static_cast<double>(prefetch_issued)
                               : 0.0;
    }
};

/** Capacity-bounded feature cache decorating any EdgeStore. */
class FeatureCacheStore : public EdgeStore
{
  public:
    /** @param inner the decorated store (owned); its name, channel,
     *  and service timing carry every miss */
    FeatureCacheStore(std::unique_ptr<EdgeStore> inner,
                      FeatureCacheParams params);

    const std::string &name() const override { return name_; }

    /** All-lines-resident reads complete at `hit` ticks, bypassing the
     *  host I/O channel. With MSHRs enabled (the default) the unique
     *  missing lines are issued to the inner store as one line-granular
     *  gather, lines already in flight attach as waiters, and the
     *  completion fires when the last obligated fill lands; with
     *  `cache.mshr.enabled = 0` (or a zero-capacity cache) any miss
     *  forwards the request (and its dispatch tag) unchanged. */
    void submitRead(sim::EventQueue &eq, std::uint64_t addr,
                    std::uint64_t bytes, sim::IoCompletion done,
                    const sim::DispatchTag &tag = {}) override;
    void submitGather(sim::EventQueue &eq,
                      const std::vector<std::uint64_t> &addrs,
                      unsigned entry_bytes, sim::IoCompletion done,
                      const sim::DispatchTag &tag = {}) override;

    /** Blocking adapters: drain the MSHR port above on a private
     *  event queue (sim::drainOne), since fills complete through
     *  events rather than on an idle inner channel. */
    sim::Tick read(sim::Tick arrival, std::uint64_t addr,
                   std::uint64_t bytes) override;
    sim::Tick readGather(sim::Tick arrival,
                         const std::vector<std::uint64_t> &addrs,
                         unsigned entry_bytes) override;

    /** Misses are the only channel users: expose the inner channel so
     *  serving stats keep meaning "requests that hit storage". */
    sim::StorageChannel &ioChannel() override
    {
        return inner_->ioChannel();
    }
    const sim::StorageChannel &ioChannel() const override
    {
        return inner_->ioChannel();
    }

    EdgeStore &inner() { return *inner_; }
    const EdgeStore &inner() const { return *inner_; }

    const FeatureCacheParams &params() const { return params_; }
    const FeatureCacheStats &stats() const { return stats_; }
    double hitRate() const { return stats_.hitRate(); }
    /** Lines currently resident. */
    std::uint64_t residentLines() const { return policy_->size(); }

    /** Whether the hoard prefetcher accepts announcements (prefetch
     *  knob on, a real capacity, and the MSHR table to ride). */
    bool prefetchEnabled() const
    {
        return params_.prefetch_enabled && params_.mshr_enabled &&
               params_.capacityLines() > 0;
    }

    /**
     * Announce an upcoming gather to the hoard prefetcher: issue
     * low-priority fills for its not-yet-resident, not-in-flight lines
     * through the inner async port, up to `prefetch_max_lines` and the
     * free MSHR entries (excess lines shed, never parked). Residency
     * probes are non-mutating, so an announcement perturbs no
     * replacement state and no hit/miss counters. No-op unless
     * prefetchEnabled().
     */
    void announceGather(sim::EventQueue &eq,
                        const std::vector<std::uint64_t> &addrs,
                        unsigned entry_bytes);

    /**
     * Blocking-adapter flavor of announceGather for the pipeline
     * replay: drains the prefetch fills on a private queue starting at
     * @p now, so the fills occupy the inner store's busy-until
     * timelines (demand reads issued afterwards queue behind them —
     * the prefetch cost is modeled, not free). @pre no fill in flight
     * (the blocking adapters fully drain between calls).
     */
    void announceBlocking(sim::Tick now,
                          const std::vector<std::uint64_t> &addrs,
                          unsigned entry_bytes);

    /** Sorted ids of every resident line (checkpoint warm set). Fills
     *  still in flight — demand or prefetch — are deliberately absent:
     *  residency comes from the replacement policy alone, so a
     *  checkpoint can never leak in-flight state. */
    std::vector<std::uint64_t> residentLineIds() const;

    /**
     * Re-install checkpointed lines after a restart without touching
     * the hit/miss/eviction counters: a warm restore is bookkeeping,
     * not traffic. Lines already resident are skipped; a smaller
     * restored capacity simply evicts per policy while filling.
     */
    void warmFill(const std::vector<std::uint64_t> &lines);

  protected:
    /** Never reached: the decorator overrides the whole async port and
     *  owns no service timing of its own. */
    sim::Tick serviceRead(sim::Tick start, std::uint64_t addr,
                          std::uint64_t bytes) override;

    void resetStore() override;

  private:
    /**
     * One demand request with outstanding miss obligations. Each of
     * its unique missing lines resolves exactly once — by its own
     * fill, a piggybacked fill, or a parked retry finding the line
     * resident — and the completion fires when the last one lands,
     * with the worst IoStatus seen and the max finish tick.
     */
    struct PendingRequest
    {
        sim::IoCompletion done;
        std::size_t remaining = 0;
        sim::Tick finish = 0;
        sim::IoStatus status = sim::IoStatus::Ok;
    };

    /** Miss-status holding register of one in-flight line. */
    struct MshrEntry
    {
        bool prefetch = false; //!< in-flight-prefetch vs -demand
        std::vector<std::shared_ptr<PendingRequest>> waiters;
    };

    /** A request whose lines could not all take MSHR entries; retried
     *  in FIFO order as fills complete. */
    struct ParkedRequest
    {
        std::shared_ptr<PendingRequest> request;
        std::vector<std::uint64_t> lines; //!< still-deferred lines
        sim::DispatchTag tag;
    };

    /**
     * Classify the lines of [@p addr, @p addr + @p bytes) through the
     * policy, appending deduplicated missing lines to @p missing.
     * Counts one hit/miss per line touch.
     */
    void classifyRange(std::uint64_t addr, std::uint64_t bytes,
                       std::vector<std::uint64_t> &missing);

    /** Install @p lines after their miss completed (idempotent: lines
     *  filled by a concurrent request are skipped). Legacy
     *  (mshr-disabled) fill path. */
    void fillLines(const std::vector<std::uint64_t> &lines);

    /** Schedule @p done at eq.now() + hit (channel bypass). */
    void completeHit(sim::EventQueue &eq, sim::IoCompletion done);

    /** Legacy miss path: forward the request unchanged, fill missing
     *  lines when the completion fires (`cache.mshr.enabled = 0`). */
    void forwardRead(sim::EventQueue &eq, std::uint64_t addr,
                     std::uint64_t bytes,
                     std::vector<std::uint64_t> missing,
                     sim::IoCompletion done, const sim::DispatchTag &tag);
    void forwardGather(sim::EventQueue &eq,
                       const std::vector<std::uint64_t> &addrs,
                       unsigned entry_bytes,
                       std::vector<std::uint64_t> missing,
                       sim::IoCompletion done,
                       const sim::DispatchTag &tag);

    /** Whether the MSHR machinery handles misses (knob on and a real
     *  capacity; a zero-capacity cache stays a pure pass-through). */
    bool mshrActive() const
    {
        return params_.mshr_enabled && params_.capacityLines() > 0;
    }

    /** MSHR miss path shared by submitRead/submitGather: attach each
     *  unique missing line to an in-flight fill, issue the rest as one
     *  coalesced line gather, park what fits nowhere. */
    void processMisses(sim::EventQueue &eq,
                       std::vector<std::uint64_t> unique_missing,
                       sim::IoCompletion done,
                       const sim::DispatchTag &tag);

    /** Issue one coalesced line-granular fill for @p lines. */
    void issueFill(sim::EventQueue &eq, std::vector<std::uint64_t> lines,
                   const sim::DispatchTag &tag);

    /** Retire the MSHR entries of one completed fill: install (demand
     *  or hoard) or account the failure, resolve every waiter, then
     *  retry parked requests against the freed entries. */
    void completeFill(sim::EventQueue &eq,
                      const std::vector<std::uint64_t> &lines,
                      sim::Tick finish, sim::IoStatus status);

    /** Install one filled line, retiring hoard bookkeeping with the
     *  victim; @p prefetched lines enter the hoarded set. */
    void installLine(std::uint64_t line, bool prefetched);

    /** Resolve one line obligation of @p request. */
    void resolveObligation(const std::shared_ptr<PendingRequest> &request,
                           sim::Tick finish, sim::IoStatus status);

    /** Retry parked requests in strict FIFO order; stops at the first
     *  request that still cannot place all its lines. */
    void retryParked(sim::EventQueue &eq);

    std::string name_;
    std::unique_ptr<EdgeStore> inner_;
    FeatureCacheParams params_;
    std::unique_ptr<CacheReplacementPolicy> policy_;
    FeatureCacheStats stats_;

    /** In-flight lines (demand and prefetch). Never iterated for
     *  order-dependent work — completions walk their own line vectors
     *  and waiter lists in attach order, keeping runs deterministic. */
    std::unordered_map<std::uint64_t, MshrEntry> mshr_;
    std::deque<ParkedRequest> parked_;
    /** Prefetch-installed lines no demand touch has wanted yet; the
     *  first demand hit counts prefetch_useful and retires the entry. */
    std::unordered_set<std::uint64_t> hoarded_;
    /** Private drain queue of the blocking calls (read, readGather,
     *  announceBlocking); each drains it dry before returning. */
    sim::EventQueue drain_eq_;
};

/**
 * Decorate @p store with a FeatureCacheStore when the build context's
 * `cache.*` knobs enable one (`cache.capacity_fraction` > 0; capacity
 * scales off the workload's edge-list footprint like every other cache
 * budget). With the default fraction of 0 the store is returned
 * untouched, so backends calling this wrapper stay bit-identical to
 * their pre-cache behavior. Unknown or out-of-range `cache.*` knobs
 * are fatal.
 */
std::unique_ptr<EdgeStore>
wrapWithFeatureCache(std::unique_ptr<EdgeStore> store,
                     const core::BackendBuildContext &ctx);

} // namespace smartsage::host

#endif // SMARTSAGE_HOST_FEATURE_CACHE_HH
