#include "feature_cache.hh"

#include <algorithm>
#include <list>
#include <numeric>
#include <set>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/backend.hh"
#include "graph/csr.hh"
#include "graph/layout.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace smartsage::host
{

const std::string &
featureCachePolicyName(FeatureCachePolicy policy)
{
    static const std::string names[] = {"lru", "clock", "lfu-lite",
                                        "degree-pin"};
    return names[static_cast<int>(policy)];
}

FeatureCachePolicy
featureCachePolicyFromKnob(double value)
{
    std::uint64_t id = core::requireIntegerKnob("cache.policy", value);
    if (id > 3)
        SS_FATAL("cache.policy must be one of 0=lru, 1=clock, "
                 "2=lfu-lite, 3=degree-pin, got ",
                 value);
    return static_cast<FeatureCachePolicy>(id);
}

namespace
{

/** Exact LRU: splice-to-front list plus an id index. */
class LruPolicy final : public CacheReplacementPolicy
{
  public:
    explicit LruPolicy(std::uint64_t max_lines) : max_lines_(max_lines) {}

    bool
    access(std::uint64_t line) override
    {
        auto it = index_.find(line);
        if (it == index_.end())
            return false;
        order_.splice(order_.begin(), order_, it->second);
        return true;
    }

    bool
    contains(std::uint64_t line) const override
    {
        return index_.count(line) != 0;
    }

    bool
    fill(std::uint64_t line, std::uint64_t *victim) override
    {
        if (max_lines_ == 0)
            return false;
        bool evicted = false;
        if (order_.size() >= max_lines_) {
            if (victim)
                *victim = order_.back();
            index_.erase(order_.back());
            order_.pop_back();
            evicted = true;
        }
        order_.push_front(line);
        index_[line] = order_.begin();
        return evicted;
    }

    std::uint64_t size() const override { return order_.size(); }

    void
    reset() override
    {
        order_.clear();
        index_.clear();
    }

    void
    appendResident(std::vector<std::uint64_t> &out) const override
    {
        out.insert(out.end(), order_.begin(), order_.end());
    }

  private:
    std::uint64_t max_lines_;
    std::list<std::uint64_t> order_; //!< MRU first
    std::unordered_map<std::uint64_t,
                       std::list<std::uint64_t>::iterator>
        index_;
};

/**
 * CLOCK (second chance): fills take empty slots in arrival order; once
 * full, the hand clears reference bits until it lands on an
 * unreferenced victim and moves one past the replaced slot.
 */
class ClockPolicy final : public CacheReplacementPolicy
{
  public:
    explicit ClockPolicy(std::uint64_t max_lines) : max_lines_(max_lines)
    {
    }

    bool
    access(std::uint64_t line) override
    {
        auto it = index_.find(line);
        if (it == index_.end())
            return false;
        slots_[it->second].referenced = true;
        return true;
    }

    bool
    contains(std::uint64_t line) const override
    {
        return index_.count(line) != 0;
    }

    bool
    fill(std::uint64_t line, std::uint64_t *victim) override
    {
        if (max_lines_ == 0)
            return false;
        if (slots_.size() < max_lines_) {
            index_[line] = slots_.size();
            slots_.push_back({line, false});
            return false;
        }
        while (slots_[hand_].referenced) {
            slots_[hand_].referenced = false;
            hand_ = (hand_ + 1) % slots_.size();
        }
        if (victim)
            *victim = slots_[hand_].line;
        index_.erase(slots_[hand_].line);
        slots_[hand_] = {line, false};
        index_[line] = hand_;
        hand_ = (hand_ + 1) % slots_.size();
        return true;
    }

    std::uint64_t size() const override { return slots_.size(); }

    void
    reset() override
    {
        slots_.clear();
        index_.clear();
        hand_ = 0;
    }

    void
    appendResident(std::vector<std::uint64_t> &out) const override
    {
        for (const Slot &slot : slots_)
            out.push_back(slot.line);
    }

  private:
    struct Slot
    {
        std::uint64_t line;
        bool referenced;
    };

    std::uint64_t max_lines_;
    std::vector<Slot> slots_;
    std::size_t hand_ = 0;
    std::unordered_map<std::uint64_t, std::size_t> index_;
};

/**
 * LFU-lite: per-line frequency saturating at a small cap (so stale
 * once-hot lines can age out of the victim race), victims picked by
 * (frequency, fill stamp) — FIFO among equally-cold lines.
 */
class LfuLitePolicy final : public CacheReplacementPolicy
{
  public:
    explicit LfuLitePolicy(std::uint64_t max_lines)
        : max_lines_(max_lines)
    {
    }

    bool
    access(std::uint64_t line) override
    {
        auto it = entries_.find(line);
        if (it == entries_.end())
            return false;
        Entry &e = it->second;
        if (e.freq < kMaxFreq) {
            queue_.erase({e.freq, e.stamp, line});
            ++e.freq;
            queue_.insert({e.freq, e.stamp, line});
        }
        return true;
    }

    bool
    contains(std::uint64_t line) const override
    {
        return entries_.count(line) != 0;
    }

    bool
    fill(std::uint64_t line, std::uint64_t *victim) override
    {
        if (max_lines_ == 0)
            return false;
        bool evicted = false;
        if (entries_.size() >= max_lines_) {
            auto coldest = queue_.begin();
            if (victim)
                *victim = std::get<2>(*coldest);
            entries_.erase(std::get<2>(*coldest));
            queue_.erase(coldest);
            evicted = true;
        }
        Entry e{1, ++stamp_};
        entries_[line] = e;
        queue_.insert({e.freq, e.stamp, line});
        return evicted;
    }

    std::uint64_t size() const override { return entries_.size(); }

    void
    reset() override
    {
        entries_.clear();
        queue_.clear();
        stamp_ = 0;
    }

    void
    appendResident(std::vector<std::uint64_t> &out) const override
    {
        for (const auto &entry : queue_)
            out.push_back(std::get<2>(entry));
    }

  private:
    static constexpr std::uint32_t kMaxFreq = 15;

    struct Entry
    {
        std::uint32_t freq;
        std::uint64_t stamp;
    };

    std::uint64_t max_lines_;
    std::uint64_t stamp_ = 0;
    std::unordered_map<std::uint64_t, Entry> entries_;
    /** Victim order: coldest (freq, stamp) first. */
    std::set<std::tuple<std::uint32_t, std::uint64_t, std::uint64_t>>
        queue_;
};

/** Static pin set: membership decided at build time, never replaced. */
class DegreePinPolicy final : public CacheReplacementPolicy
{
  public:
    explicit DegreePinPolicy(const std::vector<std::uint64_t> &pinned)
        : order_(pinned), pinned_(pinned.begin(), pinned.end())
    {
    }

    bool
    access(std::uint64_t line) override
    {
        return pinned_.count(line) != 0;
    }

    bool
    contains(std::uint64_t line) const override
    {
        return pinned_.count(line) != 0;
    }

    bool
    fill(std::uint64_t line, std::uint64_t *victim) override
    {
        (void)line; // misses stay misses: the pin set is the cache
        (void)victim;
        return false;
    }

    std::uint64_t size() const override { return pinned_.size(); }

    void reset() override {} // construction-time state survives reset

    void
    appendResident(std::vector<std::uint64_t> &out) const override
    {
        out.insert(out.end(), order_.begin(), order_.end());
    }

  private:
    std::vector<std::uint64_t> order_; //!< pin order, hottest first
    std::unordered_set<std::uint64_t> pinned_;
};

/**
 * Worst-of two statuses for a request whose lines resolved from
 * different fills: any failure poisons the request, and among
 * failures the numerically larger (TransientError < Timeout < Shed)
 * wins — an arbitrary but deterministic total order.
 */
sim::IoStatus
worseStatus(sim::IoStatus a, sim::IoStatus b)
{
    return static_cast<std::uint8_t>(a) >= static_cast<std::uint8_t>(b)
               ? a
               : b;
}

/** Dispatch tag of hoard fills: below every demand priority, so under
 *  a priority scheduler prefetch never delays a demand miss. */
constexpr sim::DispatchTag kPrefetchTag{-1, 0};

} // namespace

std::unique_ptr<CacheReplacementPolicy>
makeCacheReplacementPolicy(const FeatureCacheParams &params)
{
    switch (params.policy) {
    case FeatureCachePolicy::Lru:
        return std::make_unique<LruPolicy>(params.capacityLines());
    case FeatureCachePolicy::Clock:
        return std::make_unique<ClockPolicy>(params.capacityLines());
    case FeatureCachePolicy::LfuLite:
        return std::make_unique<LfuLitePolicy>(params.capacityLines());
    case FeatureCachePolicy::DegreePin:
        return std::make_unique<DegreePinPolicy>(params.pinned_lines);
    }
    SS_FATAL("unknown feature-cache policy id ",
             static_cast<int>(params.policy));
}

std::vector<std::uint64_t>
degreePinnedLines(const graph::CsrGraph &graph,
                  const graph::EdgeLayout &layout,
                  std::uint64_t line_bytes, std::uint64_t max_lines)
{
    std::vector<std::uint64_t> out;
    if (max_lines == 0)
        return out;

    auto n = static_cast<graph::LocalNodeId>(graph.numNodes());
    std::vector<graph::LocalNodeId> nodes(n);
    std::iota(nodes.begin(), nodes.end(), graph::LocalNodeId(0));
    std::sort(nodes.begin(), nodes.end(),
              [&graph](graph::LocalNodeId a, graph::LocalNodeId b) {
                  std::uint64_t da = graph.degree(a);
                  std::uint64_t db = graph.degree(b);
                  return da != db ? da > db : a < b;
              });

    std::unordered_set<std::uint64_t> taken;
    out.reserve(max_lines);
    for (graph::LocalNodeId node : nodes) {
        std::uint64_t degree = graph.degree(node);
        if (degree == 0)
            break; // degrees descend: the rest are isolated nodes
        sim::EdgeIndex row = graph.edgeOffset(node);
        std::uint64_t first = layout.addrOf(row) / line_bytes;
        std::uint64_t last = (layout.addrOf(row + degree - 1) +
                              layout.entry_bytes - 1) /
                             line_bytes;
        for (std::uint64_t line = first; line <= last; ++line) {
            if (!taken.insert(line).second)
                continue;
            out.push_back(line);
            if (out.size() >= max_lines)
                return out;
        }
    }
    return out;
}

FeatureCacheStore::FeatureCacheStore(std::unique_ptr<EdgeStore> inner,
                                     FeatureCacheParams params)
    : EdgeStore(1), inner_(std::move(inner)),
      params_(std::move(params)),
      policy_(makeCacheReplacementPolicy(params_))
{
    SS_ASSERT(inner_, "feature cache needs a store to decorate");
    SS_ASSERT(params_.line_bytes > 0, "feature cache needs a line size");
    name_ = inner_->name() + " + " +
            featureCachePolicyName(params_.policy) + " cache";
}

void
FeatureCacheStore::classifyRange(std::uint64_t addr, std::uint64_t bytes,
                                 std::vector<std::uint64_t> &missing)
{
    std::uint64_t first = addr / params_.line_bytes;
    std::uint64_t last =
        (addr + (bytes ? bytes - 1 : 0)) / params_.line_bytes;
    for (std::uint64_t line = first; line <= last; ++line) {
        if (policy_->access(line)) {
            ++stats_.hits;
            // First demand touch on a hoard-installed line: the
            // prefetch proved useful; later touches are plain hits.
            if (!hoarded_.empty() && hoarded_.erase(line))
                ++stats_.prefetch_useful;
        } else {
            ++stats_.misses;
            missing.push_back(line);
        }
    }
}

void
FeatureCacheStore::fillLines(const std::vector<std::uint64_t> &lines)
{
    for (std::uint64_t line : lines) {
        // A concurrent request may have filled the line while this
        // miss was in flight; fills are idempotent.
        if (policy_->contains(line))
            continue;
        if (policy_->fill(line))
            ++stats_.evictions;
    }
}

void
FeatureCacheStore::completeHit(sim::EventQueue &eq, sim::IoCompletion done)
{
    sim::Tick finish = eq.now() + params_.hit;
    eq.schedule(finish, [done = std::move(done), finish] {
        if (done)
            done(finish, sim::IoStatus::Ok);
    });
}

void
FeatureCacheStore::forwardRead(sim::EventQueue &eq, std::uint64_t addr,
                               std::uint64_t bytes,
                               std::vector<std::uint64_t> missing,
                               sim::IoCompletion done,
                               const sim::DispatchTag &tag)
{
    inner_->submitRead(
        eq, addr, bytes,
        [this, missing = std::move(missing),
         done = std::move(done)](sim::Tick finish, sim::IoStatus status) {
            // A failed read delivered no data: caching its lines would
            // serve garbage to every later hit.
            if (status == sim::IoStatus::Ok)
                fillLines(missing);
            else
                stats_.failed_fills += missing.size();
            if (done)
                done(finish, status);
        },
        tag);
}

void
FeatureCacheStore::forwardGather(sim::EventQueue &eq,
                                 const std::vector<std::uint64_t> &addrs,
                                 unsigned entry_bytes,
                                 std::vector<std::uint64_t> missing,
                                 sim::IoCompletion done,
                                 const sim::DispatchTag &tag)
{
    inner_->submitGather(
        eq, addrs, entry_bytes,
        [this, missing = std::move(missing),
         done = std::move(done)](sim::Tick finish, sim::IoStatus status) {
            if (status == sim::IoStatus::Ok)
                fillLines(missing);
            else
                stats_.failed_fills += missing.size();
            if (done)
                done(finish, status);
        },
        tag);
}

void
FeatureCacheStore::submitRead(sim::EventQueue &eq, std::uint64_t addr,
                              std::uint64_t bytes, sim::IoCompletion done,
                              const sim::DispatchTag &tag)
{
    std::vector<std::uint64_t> missing;
    classifyRange(addr, bytes, missing);
    if (missing.empty()) {
        completeHit(eq, std::move(done));
        return;
    }
    // A contiguous range touches each line once, so `missing` is
    // already unique and in ascending order.
    if (mshrActive())
        processMisses(eq, std::move(missing), std::move(done), tag);
    else
        forwardRead(eq, addr, bytes, std::move(missing), std::move(done),
                    tag);
}

void
FeatureCacheStore::submitGather(sim::EventQueue &eq,
                                const std::vector<std::uint64_t> &addrs,
                                unsigned entry_bytes,
                                sim::IoCompletion done,
                                const sim::DispatchTag &tag)
{
    if (addrs.empty()) {
        if (done)
            done(eq.now(), sim::IoStatus::Ok);
        return;
    }
    std::vector<std::uint64_t> missing;
    for (std::uint64_t a : addrs)
        classifyRange(a, entry_bytes, missing);
    if (missing.empty()) {
        completeHit(eq, std::move(done));
        return;
    }
    // Entries of one gather may share lines; each line is obligated
    // (and, under MSHRs, issued) once.
    std::size_t touches = missing.size();
    std::sort(missing.begin(), missing.end());
    missing.erase(std::unique(missing.begin(), missing.end()),
                  missing.end());
    if (mshrActive()) {
        stats_.gather_dedup += touches - missing.size();
        processMisses(eq, std::move(missing), std::move(done), tag);
    } else {
        forwardGather(eq, addrs, entry_bytes, std::move(missing),
                      std::move(done), tag);
    }
}

sim::Tick
FeatureCacheStore::read(sim::Tick arrival, std::uint64_t addr,
                        std::uint64_t bytes)
{
    return sim::drainOne(
        drain_eq_, arrival,
        [&](sim::EventQueue &eq, sim::IoCompletion done) {
            submitRead(eq, addr, bytes, std::move(done));
        },
        name(), ioChannel().submitted());
}

sim::Tick
FeatureCacheStore::readGather(sim::Tick arrival,
                              const std::vector<std::uint64_t> &addrs,
                              unsigned entry_bytes)
{
    return sim::drainOne(
        drain_eq_, arrival,
        [&](sim::EventQueue &eq, sim::IoCompletion done) {
            submitGather(eq, addrs, entry_bytes, std::move(done));
        },
        name(), ioChannel().submitted());
}

void
FeatureCacheStore::processMisses(sim::EventQueue &eq,
                                 std::vector<std::uint64_t> unique_missing,
                                 sim::IoCompletion done,
                                 const sim::DispatchTag &tag)
{
    auto request = std::make_shared<PendingRequest>();
    request->done = std::move(done);
    request->remaining = unique_missing.size();

    std::vector<std::uint64_t> fetch;
    std::vector<std::uint64_t> deferred;
    for (std::uint64_t line : unique_missing) {
        auto it = mshr_.find(line);
        if (it != mshr_.end()) {
            MshrEntry &entry = it->second;
            if (entry.waiters.size() >= params_.mshr_waiters) {
                deferred.push_back(line);
                continue;
            }
            ++stats_.mshr_piggybacks;
            if (entry.prefetch) {
                // Demand touch on an in-flight prefetch: upgrade in
                // place. The line now installs as demand-resident.
                entry.prefetch = false;
                ++stats_.prefetch_useful;
            }
            entry.waiters.push_back(request);
        } else if (mshr_.size() < params_.mshr_entries) {
            mshr_.emplace(line, MshrEntry{false, {request}});
            fetch.push_back(line);
        } else {
            deferred.push_back(line);
        }
    }

    if (!deferred.empty()) {
        ++stats_.mshr_stalls;
        parked_.push_back({request, std::move(deferred), tag});
    }
    if (!fetch.empty())
        issueFill(eq, std::move(fetch), tag);
}

void
FeatureCacheStore::issueFill(sim::EventQueue &eq,
                             std::vector<std::uint64_t> lines,
                             const sim::DispatchTag &tag)
{
    std::vector<std::uint64_t> addrs;
    addrs.reserve(lines.size());
    for (std::uint64_t line : lines)
        addrs.push_back(line * params_.line_bytes);
    inner_->submitGather(
        eq, addrs, static_cast<unsigned>(params_.line_bytes),
        [this, &eq, lines = std::move(lines)](sim::Tick finish,
                                              sim::IoStatus status) {
            completeFill(eq, lines, finish, status);
        },
        tag);
}

void
FeatureCacheStore::completeFill(sim::EventQueue &eq,
                                const std::vector<std::uint64_t> &lines,
                                sim::Tick finish, sim::IoStatus status)
{
    for (std::uint64_t line : lines) {
        auto it = mshr_.find(line);
        SS_ASSERT(it != mshr_.end(),
                  "fill completed for a line with no MSHR entry");
        // Detach before resolving: a waiter's completion may reenter
        // submitGather (closed-loop clients) and mutate the table.
        MshrEntry entry = std::move(it->second);
        mshr_.erase(it);

        if (status == sim::IoStatus::Ok) {
            installLine(line, entry.prefetch);
        } else if (entry.prefetch) {
            // A failed hoard fill sheds silently: nothing installs,
            // no demand request existed to care.
            ++stats_.prefetch_failed;
        } else {
            // Once per line per fill, however many waiters coalesced
            // on it; every waiter still sees the error below.
            ++stats_.failed_fills;
        }
        for (const auto &waiter : entry.waiters)
            resolveObligation(waiter, finish, status);
    }
    retryParked(eq);
}

void
FeatureCacheStore::installLine(std::uint64_t line, bool prefetched)
{
    if (policy_->contains(line))
        return; // warm-filled concurrently; fills stay idempotent
    std::uint64_t victim = 0;
    if (policy_->fill(line, &victim)) {
        ++stats_.evictions;
        hoarded_.erase(victim);
    }
    if (prefetched)
        hoarded_.insert(line);
}

void
FeatureCacheStore::resolveObligation(
    const std::shared_ptr<PendingRequest> &request, sim::Tick finish,
    sim::IoStatus status)
{
    request->finish = std::max(request->finish, finish);
    request->status = worseStatus(request->status, status);
    SS_ASSERT(request->remaining > 0,
              "over-resolved feature-cache request");
    if (--request->remaining == 0 && request->done)
        request->done(request->finish, request->status);
}

void
FeatureCacheStore::retryParked(sim::EventQueue &eq)
{
    while (!parked_.empty()) {
        ParkedRequest &parked = parked_.front();
        std::vector<std::uint64_t> fetch;
        std::vector<std::uint64_t> still;
        for (std::uint64_t line : parked.lines) {
            if (policy_->access(line)) {
                // The fill this line waited out installed it (counted
                // as a miss at classification; not re-counted here).
                resolveObligation(parked.request, eq.now(),
                                  sim::IoStatus::Ok);
            } else if (auto it = mshr_.find(line); it != mshr_.end()) {
                MshrEntry &entry = it->second;
                if (entry.waiters.size() >= params_.mshr_waiters) {
                    still.push_back(line);
                    continue;
                }
                ++stats_.mshr_piggybacks;
                if (entry.prefetch) {
                    entry.prefetch = false;
                    ++stats_.prefetch_useful;
                }
                entry.waiters.push_back(parked.request);
            } else if (mshr_.size() < params_.mshr_entries) {
                mshr_.emplace(line, MshrEntry{false, {parked.request}});
                fetch.push_back(line);
            } else {
                still.push_back(line);
            }
        }
        if (!fetch.empty())
            issueFill(eq, std::move(fetch), parked.tag);
        if (!still.empty()) {
            // Head still blocked: stop here, strict FIFO (no younger
            // parked request may overtake it into freed entries).
            parked.lines = std::move(still);
            return;
        }
        parked_.pop_front();
    }
}

void
FeatureCacheStore::announceGather(sim::EventQueue &eq,
                                  const std::vector<std::uint64_t> &addrs,
                                  unsigned entry_bytes)
{
    if (!prefetchEnabled() || addrs.empty())
        return;

    // First-touch order, deduplicated; residency probes via the
    // non-mutating contains() so an announcement perturbs neither
    // replacement state nor the hit/miss counters.
    std::unordered_set<std::uint64_t> seen;
    std::vector<std::uint64_t> fetch;
    for (std::uint64_t a : addrs) {
        std::uint64_t first = a / params_.line_bytes;
        std::uint64_t last =
            (a + (entry_bytes ? entry_bytes - 1 : 0)) / params_.line_bytes;
        for (std::uint64_t line = first; line <= last; ++line) {
            if (!seen.insert(line).second)
                continue;
            if (policy_->contains(line) || mshr_.count(line))
                continue;
            if (fetch.size() >= params_.prefetch_max_lines ||
                mshr_.size() >= params_.mshr_entries) {
                // The hoard path never parks: excess lines shed.
                ++stats_.prefetch_dropped;
                continue;
            }
            mshr_.emplace(line, MshrEntry{true, {}});
            ++stats_.prefetch_issued;
            fetch.push_back(line);
        }
    }
    if (!fetch.empty())
        issueFill(eq, std::move(fetch), kPrefetchTag);
}

void
FeatureCacheStore::announceBlocking(
    sim::Tick now, const std::vector<std::uint64_t> &addrs,
    unsigned entry_bytes)
{
    if (!prefetchEnabled() || addrs.empty())
        return;
    SS_ASSERT(mshr_.empty() && parked_.empty(),
              "blocking announce with fills in flight (the blocking "
              "adapters drain fully between calls)");
    drain_eq_.reset();
    drain_eq_.schedule(now, [this, &addrs, entry_bytes] {
        announceGather(drain_eq_, addrs, entry_bytes);
    });
    drain_eq_.run();
    SS_ASSERT(mshr_.empty(), "blocking announce left fills in flight");
}

std::vector<std::uint64_t>
FeatureCacheStore::residentLineIds() const
{
    std::vector<std::uint64_t> out;
    policy_->appendResident(out);
    std::sort(out.begin(), out.end());
    return out;
}

void
FeatureCacheStore::warmFill(const std::vector<std::uint64_t> &lines)
{
    for (std::uint64_t line : lines) {
        if (policy_->contains(line))
            continue;
        policy_->fill(line);
    }
}

sim::Tick
FeatureCacheStore::serviceRead(sim::Tick start, std::uint64_t addr,
                               std::uint64_t bytes)
{
    (void)start;
    (void)addr;
    (void)bytes;
    SS_FATAL("FeatureCacheStore has no service timing of its own; "
             "requests route through the decorated store");
}

void
FeatureCacheStore::resetStore()
{
    SS_ASSERT(mshr_.empty() && parked_.empty(),
              "feature-cache reset with fills in flight");
    inner_->reset();
    policy_->reset();
    stats_ = {};
    hoarded_.clear();
}

std::unique_ptr<EdgeStore>
wrapWithFeatureCache(std::unique_ptr<EdgeStore> store,
                     const core::BackendBuildContext &ctx)
{
    const core::SystemConfig &config = ctx.config;
    core::validateBackendKnobs(
        config, "cache.",
        {"cache.policy", "cache.capacity_fraction", "cache.line_kib",
         "cache.hit_ns", "cache.mshr.enabled", "cache.mshr.entries",
         "cache.mshr.waiters", "cache.prefetch.enabled",
         "cache.prefetch.lookahead", "cache.prefetch.max_lines"});

    double fraction = config.knobOr("cache.capacity_fraction", 0.0);
    if (!(fraction >= 0.0 && fraction <= 1.0))
        SS_FATAL("cache.capacity_fraction must be within [0, 1], got ",
                 fraction);
    if (fraction == 0.0)
        return store; // disabled: the store is untouched

    FeatureCacheParams params;
    params.policy =
        featureCachePolicyFromKnob(config.knobOr("cache.policy", 0));

    double line_kib = config.knobOr("cache.line_kib", 4);
    if (!(line_kib >= 1 && line_kib <= 4096))
        SS_FATAL("cache.line_kib must be within [1, 4096], got ",
                 line_kib);
    params.line_bytes =
        sim::KiB(core::requireIntegerKnob("cache.line_kib", line_kib));

    double hit_ns = config.knobOr("cache.hit_ns", 150);
    if (!(hit_ns >= 0))
        SS_FATAL("cache.hit_ns must be >= 0, got ", hit_ns);
    params.hit = sim::ns(hit_ns);

    double mshr_enabled = config.knobOr("cache.mshr.enabled", 1);
    if (mshr_enabled != 0 && mshr_enabled != 1)
        SS_FATAL("cache.mshr.enabled must be 0 or 1, got ", mshr_enabled);
    params.mshr_enabled = mshr_enabled != 0;

    double mshr_entries = config.knobOr("cache.mshr.entries", 64);
    if (!(mshr_entries >= 1 && mshr_entries <= 65536))
        SS_FATAL("cache.mshr.entries must be within [1, 65536], got ",
                 mshr_entries);
    params.mshr_entries = static_cast<std::uint32_t>(
        core::requireIntegerKnob("cache.mshr.entries", mshr_entries));

    double mshr_waiters = config.knobOr("cache.mshr.waiters", 16);
    if (!(mshr_waiters >= 1 && mshr_waiters <= 65536))
        SS_FATAL("cache.mshr.waiters must be within [1, 65536], got ",
                 mshr_waiters);
    params.mshr_waiters = static_cast<std::uint32_t>(
        core::requireIntegerKnob("cache.mshr.waiters", mshr_waiters));

    double prefetch_enabled = config.knobOr("cache.prefetch.enabled", 0);
    if (prefetch_enabled != 0 && prefetch_enabled != 1)
        SS_FATAL("cache.prefetch.enabled must be 0 or 1, got ",
                 prefetch_enabled);
    params.prefetch_enabled = prefetch_enabled != 0;
    if (params.prefetch_enabled && !params.mshr_enabled)
        SS_FATAL("cache.prefetch.enabled requires cache.mshr.enabled: "
                 "the hoard path tracks in-flight lines in the MSHR "
                 "table");

    double lookahead = config.knobOr("cache.prefetch.lookahead", 1);
    if (!(lookahead >= 1 && lookahead <= 64))
        SS_FATAL("cache.prefetch.lookahead must be within [1, 64], got ",
                 lookahead);
    params.prefetch_lookahead = static_cast<std::uint32_t>(
        core::requireIntegerKnob("cache.prefetch.lookahead", lookahead));

    double max_lines = config.knobOr("cache.prefetch.max_lines", 256);
    if (!(max_lines >= 1 && max_lines <= 1048576))
        SS_FATAL("cache.prefetch.max_lines must be within [1, 1048576], "
                 "got ",
                 max_lines);
    params.prefetch_max_lines = static_cast<std::uint32_t>(
        core::requireIntegerKnob("cache.prefetch.max_lines", max_lines));

    // Capacity scales off the edge-list footprint like the page-cache
    // and scratchpad budgets; once enabled it holds at least one line.
    std::uint64_t edge_bytes = ctx.workload.edgeListBytes(config.layout);
    auto want = static_cast<std::uint64_t>(
        fraction * static_cast<double>(edge_bytes));
    params.capacity_bytes = std::max(want, params.line_bytes);

    if (params.policy == FeatureCachePolicy::DegreePin)
        params.pinned_lines = degreePinnedLines(
            ctx.workload.graph, config.layout, params.line_bytes,
            params.capacityLines());

    return std::make_unique<FeatureCacheStore>(std::move(store),
                                               std::move(params));
}

} // namespace smartsage::host
