/**
 * @file
 * Minimal discrete-event simulation kernel.
 *
 * Components schedule callbacks at absolute ticks; run() drains events in
 * time order (FIFO among same-tick events). The pipeline simulator
 * (src/pipeline) is the main client; storage-stack components use the
 * lighter busy-until Resource model (resource.hh) instead of per-request
 * events, which keeps large sweeps fast.
 */

#ifndef SMARTSAGE_SIM_EVENT_QUEUE_HH
#define SMARTSAGE_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "types.hh"

namespace smartsage::sim
{

/** Time-ordered event queue with a monotonic simulated clock. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /**
     * Schedule @p cb at absolute time @p when.
     * @pre when >= now() — scheduling in the past is a simulator bug
     * and panics with the offending ticks (enforced, not advisory).
     */
    void schedule(Tick when, Callback cb);

    /** Schedule @p cb @p delay ticks from now. */
    void scheduleAfter(Tick delay, Callback cb);

    /** Run until the queue is empty. @return final simulated time. */
    Tick run();

    /** Run until the queue is empty or time would exceed @p limit. */
    Tick runUntil(Tick limit);

    /**
     * Rewind the clock to 0 and drop any pending events. Blocking
     * drains (sim::drainOne in sim/io.hh) reuse one queue across
     * independent drains whose arrival ticks are not monotonic.
     */
    void reset();

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, Later> heap_;
    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
};

} // namespace smartsage::sim

#endif // SMARTSAGE_SIM_EVENT_QUEUE_HH
