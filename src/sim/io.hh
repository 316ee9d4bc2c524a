/**
 * @file
 * Asynchronous storage request primitives.
 *
 * The storage stack's components service `IoRequest`s through
 * `StorageChannel`s: bounded FIFO service stations driven by the
 * discrete-event kernel (event_queue.hh). A request submitted while the
 * channel has a free slot dispatches immediately; otherwise it waits in
 * the channel's pending queue until an in-flight request completes, so
 * queue-depth contention emerges from queueing rather than serialized
 * timeline math. The busy-until Resource models (resource.hh) remain
 * the *service-time* math inside a dispatch; the channel layer decides
 * *when* a request may begin service.
 *
 * The blocking API (`EdgeStore::read`, `SsdDevice::readBlocks`,
 * `IspEngine::runGroup`) serves its one request inline on the idle
 * channel (StorageChannel::serveInline): the same service math, retry
 * rules, jitter stream and counters as submitting it and draining an
 * event queue, with no queue at all — a lone request never waits for a
 * slot, so the queue could change no tick. Only a decorator that owns
 * the async port (host/feature_cache.hh) still drains a private queue
 * (drainOne), because its MSHR fills complete through events.
 */

#ifndef SMARTSAGE_SIM_IO_HH
#define SMARTSAGE_SIM_IO_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>

#include "event_queue.hh"
#include "fault.hh"
#include "random.hh"
#include "types.hh"

namespace smartsage::sim
{

/**
 * How a request ended. Ok requests carry valid data; TransientError
 * means every service attempt failed (retries exhausted); Timeout
 * means the request missed its end-to-end deadline; Shed means
 * admission control rejected the request before it ever queued.
 */
enum class IoStatus : std::uint8_t
{
    Ok = 0,
    TransientError,
    Timeout,
    Shed,
};

/** Human-readable status name (stats rows, fatal messages). */
const char *ioStatusName(IoStatus status);

/**
 * Which pending request a StorageChannel pulls forward when a service
 * slot frees. Fifo is the historical arrival-order behavior and the
 * default; with every request carrying a default DispatchTag the other
 * policies degenerate to Fifo's selection, so the policy knob alone
 * never perturbs an untagged workload.
 */
enum class DispatchPolicy : std::uint8_t
{
    Fifo = 0,     //!< strict arrival order
    Priority,     //!< highest priority; ties by deadline, then arrival
    Deadline,     //!< earliest deadline first; ties by priority, then arrival
};

/** Human-readable policy name (docs, tables). */
const char *dispatchPolicyName(DispatchPolicy policy);

/**
 * Per-request scheduling metadata carried through a channel's pending
 * queue. The default tag (priority 0, no deadline) is what every
 * legacy submission carries, so untagged traffic is indistinguishable
 * from the pre-policy channel.
 */
struct DispatchTag
{
    /** Larger dispatches first under DispatchPolicy::Priority. */
    int priority = 0;
    /** Absolute completion deadline in ticks; 0 means none. Used by
     *  DispatchPolicy::Deadline and by SLO-aware admission. */
    Tick deadline = 0;
};

/** Scheduling policy knob block (`sched.*` namespace). */
struct SchedConfig
{
    DispatchPolicy policy = DispatchPolicy::Fifo;
};

/**
 * Admission control at a channel's submit edge (`admit.*` namespace).
 * Both knobs default off, in which case the admission check is never
 * evaluated and the submit path is byte-identical to the unguarded
 * channel.
 */
struct AdmissionControl
{
    /** Pending-queue bound; a submission arriving with this many
     *  requests already waiting is shed. 0 disables the bound. */
    std::size_t max_queue = 0;
    /**
     * Shed deadline-carrying requests that cannot plausibly meet their
     * deadline: the channel estimates this request's completion tick
     * from the mean service time of completed requests and the current
     * queue length, and shed when the estimate lands past the
     * deadline. Purely deterministic (no RNG draw).
     */
    bool slo_aware = false;

    /** Any admission rule active. */
    bool
    enabled() const
    {
        return max_queue != 0 || slo_aware;
    }
};

/**
 * Apply one `sched.`-namespace knob (namespace already stripped).
 * Fatal on an out-of-range policy id. @return false if the key is
 * unknown
 */
bool applyKnob(SchedConfig &config, std::string_view key, double value);

/**
 * Apply one `admit.`-namespace knob (namespace already stripped).
 * @return false if the key is unknown
 */
bool applyKnob(AdmissionControl &admit, std::string_view key,
               double value);

/** Completion callback: invoked at the request's finish tick. */
using IoCompletion = std::function<void(Tick finish, IoStatus status)>;

/** Result of one fallible service attempt. */
struct IoOutcome
{
    Tick finish = 0;
    IoStatus status = IoStatus::Ok;
};

/** One in-flight storage request (serving-mode bookkeeping). */
struct IoRequest
{
    std::uint64_t id = 0;   //!< caller-assigned identifier
    Tick submit = 0;        //!< tick handed to the port
    Tick dispatch = 0;      //!< tick service admission began
    Tick complete = 0;      //!< tick the data became usable

    /** End-to-end latency including queueing. */
    Tick latency() const { return complete - submit; }

    /** Time spent waiting for a channel slot. */
    Tick queueWait() const { return dispatch - submit; }
};

/**
 * A bounded service station (FIFO by default).
 *
 * At most `depth` requests are in service at once; excess submissions
 * wait in arrival order and are pulled forward by the channel's
 * DispatchPolicy when a slot frees (Fifo reproduces strict arrival
 * order; Priority and Deadline reorder by DispatchTag). An optional
 * AdmissionControl sheds submissions at the submit edge before they
 * queue. Service itself is expressed as a callback so
 * any existing timing math (busy-until servers, links, nested blocking
 * calls) can stand in as the station's service process:
 *
 *  - submit():       synchronous service — service(start) returns the
 *                    finish tick; the slot is held until that tick.
 *  - submitStaged(): multi-stage service — the service schedules its
 *                    own events and reports the finish tick through the
 *                    provided completion; the slot is held until then.
 */
class StorageChannel
{
  public:
    /** Service process returning the finish tick for a dispatch. */
    using Service = std::function<Tick(Tick start)>;
    /** Staged service: complete(finish, status) must be called exactly
     *  once, at a tick >= start, from an event on the same queue. */
    using StagedService =
        std::function<void(EventQueue &eq, Tick start, IoCompletion complete)>;
    /**
     * Fallible service attempt: runs the service-time math for attempt
     * number @p attempt (1-based) starting at @p start and reports the
     * finish tick plus whether the attempt succeeded. The channel's
     * RetryPolicy decides what a non-Ok outcome turns into.
     */
    using FallibleService =
        std::function<IoOutcome(Tick start, unsigned attempt)>;

    /** @param depth maximum requests in service at once (>= 1) */
    StorageChannel(std::string name, unsigned depth);

    /** Install the retry/timeout policy for fallible submissions. */
    void setRetryPolicy(const RetryPolicy &policy);
    const RetryPolicy &retryPolicy() const { return retry_; }

    /** Select which pending request dispatches when a slot frees.
     *  Fifo (the default) reproduces the historical arrival order. */
    void setDispatchPolicy(DispatchPolicy policy) { policy_ = policy; }
    DispatchPolicy dispatchPolicy() const { return policy_; }

    /** Install admission control at the submit edge; the default
     *  (all-off) control never evaluates the admission check. */
    void setAdmission(const AdmissionControl &admit) { admit_ = admit; }
    const AdmissionControl &admission() const { return admit_; }

    /** Submit a synchronous-service request at eq.now(). @p tag
     *  carries the scheduling metadata (default: untagged/FIFO). */
    void submit(EventQueue &eq, Service service, IoCompletion done,
                const DispatchTag &tag = {});

    /** Submit a staged (self-scheduling) request at eq.now(). */
    void submitStaged(EventQueue &eq, StagedService service,
                      IoCompletion done, const DispatchTag &tag = {});

    /**
     * Submit a request whose service attempts may fail. The channel
     * re-runs the service with exponential backoff (jitter from a
     * per-request RNG fork) until an attempt succeeds, the policy's
     * attempt budget is exhausted (TransientError), or the end-to-end
     * deadline passes (Timeout). The slot is held across retries — a
     * retrying command still occupies its queue entry. A deadline in
     * @p tag steers Deadline dispatch and SLO-aware admission; it does
     * not time the request out (that stays the RetryPolicy's business),
     * so a late request is still answered and its latency recorded.
     */
    void submitFallible(EventQueue &eq, FallibleService service,
                        IoCompletion done, const DispatchTag &tag = {});

    /**
     * Serve one request on an idle channel without an event queue:
     * the dispatch, retry/deadline rules, jitter fork and counters
     * (submitted, completed, peak, retries, timeouts, abandoned, total
     * service) of submitting it at @p arrival and draining the queue,
     * which on an idle channel never queues it. @p service is either
     * a plain service, `Tick(Tick start)` (submit/submitStaged: always
     * Ok, no retry rules), or a fallible attempt, `IoOutcome(Tick
     * start, unsigned attempt)` (submitFallible). A staged service is
     * passed as the plain composition of its stages. The call does not
     * fail on a non-Ok status; the caller decides (requireOk).
     * @pre idle()
     * @return the request's final tick and status
     */
    template <typename Fn>
    IoOutcome serveInline(Tick arrival, Fn &&service);

    /** No request in service and none pending. */
    bool
    idle() const
    {
        return in_flight_ == 0 && pending_.empty();
    }

    unsigned depth() const { return depth_; }

    /** Requests currently in service. */
    unsigned inFlight() const { return in_flight_; }
    /** Requests waiting for a slot. */
    std::size_t queued() const { return pending_.size(); }

    // ---- lifetime counters ----
    std::uint64_t submitted() const { return submitted_; }
    std::uint64_t completed() const { return completed_; }
    /** High-water mark of in-service plus waiting requests. */
    std::uint64_t peakOutstanding() const { return peak_outstanding_; }
    /**
     * Requests dispatched out of the pending queue. Queue-wait stats
     * cover only these: a request dispatched straight into a free slot
     * never queued, and counting its zero wait would drag the mean
     * wait of the requests that did queue toward zero.
     */
    std::uint64_t queuedCount() const { return queued_; }
    /** Total ticks queued requests spent waiting for a slot. */
    Tick totalQueueWait() const { return total_queue_wait_; }
    /** Largest single queue wait. */
    Tick maxQueueWait() const { return max_queue_wait_; }
    /** Sum of completed requests' service intervals (dispatch to
     *  completion, retries and backoff included). */
    Tick totalService() const { return total_service_; }

    // ---- recovery counters (fallible submissions only) ----
    /** Service attempts re-run after a transient failure. */
    std::uint64_t retries() const { return retries_; }
    /** Requests that missed their end-to-end deadline. */
    std::uint64_t timeouts() const { return timeouts_; }
    /** Requests abandoned with the attempt budget exhausted. */
    std::uint64_t abandoned() const { return abandoned_; }
    /** Requests shed by admission control before queueing. */
    std::uint64_t shedAdmission() const { return shed_admission_; }

    const std::string &name() const { return name_; }

    /** Forget all history. @pre idle() — resetting with work in flight
     *  would orphan completions. */
    void reset();

  private:
    struct Pending
    {
        StagedService service;
        IoCompletion done;
        Tick submit;
        DispatchTag tag;
        std::uint64_t seq = 0; //!< arrival order (FIFO tie-break)
    };

    /** Mutable per-request retry bookkeeping. */
    struct RetryState
    {
        FallibleService service;
        Tick deadline; //!< absolute tick; 0 means none
        Rng rng;       //!< per-request jitter stream
    };

    /** @param queued whether @p p waited in the pending queue */
    void dispatch(EventQueue &eq, Pending p, bool queued);
    /** @param start tick the completed request began service */
    void onComplete(EventQueue &eq, Tick finish, Tick start);

    /** Admission verdict for @p tag with every slot busy. Only called
     *  when admission is enabled, so the default path never pays it. */
    bool shouldShed(const EventQueue &eq, const DispatchTag &tag) const;

    /** Index into pending_ of the request the policy dispatches next.
     *  @pre !pending_.empty() */
    std::size_t pickNext() const;

    /** Where one attempt leaves a fallible request. */
    struct AttemptStep
    {
        Tick at;         //!< final tick, or the next attempt's start
        IoStatus status; //!< final status; unused when retrying
        bool retry;      //!< run the next attempt at `at`
    };

    /**
     * The retry rules, shared by the event path (runAttempt) and
     * serveInline: run attempt @p attempt at @p start unless the
     * deadline already passed, then end the request (Ok, late Ok ->
     * Timeout, budget exhausted -> abandoned) or back off into the
     * next attempt, bumping the recovery counters.
     */
    template <typename Attempt>
    AttemptStep
    attemptStep(Tick start, unsigned attempt, Tick deadline, Rng &rng,
                Attempt &service)
    {
        if (deadline != 0 && start > deadline) {
            ++timeouts_;
            return {start, IoStatus::Timeout, false};
        }
        return settleAttempt(start, attempt, service(start, attempt),
                             deadline, rng);
    }

    /** Outcome half of attemptStep. */
    AttemptStep settleAttempt(Tick start, unsigned attempt, IoOutcome out,
                              Tick deadline, Rng &rng);

    /** Run attempt @p attempt of a fallible request at @p start. */
    void runAttempt(EventQueue &eq, Tick start, unsigned attempt,
                    const std::shared_ptr<RetryState> &state,
                    IoCompletion complete);

    /** serveInline's submit/dispatch bookkeeping. @pre idle() */
    void beginInline();
    /** serveInline's completion bookkeeping. */
    void endInline(Tick start, Tick finish);

    /** Backoff before attempt @p next_attempt (exponential, capped). */
    Tick backoffBefore(unsigned next_attempt, Rng &rng) const;

    std::string name_;
    unsigned depth_;
    unsigned in_flight_ = 0;
    std::deque<Pending> pending_;
    RetryPolicy retry_;
    DispatchPolicy policy_ = DispatchPolicy::Fifo;
    AdmissionControl admit_;
    Rng jitter_master_{0x7e77151eedULL}; //!< forked per request

    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t peak_outstanding_ = 0;
    std::uint64_t queued_ = 0;
    Tick total_queue_wait_ = 0;
    Tick max_queue_wait_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t timeouts_ = 0;
    std::uint64_t abandoned_ = 0;
    std::uint64_t shed_admission_ = 0;
    Tick total_service_ = 0; //!< sum of per-dispatch service intervals
};

template <typename Fn>
IoOutcome
StorageChannel::serveInline(Tick arrival, Fn &&service)
{
    if constexpr (std::is_invocable_r_v<IoOutcome, Fn &, Tick, unsigned>) {
        // submitFallible's deadline and jitter fork, taken before
        // beginInline bumps the submission counter.
        Tick deadline =
            retry_.wantsDeadline() ? arrival + retry_.timeout : 0;
        Rng rng = jitter_master_.fork(submitted_);
        beginInline();
        Tick start = arrival;
        for (unsigned attempt = 1;; ++attempt) {
            AttemptStep step =
                attemptStep(start, attempt, deadline, rng, service);
            if (!step.retry) {
                endInline(arrival, step.at);
                return {step.at, step.status};
            }
            start = step.at;
        }
    } else {
        beginInline();
        Tick finish = service(arrival);
        endInline(arrival, finish);
        return {finish, IoStatus::Ok};
    }
}

/**
 * The tick a blocking call returns. A blocking caller has nowhere to
 * report a failed request, so a non-Ok @p out is fatal — @p component
 * and @p request_id identify the offender in the message.
 */
Tick requireOk(IoOutcome out, std::string_view component,
               std::uint64_t request_id);

/**
 * Submit-and-drain helper implementing a blocking call on top of an
 * async submission: schedules @p submit at @p arrival on @p eq (reset
 * first), runs the queue dry, and returns the completion tick the
 * submission reported (requireOk). For decorators whose async port
 * completes through events; a plain channel serves blocking calls
 * with serveInline.
 * @pre eq has no pending events
 */
Tick drainOne(EventQueue &eq, Tick arrival,
              const std::function<void(EventQueue &, IoCompletion)> &submit,
              std::string_view component = "blocking adapter",
              std::uint64_t request_id = 0);

} // namespace smartsage::sim

#endif // SMARTSAGE_SIM_IO_HH
