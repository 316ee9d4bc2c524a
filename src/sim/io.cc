#include "io.hh"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "logging.hh"

namespace smartsage::sim
{

const char *
ioStatusName(IoStatus status)
{
    switch (status) {
      case IoStatus::Ok:
        return "ok";
      case IoStatus::TransientError:
        return "transient-error";
      case IoStatus::Timeout:
        return "timeout";
      case IoStatus::Shed:
        return "shed";
    }
    return "unknown";
}

const char *
dispatchPolicyName(DispatchPolicy policy)
{
    switch (policy) {
      case DispatchPolicy::Fifo:
        return "fifo";
      case DispatchPolicy::Priority:
        return "priority";
      case DispatchPolicy::Deadline:
        return "edf";
    }
    return "unknown";
}

bool
applyKnob(SchedConfig &config, std::string_view key, double value)
{
    if (key == "policy") {
        if (value != 0.0 && value != 1.0 && value != 2.0)
            SS_FATAL("sched.policy must be 0 (fifo), 1 (priority), or "
                     "2 (edf), got ", value);
        config.policy = static_cast<DispatchPolicy>(
            static_cast<std::uint8_t>(value));
        return true;
    }
    return false;
}

bool
applyKnob(AdmissionControl &admit, std::string_view key, double value)
{
    if (key == "max_queue") {
        if (value < 0)
            SS_FATAL("admit.max_queue must be >= 0, got ", value);
        admit.max_queue = static_cast<std::size_t>(value);
    } else if (key == "slo_aware") {
        admit.slo_aware = value != 0;
    } else {
        return false;
    }
    return true;
}

StorageChannel::StorageChannel(std::string name, unsigned depth)
    : name_(std::move(name)), depth_(depth)
{
    SS_ASSERT(depth >= 1, "channel '", name_,
              "' needs a queue depth of at least 1");
}

void
StorageChannel::setRetryPolicy(const RetryPolicy &policy)
{
    validate(policy);
    retry_ = policy;
}

void
StorageChannel::submit(EventQueue &eq, Service service, IoCompletion done,
                       const DispatchTag &tag)
{
    // Wrap the synchronous service as a one-event staged service: the
    // finish tick is known at dispatch; the slot is released (and the
    // completion delivered) by an event at that tick.
    submitStaged(
        eq,
        [service = std::move(service)](EventQueue &q, Tick start,
                                       IoCompletion complete) {
            Tick finish = service(start);
            SS_ASSERT(finish >= start, "service finished at ", finish,
                      " before it started at ", start);
            q.schedule(finish, [complete = std::move(complete), finish] {
                complete(finish, IoStatus::Ok);
            });
        },
        std::move(done), tag);
}

void
StorageChannel::submitFallible(EventQueue &eq, FallibleService service,
                               IoCompletion done, const DispatchTag &tag)
{
    // Fork the jitter stream by submission index *before* submitStaged
    // bumps the counter; forking never advances the master, so the
    // stream a request sees depends only on its arrival order.
    auto state = std::make_shared<RetryState>(RetryState{
        std::move(service),
        retry_.wantsDeadline() ? eq.now() + retry_.timeout : 0,
        jitter_master_.fork(submitted_)});
    submitStaged(
        eq,
        [this, state](EventQueue &q, Tick start, IoCompletion complete) {
            runAttempt(q, start, 1, state, std::move(complete));
        },
        std::move(done), tag);
}

Tick
StorageChannel::backoffBefore(unsigned next_attempt, Rng &rng) const
{
    // Attempt 2 waits backoff_base, each further attempt doubles it up
    // to the cap (shift saturates well past any sane attempt budget).
    unsigned shift = next_attempt - 2;
    Tick backoff = retry_.backoff_cap;
    if (shift < 63) {
        Tick grown = retry_.backoff_base << shift;
        if (grown >> shift == retry_.backoff_base)
            backoff = std::min(retry_.backoff_cap, grown);
    }
    // Zero jitter makes no draw, so jitter-free goldens consume no
    // stream and stay exact.
    if (retry_.jitter > 0.0) {
        backoff += static_cast<Tick>(static_cast<double>(backoff) *
                                     retry_.jitter * rng.nextDouble());
    }
    return backoff;
}

StorageChannel::AttemptStep
StorageChannel::settleAttempt(Tick start, unsigned attempt, IoOutcome out,
                              Tick deadline, Rng &rng)
{
    SS_ASSERT(out.finish >= start, "attempt ", attempt, " on channel '",
              name_, "' finished at ", out.finish,
              " before it started at ", start);

    if (out.status == IoStatus::Ok) {
        if (deadline != 0 && out.finish > deadline) {
            ++timeouts_;
            return {out.finish, IoStatus::Timeout, false};
        }
        return {out.finish, IoStatus::Ok, false};
    }

    if (attempt >= retry_.max_attempts) {
        ++abandoned_;
        return {out.finish, out.status, false};
    }

    // Budget remains: back off, then re-run the service. The check
    // above keeps exhausted requests from drawing jitter they will
    // never use.
    Tick next = out.finish + backoffBefore(attempt + 1, rng);
    if (deadline != 0 && next > deadline) {
        ++timeouts_;
        return {out.finish, IoStatus::Timeout, false};
    }
    ++retries_;
    return {next, IoStatus::Ok, true};
}

void
StorageChannel::runAttempt(EventQueue &eq, Tick start, unsigned attempt,
                           const std::shared_ptr<RetryState> &state,
                           IoCompletion complete)
{
    // The deadline can pass while the request waits for a slot or sits
    // in backoff; attemptStep times it out without burning another
    // service attempt.
    AttemptStep step = attemptStep(start, attempt, state->deadline,
                                   state->rng, state->service);
    if (!step.retry) {
        eq.schedule(step.at, [c = std::move(complete), step] {
            c(step.at, step.status);
        });
        return;
    }
    eq.schedule(step.at, [this, &eq, next = step.at, attempt, state,
                          complete = std::move(complete)]() mutable {
        runAttempt(eq, next, attempt + 1, state, std::move(complete));
    });
}

void
StorageChannel::beginInline()
{
    SS_ASSERT(idle(), "inline request on channel '", name_, "' with ",
              in_flight_, " in service and ", pending_.size(),
              " pending: a blocking call needs an idle channel");
    ++submitted_;
    peak_outstanding_ = std::max<std::uint64_t>(peak_outstanding_, 1);
    ++in_flight_;
}

void
StorageChannel::endInline(Tick start, Tick finish)
{
    SS_ASSERT(finish >= start, "service on channel '", name_,
              "' finished at ", finish, " before it started at ", start);
    --in_flight_;
    ++completed_;
    total_service_ += finish - start;
}

bool
StorageChannel::shouldShed(const EventQueue &eq,
                           const DispatchTag &tag) const
{
    if (admit_.max_queue != 0 && pending_.size() >= admit_.max_queue)
        return true;
    if (admit_.slo_aware && tag.deadline != 0) {
        if (eq.now() > tag.deadline)
            return true;
        if (completed_ == 0)
            return false; // no service history to estimate from yet
        // Deterministic completion estimate: the work ahead of this
        // request drains in waves of `depth_` requests, each wave one
        // mean service time long. Under Fifo the whole queue is ahead;
        // under Priority/Deadline only the pending requests the
        // dispatch comparator would pick first count, so a tagged
        // request is not shed for a backlog it will jump past.
        std::size_t ahead = pending_.size();
        if (policy_ == DispatchPolicy::Priority) {
            ahead = 0;
            for (const Pending &p : pending_)
                if (p.tag.priority >= tag.priority)
                    ++ahead;
        } else if (policy_ == DispatchPolicy::Deadline) {
            ahead = 0;
            for (const Pending &p : pending_)
                if (p.tag.deadline != 0 && p.tag.deadline <= tag.deadline)
                    ++ahead;
        }
        Tick mean_service = total_service_ / completed_;
        Tick waves = static_cast<Tick>(ahead / depth_ + 1);
        Tick estimated_finish =
            eq.now() + mean_service * waves + mean_service;
        return estimated_finish > tag.deadline;
    }
    return false;
}

void
StorageChannel::submitStaged(EventQueue &eq, StagedService service,
                             IoCompletion done, const DispatchTag &tag)
{
    ++submitted_;
    // Admission control runs only with every slot busy and a rule
    // enabled, so the default (admission-off) submit path is untouched.
    if (in_flight_ >= depth_ && admit_.enabled() && shouldShed(eq, tag)) {
        ++shed_admission_;
        Tick now = eq.now();
        if (done) {
            eq.schedule(now, [done = std::move(done), now] {
                done(now, IoStatus::Shed);
            });
        }
        return;
    }
    peak_outstanding_ = std::max<std::uint64_t>(
        peak_outstanding_, in_flight_ + pending_.size() + 1);
    Pending p{std::move(service), std::move(done), eq.now(), tag,
              submitted_};
    if (in_flight_ < depth_) {
        dispatch(eq, std::move(p), /*queued=*/false);
    } else {
        pending_.push_back(std::move(p));
    }
}

void
StorageChannel::dispatch(EventQueue &eq, Pending p, bool queued)
{
    ++in_flight_;
    Tick start = eq.now();
    // Wait stats cover only requests that actually sat in the pending
    // queue; sync completions dispatched straight into a free slot
    // would otherwise skew the mean queue wait toward zero.
    if (queued) {
        Tick wait = start - p.submit;
        ++queued_;
        total_queue_wait_ += wait;
        max_queue_wait_ = std::max(max_queue_wait_, wait);
    }

    // The staged service owns its own event scheduling; the channel
    // only hears back through this wrapper, which frees the slot and
    // pulls the next pending request forward at the completion tick.
    auto service = std::move(p.service);
    service(eq, start,
            [this, &eq, start, done = std::move(p.done)](Tick finish,
                                                         IoStatus status) {
                onComplete(eq, finish, start);
                if (done)
                    done(finish, status);
            });
}

std::size_t
StorageChannel::pickNext() const
{
    // Effective deadline: 0 means "none", which must sort last under
    // Deadline and break priority ties last under Priority.
    auto effective = [](Tick deadline) {
        return deadline == 0 ? ~Tick{0} : deadline;
    };
    // Strict "is a better pick": iterating front-to-back and replacing
    // only on a strict win makes the earliest arrival (lowest seq) the
    // final tie-break for free.
    auto better = [&](const Pending &a, const Pending &b) {
        if (policy_ == DispatchPolicy::Priority) {
            if (a.tag.priority != b.tag.priority)
                return a.tag.priority > b.tag.priority;
            return effective(a.tag.deadline) < effective(b.tag.deadline);
        }
        if (effective(a.tag.deadline) != effective(b.tag.deadline))
            return effective(a.tag.deadline) < effective(b.tag.deadline);
        return a.tag.priority > b.tag.priority;
    };
    std::size_t best = 0;
    for (std::size_t i = 1; i < pending_.size(); ++i)
        if (better(pending_[i], pending_[best]))
            best = i;
    return best;
}

void
StorageChannel::onComplete(EventQueue &eq, Tick finish, Tick start)
{
    SS_ASSERT(in_flight_ > 0, "channel '", name_,
              "' completed with nothing in flight");
    --in_flight_;
    ++completed_;
    total_service_ += finish - start;
    if (!pending_.empty() && in_flight_ < depth_) {
        // Fifo keeps the exact historical pop_front; the other
        // policies select by tag (and degenerate to the same choice
        // when every tag is default).
        std::size_t idx =
            policy_ == DispatchPolicy::Fifo ? 0 : pickNext();
        Pending next = std::move(pending_[idx]);
        pending_.erase(pending_.begin() +
                       static_cast<std::ptrdiff_t>(idx));
        dispatch(eq, std::move(next), /*queued=*/true);
    }
}

void
StorageChannel::reset()
{
    SS_ASSERT(idle(), "channel '", name_,
              "' reset with requests outstanding");
    submitted_ = 0;
    completed_ = 0;
    peak_outstanding_ = 0;
    queued_ = 0;
    total_queue_wait_ = 0;
    max_queue_wait_ = 0;
    retries_ = 0;
    timeouts_ = 0;
    abandoned_ = 0;
    shed_admission_ = 0;
    total_service_ = 0;
}

Tick
requireOk(IoOutcome out, std::string_view component,
          std::uint64_t request_id)
{
    if (out.status != IoStatus::Ok) {
        // A blocking caller would read whatever is in its buffer; die
        // loudly instead of returning stale bytes.
        SS_FATAL("blocking read on '", component, "' failed with status ",
                 ioStatusName(out.status), " (request ", request_id,
                 "): recovery requires the async submit path");
    }
    return out.finish;
}

Tick
drainOne(EventQueue &eq, Tick arrival,
         const std::function<void(EventQueue &, IoCompletion)> &submit,
         std::string_view component, std::uint64_t request_id)
{
    SS_ASSERT(eq.pending() == 0,
              "blocking adapter needs an empty event queue");
    eq.reset();
    Tick result = 0;
    IoStatus status = IoStatus::Ok;
    bool completed = false;
    eq.schedule(arrival, [&] {
        submit(eq, [&](Tick finish, IoStatus s) {
            result = finish;
            status = s;
            completed = true;
        });
    });
    eq.run();
    SS_ASSERT(completed, "blocking adapter drained without a completion");
    return requireOk({result, status}, component, request_id);
}

} // namespace smartsage::sim
