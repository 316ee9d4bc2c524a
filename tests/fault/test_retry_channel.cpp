/** @file StorageChannel recovery goldens: exponential backoff with
 *  zero jitter is tick-exact, deadlines convert retries into timeouts,
 *  exhausted budgets abandon with TransientError, a retrying request
 *  holds its queue slot, serveInline on an idle channel matches the
 *  event path tick for tick and counter for counter, and the blocking
 *  adapters die loudly on a failed request (there is nowhere to report
 *  one). Label `fault`. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "host/feature_cache.hh"
#include "host/io_path.hh"
#include "sim/event_queue.hh"
#include "sim/io.hh"
#include "sim/resource.hh"

using namespace smartsage;
using namespace smartsage::sim;

namespace
{

/**
 * Scripted fallible service: attempt i returns script[i - 1] after a
 * fixed service time, recording each attempt's start tick.
 */
struct ScriptedService
{
    std::vector<IoStatus> script;
    Tick service_time = us(10);
    std::vector<Tick> starts;

    StorageChannel::FallibleService
    make()
    {
        return [this](Tick start, unsigned attempt) {
            starts.push_back(start);
            IoStatus status = attempt <= script.size()
                                  ? script[attempt - 1]
                                  : IoStatus::Ok;
            return IoOutcome{start + service_time, status};
        };
    }
};

/** Zero-jitter policy so backoff goldens are tick-exact. */
RetryPolicy
exactPolicy(unsigned attempts, Tick base = us(100), Tick cap = ms(10))
{
    RetryPolicy p;
    p.max_attempts = attempts;
    p.backoff_base = base;
    p.backoff_cap = cap;
    p.jitter = 0.0;
    return p;
}

/** Every lifetime and recovery counter a channel exposes. */
struct ChannelCounters
{
    std::uint64_t submitted, completed, peak, queued;
    Tick queue_wait, max_queue_wait;
    std::uint64_t retries, timeouts, abandoned, shed;
    Tick service;

    bool operator==(const ChannelCounters &) const = default;
};

ChannelCounters
countersOf(const StorageChannel &ch)
{
    return {ch.submitted(),   ch.completed(),     ch.peakOutstanding(),
            ch.queuedCount(), ch.totalQueueWait(), ch.maxQueueWait(),
            ch.retries(),     ch.timeouts(),      ch.abandoned(),
            ch.shedAdmission(), ch.totalService()};
}

void
expectSameCounters(const StorageChannel &a, const StorageChannel &b)
{
    ChannelCounters ca = countersOf(a), cb = countersOf(b);
    EXPECT_EQ(ca.submitted, cb.submitted);
    EXPECT_EQ(ca.completed, cb.completed);
    EXPECT_EQ(ca.peak, cb.peak);
    EXPECT_EQ(ca.retries, cb.retries);
    EXPECT_EQ(ca.timeouts, cb.timeouts);
    EXPECT_EQ(ca.abandoned, cb.abandoned);
    EXPECT_EQ(ca.service, cb.service);
    EXPECT_TRUE(ca == cb);
}

/**
 * Serve the same scripted requests one after another on twin
 * channels: through submitFallible plus a drained event queue on one,
 * through serveInline on the other. Each request arrives @p gap after
 * the previous one finished. Every finish tick, status, attempt start
 * and counter must agree. @return the statuses, in order
 */
std::vector<IoStatus>
expectInlineMatchesEvents(const RetryPolicy &policy,
                          const std::vector<std::vector<IoStatus>> &scripts,
                          Tick gap = us(3))
{
    StorageChannel evented("twin", 2), inlined("twin", 2);
    evented.setRetryPolicy(policy);
    inlined.setRetryPolicy(policy);
    std::vector<IoStatus> statuses;
    Tick arrival = us(1);
    for (const auto &script : scripts) {
        ScriptedService ev_svc{script}, in_svc{script};
        EventQueue eq;
        IoOutcome ev{0, IoStatus::Ok};
        bool completed = false;
        eq.schedule(arrival, [&] {
            evented.submitFallible(eq, ev_svc.make(),
                                   [&](Tick f, IoStatus s) {
                                       ev = {f, s};
                                       completed = true;
                                   });
        });
        eq.run();
        IoOutcome in = inlined.serveInline(arrival, in_svc.make());

        EXPECT_TRUE(completed);
        EXPECT_EQ(in.finish, ev.finish);
        EXPECT_EQ(in.status, ev.status);
        EXPECT_EQ(in_svc.starts, ev_svc.starts);
        expectSameCounters(inlined, evented);
        EXPECT_TRUE(inlined.idle());
        statuses.push_back(in.status);
        arrival = in.finish + gap;
    }
    return statuses;
}

} // namespace

TEST(RetryChannel, FallibleDefaultsMatchPlainSubmit)
{
    // An always-Ok fallible submission under the default policy must
    // reproduce the plain submit() event pattern exactly — this is the
    // channel-level half of the fault-free byte-identity guarantee.
    EventQueue eq;
    StorageChannel plain("plain", 2), fallible("fallible", 2);
    Tick t_plain = 0, t_fallible = 0;
    eq.schedule(50, [&] {
        plain.submit(
            eq, [](Tick start) { return start + us(10); },
            [&](Tick f, IoStatus s) {
                t_plain = f;
                EXPECT_EQ(s, IoStatus::Ok);
            });
        fallible.submitFallible(
            eq,
            [](Tick start, unsigned) {
                return IoOutcome{start + us(10), IoStatus::Ok};
            },
            [&](Tick f, IoStatus s) {
                t_fallible = f;
                EXPECT_EQ(s, IoStatus::Ok);
            });
    });
    eq.run();
    EXPECT_EQ(t_plain, 50 + us(10));
    EXPECT_EQ(t_fallible, t_plain);
    EXPECT_EQ(fallible.retries(), 0u);
    EXPECT_EQ(fallible.timeouts(), 0u);
    EXPECT_EQ(fallible.abandoned(), 0u);
}

TEST(RetryChannel, ExponentialBackoffGoldenWithZeroJitter)
{
    EventQueue eq;
    StorageChannel ch("ch", 4);
    ch.setRetryPolicy(exactPolicy(3));
    ScriptedService svc{{IoStatus::TransientError,
                         IoStatus::TransientError, IoStatus::Ok}};

    Tick finish = 0;
    IoStatus status = IoStatus::TransientError;
    eq.schedule(0, [&] {
        ch.submitFallible(eq, svc.make(), [&](Tick f, IoStatus s) {
            finish = f;
            status = s;
        });
    });
    eq.run();

    // Attempt 1 at 0, attempt 2 after base backoff, attempt 3 after
    // the doubled backoff: 0, 10+100, 120+200 (all microseconds).
    ASSERT_EQ(svc.starts.size(), 3u);
    EXPECT_EQ(svc.starts[0], us(0));
    EXPECT_EQ(svc.starts[1], us(110));
    EXPECT_EQ(svc.starts[2], us(320));
    EXPECT_EQ(finish, us(330));
    EXPECT_EQ(status, IoStatus::Ok);
    EXPECT_EQ(ch.retries(), 2u);
    EXPECT_EQ(ch.abandoned(), 0u);
}

TEST(RetryChannel, BackoffSaturatesAtTheCap)
{
    EventQueue eq;
    StorageChannel ch("ch", 4);
    ch.setRetryPolicy(exactPolicy(3, us(100), us(150)));
    ScriptedService svc{{IoStatus::TransientError,
                         IoStatus::TransientError, IoStatus::Ok}};
    eq.schedule(0, [&] { ch.submitFallible(eq, svc.make(), {}); });
    eq.run();
    // The doubled backoff (200 us) clips to the 150 us cap.
    ASSERT_EQ(svc.starts.size(), 3u);
    EXPECT_EQ(svc.starts[1], us(110));
    EXPECT_EQ(svc.starts[2], us(120) + us(150));
}

TEST(RetryChannel, ExhaustedBudgetAbandonsWithTransientError)
{
    EventQueue eq;
    StorageChannel ch("ch", 4);
    ch.setRetryPolicy(exactPolicy(2));
    ScriptedService svc{{IoStatus::TransientError,
                         IoStatus::TransientError}};
    Tick finish = 0;
    IoStatus status = IoStatus::Ok;
    eq.schedule(0, [&] {
        ch.submitFallible(eq, svc.make(), [&](Tick f, IoStatus s) {
            finish = f;
            status = s;
        });
    });
    eq.run();
    EXPECT_EQ(finish, us(120)); // second attempt's finish tick
    EXPECT_EQ(status, IoStatus::TransientError);
    EXPECT_EQ(ch.retries(), 1u);
    EXPECT_EQ(ch.abandoned(), 1u);
    EXPECT_EQ(ch.timeouts(), 0u);
    EXPECT_TRUE(ch.idle());
}

TEST(RetryChannel, DeadlinePassedAtCompletionTimesOut)
{
    EventQueue eq;
    StorageChannel ch("ch", 4);
    RetryPolicy p = exactPolicy(3);
    p.timeout = us(5); // service takes 10 us: Ok arrives too late
    ch.setRetryPolicy(p);
    ScriptedService svc{{IoStatus::Ok}};
    IoStatus status = IoStatus::Ok;
    eq.schedule(0, [&] {
        ch.submitFallible(eq, svc.make(),
                          [&](Tick, IoStatus s) { status = s; });
    });
    eq.run();
    EXPECT_EQ(status, IoStatus::Timeout);
    EXPECT_EQ(ch.timeouts(), 1u);
}

TEST(RetryChannel, BackoffOvershootingTheDeadlineTimesOut)
{
    EventQueue eq;
    StorageChannel ch("ch", 4);
    RetryPolicy p = exactPolicy(3);
    p.timeout = us(50); // attempt 2 would start at 110 us
    ch.setRetryPolicy(p);
    ScriptedService svc{{IoStatus::TransientError}};
    IoStatus status = IoStatus::Ok;
    Tick finish = 0;
    eq.schedule(0, [&] {
        ch.submitFallible(eq, svc.make(), [&](Tick f, IoStatus s) {
            finish = f;
            status = s;
        });
    });
    eq.run();
    // No second attempt is made and no retry is counted: the budget
    // was there but the deadline was not.
    EXPECT_EQ(svc.starts.size(), 1u);
    EXPECT_EQ(status, IoStatus::Timeout);
    EXPECT_EQ(finish, us(10));
    EXPECT_EQ(ch.retries(), 0u);
    EXPECT_EQ(ch.timeouts(), 1u);
}

TEST(RetryChannel, DeadlinePassedWhileQueuedSkipsTheServiceAttempt)
{
    // A depth-1 channel busy until 100 us; the queued request's 5 us
    // deadline passes while it waits, so dispatch must time it out
    // without burning a service attempt.
    EventQueue eq;
    StorageChannel ch("ch", 1);
    RetryPolicy p = exactPolicy(3);
    p.timeout = us(5);
    ch.setRetryPolicy(p);
    ScriptedService starved{{IoStatus::Ok}};
    IoStatus status = IoStatus::Ok;
    eq.schedule(0, [&] {
        ch.submit(eq, [](Tick start) { return start + us(100); }, {});
        ch.submitFallible(eq, starved.make(),
                          [&](Tick, IoStatus s) { status = s; });
    });
    eq.run();
    EXPECT_TRUE(starved.starts.empty());
    EXPECT_EQ(status, IoStatus::Timeout);
    EXPECT_EQ(ch.timeouts(), 1u);
}

TEST(RetryChannel, RetryingRequestHoldsItsQueueSlot)
{
    // Depth 1: while the first request backs off and retries, the
    // second must wait — a retrying command still occupies its queue
    // entry, exactly like a real SQ slot.
    EventQueue eq;
    StorageChannel ch("ch", 1);
    ch.setRetryPolicy(exactPolicy(3));
    ScriptedService flaky{{IoStatus::TransientError, IoStatus::Ok}};
    Tick first = 0, second = 0;
    eq.schedule(0, [&] {
        ch.submitFallible(eq, flaky.make(),
                          [&](Tick f, IoStatus) { first = f; });
        ch.submitFallible(
            eq,
            [](Tick start, unsigned) {
                return IoOutcome{start + us(10), IoStatus::Ok};
            },
            [&](Tick f, IoStatus) { second = f; });
    });
    eq.run();
    EXPECT_EQ(first, us(120)); // fail at 10, retry at 110, done 120
    EXPECT_EQ(second, us(130)); // dispatched only after the retrier
    EXPECT_EQ(ch.queuedCount(), 1u);
}

TEST(RetryChannel, JitterReplaysAfterReset)
{
    // Jittered backoff draws come from a per-request fork keyed by
    // submission index, so reset() (which rewinds the index) replays
    // the exact same schedule — the property worker-count invariance
    // of the fault-space artifact rests on.
    auto runOnce = [](StorageChannel &ch) {
        EventQueue eq;
        std::vector<Tick> finishes;
        eq.schedule(0, [&] {
            for (int i = 0; i < 8; ++i) {
                ch.submitFallible(
                    eq,
                    [](Tick start, unsigned attempt) {
                        return IoOutcome{start + us(10),
                                         attempt < 3
                                             ? IoStatus::TransientError
                                             : IoStatus::Ok};
                    },
                    [&](Tick f, IoStatus) { finishes.push_back(f); });
            }
        });
        eq.run();
        return finishes;
    };

    StorageChannel ch("ch", 8);
    RetryPolicy p = exactPolicy(4);
    p.jitter = 0.5;
    ch.setRetryPolicy(p);
    std::vector<Tick> first = runOnce(ch);
    ch.reset();
    std::vector<Tick> replay = runOnce(ch);
    ASSERT_EQ(first.size(), 8u);
    EXPECT_EQ(first, replay);

    // And the jitter actually varies across requests: identical
    // scripts must not all land on the same finish tick.
    bool all_equal = true;
    for (const Tick f : first)
        all_equal = all_equal && f == first[0];
    EXPECT_FALSE(all_equal);
}

TEST(InlineChannel, OkMatchesTheEventPath)
{
    auto statuses = expectInlineMatchesEvents(
        RetryPolicy{}, {{IoStatus::Ok}, {IoStatus::Ok}, {IoStatus::Ok}});
    EXPECT_EQ(statuses, std::vector<IoStatus>(3, IoStatus::Ok));
}

TEST(InlineChannel, LateOkTimesOutLikeTheEventPath)
{
    RetryPolicy p = exactPolicy(3);
    p.timeout = us(5); // the 10 us service lands past the deadline
    auto statuses = expectInlineMatchesEvents(p, {{IoStatus::Ok}});
    EXPECT_EQ(statuses[0], IoStatus::Timeout);
}

TEST(InlineChannel, RetriesStarvedPastTheDeadlineTimeOut)
{
    // Attempt 1 fails at 10 us, the retry starts at 110 us (inside the
    // 115 us deadline) and succeeds at 120 us: too late.
    RetryPolicy p = exactPolicy(3);
    p.timeout = us(115);
    auto statuses = expectInlineMatchesEvents(
        p, {{IoStatus::TransientError, IoStatus::Ok}});
    EXPECT_EQ(statuses[0], IoStatus::Timeout);
}

TEST(InlineChannel, ExhaustedBudgetAbandonsLikeTheEventPath)
{
    auto statuses = expectInlineMatchesEvents(
        exactPolicy(2),
        {{IoStatus::TransientError, IoStatus::TransientError},
         {IoStatus::TransientError, IoStatus::Ok}});
    EXPECT_EQ(statuses, (std::vector<IoStatus>{IoStatus::TransientError,
                                               IoStatus::Ok}));
}

TEST(InlineChannel, BackoffPastTheDeadlineTimesOut)
{
    RetryPolicy p = exactPolicy(3);
    p.timeout = us(50); // attempt 2 would start at 110 us
    auto statuses =
        expectInlineMatchesEvents(p, {{IoStatus::TransientError}});
    EXPECT_EQ(statuses[0], IoStatus::Timeout);
}

TEST(InlineChannel, JitterDrawsMatchTheEventPath)
{
    // Jittered backoff forks the stream by submission index: twelve
    // flaky requests must see the same draws on both paths, and the
    // draws must actually differ between requests.
    RetryPolicy p = exactPolicy(4);
    p.jitter = 0.5;
    std::vector<std::vector<IoStatus>> scripts(
        12, {IoStatus::TransientError, IoStatus::TransientError,
             IoStatus::Ok});
    expectInlineMatchesEvents(p, scripts, 0);

    StorageChannel ch("jitter", 1);
    ch.setRetryPolicy(p);
    std::vector<Tick> spans;
    for (const auto &script : scripts) {
        ScriptedService svc{script};
        spans.push_back(ch.serveInline(0, svc.make()).finish);
    }
    bool all_equal = true;
    for (Tick t : spans)
        all_equal = all_equal && t == spans[0];
    EXPECT_FALSE(all_equal);
}

TEST(InlineChannel, PlainServiceMatchesSubmitAndIgnoresTheDeadline)
{
    // submit() never applies the retry rules, so neither may the plain
    // form of serveInline, even with a deadline the service overruns.
    RetryPolicy p = exactPolicy(3);
    p.timeout = us(5);
    StorageChannel evented("plain", 2), inlined("plain", 2);
    evented.setRetryPolicy(p);
    inlined.setRetryPolicy(p);
    Server ev_server("srv"), in_server("srv");
    Tick arrival = 0;
    EventQueue eq;
    for (int i = 0; i < 4; ++i) {
        Tick ev = drainOne(
            eq, arrival,
            [&](EventQueue &q, IoCompletion done) {
                evented.submit(
                    q,
                    [&](Tick start) {
                        return ev_server.request(start, us(10)).finish;
                    },
                    std::move(done));
            });
        IoOutcome in = inlined.serveInline(arrival, [&](Tick start) {
            return in_server.request(start, us(10)).finish;
        });
        EXPECT_EQ(in.finish, ev);
        EXPECT_EQ(in.status, IoStatus::Ok);
        expectSameCounters(inlined, evented);
        arrival += us(4); // overlaps the server's previous request
    }
    EXPECT_EQ(inlined.timeouts(), 0u);
}

TEST(InlineChannel, StagedServiceMatchesSubmitStaged)
{
    // A staged service is served inline as the composition of its
    // stages; the stage side effects run in the same order.
    StorageChannel evented("staged", 1), inlined("staged", 1);
    Server ev_a("a"), ev_b("b"), in_a("a"), in_b("b");
    Tick arrival = us(2);
    for (int i = 0; i < 3; ++i) {
        EventQueue eq;
        Tick ev = drainOne(eq, arrival, [&](EventQueue &q,
                                            IoCompletion done) {
            evented.submitStaged(
                q,
                [&](EventQueue &sq, Tick start, IoCompletion complete) {
                    Tick mid = ev_a.request(start, us(7)).finish;
                    sq.schedule(mid, [&, mid,
                                      complete = std::move(complete)] {
                        Tick end = ev_b.request(mid, us(3)).finish;
                        sq.schedule(end, [complete, end] {
                            complete(end, IoStatus::Ok);
                        });
                    });
                },
                std::move(done));
        });
        IoOutcome in = inlined.serveInline(arrival, [&](Tick start) {
            Tick mid = in_a.request(start, us(7)).finish;
            return in_b.request(mid, us(3)).finish;
        });
        EXPECT_EQ(in.finish, ev);
        expectSameCounters(inlined, evented);
        arrival += us(5);
    }
}

TEST(InlineChannel, BusyChannelPanics)
{
    EventQueue eq;
    StorageChannel ch("busy", 2);
    // Dispatched at once and left in flight: its completion event is
    // never run.
    ch.submit(eq, [](Tick start) { return start + us(10); }, {});
    ASSERT_FALSE(ch.idle());
    EXPECT_DEATH(ch.serveInline(0, [](Tick start) { return start; }),
                 "inline request on channel 'busy'");
}

TEST(BlockingAdapter, DiesOnAFailedRequest)
{
    EventQueue eq;
    StorageChannel ch("ch", 2);
    ch.setRetryPolicy(exactPolicy(1));
    EXPECT_DEATH(
        drainOne(
            eq, 0,
            [&](EventQueue &q, IoCompletion done) {
                ch.submitFallible(
                    q,
                    [](Tick start, unsigned) {
                        return IoOutcome{start + us(10),
                                         IoStatus::TransientError};
                    },
                    std::move(done));
            },
            "test-io", 7),
        "blocking read on 'test-io'.*request 7");
}

TEST(BlockingAdapter, EdgeStoreBlockingReadsNameTheComponent)
{
    // Satellite of the silent-failure fix: the classic blocking calls
    // must surface a non-Ok completion fatally, naming the store, not
    // return a tick as if the data were valid.
    host::HostConfig config;
    config.fault.read_error_rate = 1.0;
    config.retry.max_attempts = 1;
    host::DramEdgeStore store(config);
    EXPECT_DEATH(store.read(0, 0, 8),
                 "blocking read on 'DRAM' failed with status "
                 "transient-error \\(request 0\\)");
    const std::vector<std::uint64_t> addrs{0, 64, 128};
    EXPECT_DEATH(store.readGather(0, addrs, 8), "DRAM.*request 0");

    // The request id is the store channel's submission index: a
    // one-XPLine PMEM read (320 ns) meets a 1 us deadline, a 64-line
    // one does not.
    host::HostConfig pmem_config;
    pmem_config.retry.timeout = us(1);
    host::PmemEdgeStore pmem(pmem_config);
    EXPECT_DEATH(
        {
            pmem.readGather(0, {}, 8); // empty: takes no request id
            pmem.read(0, 0, 8);
            pmem.read(us(5), 0, sim::KiB(16));
        },
        "blocking read on 'PMEM' failed with status timeout "
        "\\(request 1\\)");
}

TEST(BlockingAdapter, FeatureCacheBlockingReadsNameTheDecorator)
{
    // The decorator keeps the drained MSHR port; its failed fills die
    // the same way, naming the decorator and the inner request id.
    host::HostConfig config;
    config.fault.read_error_rate = 1.0;
    config.retry.max_attempts = 1;
    host::FeatureCacheParams params;
    params.capacity_bytes = sim::KiB(64);
    host::FeatureCacheStore cache(
        std::make_unique<host::DramEdgeStore>(config), params);
    const std::vector<std::uint64_t> addrs{0, 64, 128};
    ASSERT_EQ(cache.name(), "DRAM + lru cache");
    EXPECT_DEATH(cache.readGather(0, addrs, 8),
                 "blocking read on 'DRAM \\+ lru cache'.*request 0");
}
