/** @file Unit tests for the async storage request layer (sim/io.hh):
 *  StorageChannel admission, queue-depth bounding, the submit-and-drain
 *  helper, SsdDevice's inline blocking reads against its async port,
 *  and the async ports of SsdDevice / FlashArray. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/io.hh"
#include "sim/random.hh"
#include "sim/resource.hh"
#include "ssd/ssd_device.hh"

using namespace smartsage;
using namespace smartsage::sim;

namespace
{

/** Channel whose service takes a fixed time on a shared server. */
struct FixedService
{
    Server server{"srv"};
    Tick service_time;

    StorageChannel::Service
    make()
    {
        return [this](Tick start) {
            return server.request(start, service_time).finish;
        };
    }
};

} // namespace

TEST(StorageChannel, ImmediateDispatchWhenIdle)
{
    EventQueue eq;
    StorageChannel ch("ch", 4);
    FixedService svc{Server{"srv"}, 100};

    Tick finish = 0;
    eq.schedule(50, [&] {
        ch.submit(eq, svc.make(), [&](Tick f, IoStatus) { finish = f; });
    });
    eq.run();
    EXPECT_EQ(finish, 150u);
    EXPECT_EQ(ch.submitted(), 1u);
    EXPECT_EQ(ch.completed(), 1u);
    EXPECT_EQ(ch.totalQueueWait(), 0u);
    EXPECT_TRUE(ch.idle());
}

TEST(StorageChannel, DepthBoundsConcurrentService)
{
    // Three same-tick submissions into a depth-2 channel over a pool
    // of two independent servers: the third must wait for a slot.
    EventQueue eq;
    StorageChannel ch("ch", 2);
    ServerPool pool("pool", 2);
    std::vector<Tick> finishes;

    eq.schedule(0, [&] {
        for (int i = 0; i < 3; ++i) {
            ch.submit(
                eq,
                [&pool](Tick start) {
                    return pool.request(start, 100).finish;
                },
                [&](Tick f, IoStatus) { finishes.push_back(f); });
        }
    });
    eq.run();
    ASSERT_EQ(finishes.size(), 3u);
    EXPECT_EQ(finishes[0], 100u);
    EXPECT_EQ(finishes[1], 100u);
    // The third dispatched only at tick 100, despite two free-by-then
    // servers: admission, not service, was the bottleneck.
    EXPECT_EQ(finishes[2], 200u);
    EXPECT_EQ(ch.totalQueueWait(), 100u);
    EXPECT_EQ(ch.maxQueueWait(), 100u);
    EXPECT_EQ(ch.peakOutstanding(), 3u);
}

TEST(StorageChannel, QueueWaitStatsCoverOnlyQueuedRequests)
{
    // Two back-to-back single-request submissions never queue: the
    // wait stats must stay empty rather than recording zero waits,
    // which would silently drag the mean queue wait toward zero.
    EventQueue eq;
    StorageChannel ch("ch", 1);
    Server server("srv");
    auto service = [&server](Tick start) {
        return server.request(start, 100).finish;
    };

    eq.schedule(0, [&] { ch.submit(eq, service, {}); });
    eq.schedule(500, [&] { ch.submit(eq, service, {}); });
    eq.run();
    EXPECT_EQ(ch.submitted(), 2u);
    EXPECT_EQ(ch.queuedCount(), 0u);
    EXPECT_EQ(ch.totalQueueWait(), 0u);

    // Three same-tick submissions into the depth-1 channel: the first
    // dispatches straight into the free slot, the other two queue for
    // 100 and 200 ticks. The corrected mean over *queued* requests is
    // 150; the pre-fix mean over all submissions would read 100.
    eq.reset();
    ch.reset();
    server.reset();
    eq.schedule(0, [&] {
        for (int i = 0; i < 3; ++i)
            ch.submit(eq, service, {});
    });
    eq.run();
    EXPECT_EQ(ch.submitted(), 3u);
    EXPECT_EQ(ch.queuedCount(), 2u);
    EXPECT_EQ(ch.totalQueueWait(), 300u);
    EXPECT_EQ(ch.maxQueueWait(), 200u);
    EXPECT_EQ(static_cast<double>(ch.totalQueueWait()) /
                  static_cast<double>(ch.queuedCount()),
              150.0);

    ch.reset();
    EXPECT_EQ(ch.queuedCount(), 0u);
}

TEST(StorageChannel, PendingRequestsDispatchInFifoOrder)
{
    EventQueue eq;
    StorageChannel ch("ch", 1);
    Server server("srv");
    std::vector<int> order;

    eq.schedule(0, [&] {
        for (int i = 0; i < 4; ++i) {
            ch.submit(
                eq,
                [&server](Tick start) {
                    return server.request(start, 10).finish;
                },
                [&order, i](Tick, IoStatus) { order.push_back(i); });
        }
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(ch.completed(), 4u);
}

TEST(StorageChannel, WiderQueueNeverIncreasesWait)
{
    auto runAt = [](unsigned depth) {
        EventQueue eq;
        StorageChannel ch("ch", depth);
        ServerPool pool("pool", 4);
        for (int i = 0; i < 16; ++i) {
            eq.schedule(static_cast<Tick>(i), [&ch, &eq, &pool] {
                ch.submit(
                    eq,
                    [&pool](Tick start) {
                        return pool.request(start, 50).finish;
                    },
                    {});
            });
        }
        eq.run();
        return ch.totalQueueWait();
    };
    Tick narrow = runAt(1);
    Tick wide = runAt(8);
    EXPECT_GT(narrow, 0u);
    EXPECT_LT(wide, narrow);
}

TEST(StorageChannel, StagedServiceHoldsTheSlotUntilCompletion)
{
    EventQueue eq;
    StorageChannel ch("ch", 1);
    std::vector<Tick> finishes;

    auto staged = [](EventQueue &q, Tick start, IoCompletion complete) {
        // Two-stage service: 30 ticks, then 20 more.
        q.schedule(start + 30, [&q, complete = std::move(complete)] {
            Tick mid = q.now();
            q.schedule(mid + 20, [complete = std::move(complete), mid] {
                complete(mid + 20, IoStatus::Ok);
            });
        });
    };
    eq.schedule(0, [&] {
        ch.submitStaged(eq, staged,
                        [&](Tick f, IoStatus) { finishes.push_back(f); });
        ch.submitStaged(eq, staged,
                        [&](Tick f, IoStatus) { finishes.push_back(f); });
    });
    eq.run();
    ASSERT_EQ(finishes.size(), 2u);
    EXPECT_EQ(finishes[0], 50u);
    EXPECT_EQ(finishes[1], 100u); // waited for the full staged service
}

TEST(DrainOne, ReturnsTheCompletionTick)
{
    EventQueue eq;
    StorageChannel ch("ch", 2);
    Server server("srv");
    Tick t = drainOne(eq, 500, [&](EventQueue &q, IoCompletion done) {
        ch.submit(
            q,
            [&server](Tick start) {
                return server.request(start, 25).finish;
            },
            std::move(done));
    });
    EXPECT_EQ(t, 525u);
    // The drain queue is reusable for a later, earlier-tick arrival.
    Tick t2 = drainOne(eq, 100, [&](EventQueue &q, IoCompletion done) {
        ch.submit(
            q,
            [&server](Tick start) {
                return server.request(start, 25).finish;
            },
            std::move(done));
    });
    EXPECT_EQ(t2, 550u); // server busy until 525, then 25 of service
}

TEST(SsdAsync, BlockingAdapterMatchesSingleAsyncSubmission)
{
    ssd::SsdConfig cfg;
    ssd::SsdDevice blocking_dev(cfg);
    ssd::SsdDevice async_dev(cfg);

    Tick blocking = blocking_dev.readBlocks(1000, 4096, 8192);

    EventQueue eq;
    Tick async = 0;
    eq.schedule(1000, [&] {
        async_dev.submitRead(eq, 4096, 8192,
                             [&](Tick f, IoStatus) { async = f; });
    });
    eq.run();
    EXPECT_EQ(async, blocking);
    EXPECT_EQ(async_dev.hostReads(), blocking_dev.hostReads());
    EXPECT_EQ(async_dev.bytesToHost(), blocking_dev.bytesToHost());
}

TEST(SsdAsync, InlineReadsMatchTheStagedPathCounterForCounter)
{
    // readBlocks serves inline through the same three stages the
    // event-driven submitRead schedules; a run of overlapping,
    // unaligned, multi-page reads must leave both devices identical.
    ssd::SsdConfig cfg;
    cfg.page_buffer_bytes = sim::KiB(256);
    ssd::SsdDevice blocking_dev(cfg), async_dev(cfg);
    Rng rng(0x55d);
    Tick arrival = 0;
    for (int i = 0; i < 64; ++i) {
        std::uint64_t addr = rng.nextBounded(sim::MiB(4));
        std::uint64_t bytes = 1 + rng.nextBounded(sim::KiB(40));
        Tick blocking = blocking_dev.readBlocks(arrival, addr, bytes);
        EventQueue eq;
        Tick async = 0;
        eq.schedule(arrival, [&] {
            async_dev.submitRead(eq, addr, bytes,
                                 [&](Tick f, IoStatus) { async = f; });
        });
        eq.run();
        ASSERT_EQ(blocking, async) << "read " << i;
        arrival += rng.nextBounded(us(40)); // often still busy inside
    }
    const StorageChannel &a = blocking_dev.nvmeQueue();
    const StorageChannel &b = async_dev.nvmeQueue();
    EXPECT_EQ(a.submitted(), b.submitted());
    EXPECT_EQ(a.completed(), b.completed());
    EXPECT_EQ(a.peakOutstanding(), b.peakOutstanding());
    EXPECT_EQ(a.totalService(), b.totalService());
    EXPECT_EQ(blocking_dev.hostReads(), async_dev.hostReads());
    EXPECT_EQ(blocking_dev.bytesToHost(), async_dev.bytesToHost());
    EXPECT_EQ(blocking_dev.pageBuffer().hitRate(),
              async_dev.pageBuffer().hitRate());
    EXPECT_EQ(blocking_dev.flashArray().pagesRead(),
              async_dev.flashArray().pagesRead());
}

TEST(SsdAsync, ConcurrentReadsOverlapInsideTheDevice)
{
    // Eight same-tick single-block reads: async in-flight service
    // must beat the serialized blocking sequence, because flash pages
    // on distinct dies overlap while the blocking path drains each
    // command before submitting the next.
    ssd::SsdConfig cfg;
    ssd::SsdDevice serial_dev(cfg);
    ssd::SsdDevice async_dev(cfg);

    Tick serial = 0;
    for (int i = 0; i < 8; ++i)
        serial = serial_dev.readBlocks(serial, i * sim::KiB(64), 4096);

    EventQueue eq;
    Tick last = 0;
    eq.schedule(0, [&] {
        for (int i = 0; i < 8; ++i) {
            async_dev.submitRead(eq, i * sim::KiB(64), 4096,
                                 [&](Tick f, IoStatus) {
                                     last = std::max(last, f);
                                 });
        }
    });
    eq.run();
    EXPECT_GT(last, 0u);
    EXPECT_LT(last, serial);
}

TEST(SsdAsync, NarrowNvmeQueueSerializes)
{
    ssd::SsdConfig cfg;
    cfg.queue_depth = 1;
    ssd::SsdDevice dev(cfg);

    EventQueue eq;
    eq.schedule(0, [&] {
        for (int i = 0; i < 4; ++i)
            dev.submitRead(eq, i * sim::MiB(1), 4096, {});
    });
    eq.run();
    EXPECT_EQ(dev.nvmeQueue().completed(), 4u);
    // Three of the four commands had to wait for the single SQ slot.
    EXPECT_GT(dev.nvmeQueue().totalQueueWait(), 0u);
    EXPECT_EQ(dev.nvmeQueue().peakOutstanding(), 4u);
}

TEST(FlashAsync, ChannelQueueBoundsPageReads)
{
    flash::FlashConfig cfg;
    cfg.channels = 2;
    cfg.dies_per_channel = 2;
    cfg.channel_queue_depth = 1;
    flash::FlashArray flash(cfg);

    EventQueue eq;
    std::vector<Tick> finishes;
    eq.schedule(0, [&] {
        // Four reads on channel 0, alternating dies: with a depth-1
        // command queue the second die read cannot start early even
        // though its die is free.
        for (unsigned i = 0; i < 4; ++i) {
            flash.submitRead(eq, {0, i % 2, i},
                             [&](Tick f, IoStatus) { finishes.push_back(f); });
        }
    });
    eq.run();
    ASSERT_EQ(finishes.size(), 4u);
    EXPECT_GT(flash.channelQueue(0).totalQueueWait(), 0u);
    EXPECT_EQ(flash.pagesRead(), 4u);

    // The same reads through a deep queue finish strictly earlier.
    flash::FlashConfig deep_cfg = cfg;
    deep_cfg.channel_queue_depth = 8;
    flash::FlashArray deep(deep_cfg);
    EventQueue eq2;
    Tick deep_last = 0;
    eq2.schedule(0, [&] {
        for (unsigned i = 0; i < 4; ++i) {
            deep.submitRead(eq2, {0, i % 2, i}, [&](Tick f, IoStatus) {
                deep_last = std::max(deep_last, f);
            });
        }
    });
    eq2.run();
    EXPECT_LT(deep_last, finishes.back());
}
