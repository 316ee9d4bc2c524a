/** @file Tests for NSconfig tracing, the ISP engine, and the FPGA CSD. */

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

#include "gnn/sampler.hh"
#include "graph/powerlaw.hh"
#include "isp/fpga_csd.hh"
#include "isp/isp_engine.hh"
#include "sim/event_queue.hh"

using namespace smartsage;
using namespace smartsage::isp;
namespace sim = smartsage::sim;

namespace
{

graph::CsrGraph
testGraph()
{
    graph::PowerLawParams p;
    p.num_nodes = 4096;
    p.avg_degree = 40;
    p.seed = 17;
    return graph::generatePowerLaw(p);
}

IspTraceVisitor
traceBatch(const graph::CsrGraph &g, std::size_t batch,
           std::uint64_t seed = 3)
{
    gnn::SageSampler sampler({10, 5});
    sim::Rng rng(seed);
    auto targets = gnn::selectTargets(g, batch, rng);
    IspTraceVisitor trace;
    sampler.sample(g, targets, rng, &trace);
    return trace;
}

ssd::SsdConfig
testSsd()
{
    ssd::SsdConfig c;
    c.page_buffer_bytes = sim::MiB(1);
    return c;
}

} // namespace

TEST(NsConfig, FormatSizing)
{
    NsConfigFormat f;
    EXPECT_EQ(f.bytesFor(0), f.header_bytes);
    EXPECT_EQ(f.bytesFor(10),
              f.header_bytes + 10 * f.per_target_bytes);
}

TEST(NsConfig, TraceCapturesAllWork)
{
    graph::CsrGraph g = testGraph();
    IspTraceVisitor trace = traceBatch(g, 64);
    EXPECT_EQ(trace.numTargets(), 64u);
    EXPECT_FALSE(trace.work().empty());
    // Entries are attributed to the node that read them.
    for (const auto &w : trace.work()) {
        for (std::uint64_t e : w.entries) {
            EXPECT_GE(e, g.edgeOffset(w.node));
            EXPECT_LT(e, g.edgeOffset(w.node) + g.degree(w.node));
        }
    }
}

TEST(NsConfig, TotalEntriesMatchesSum)
{
    graph::CsrGraph g = testGraph();
    IspTraceVisitor trace = traceBatch(g, 32);
    std::uint64_t sum = 0;
    for (const auto &w : trace.work())
        sum += w.entries.size();
    EXPECT_EQ(trace.totalEntries(), sum);
}

// Entry views point into the trace's own buffer: a copy would alias
// the source's buffer, so only moves are allowed.
static_assert(!std::is_copy_constructible_v<IspTraceVisitor>);
static_assert(!std::is_copy_assignable_v<IspTraceVisitor>);
static_assert(std::is_nothrow_move_constructible_v<IspTraceVisitor>);
static_assert(std::is_nothrow_move_assignable_v<IspTraceVisitor>);

TEST(NsConfig, EntriesSurviveAMove)
{
    graph::CsrGraph g = testGraph();
    IspTraceVisitor trace = traceBatch(g, 64);
    std::vector<std::vector<std::uint64_t>> snapshot;
    std::vector<const std::uint64_t *> views;
    for (const auto &w : trace.work()) {
        snapshot.emplace_back(w.entries.begin(), w.entries.end());
        views.push_back(w.entries.data());
    }
    ASSERT_GT(trace.totalEntries(), 0u);

    IspTraceVisitor moved(std::move(trace));
    IspTraceVisitor assigned = traceBatch(g, 8, 99);
    assigned = std::move(moved);
    ASSERT_EQ(assigned.work().size(), snapshot.size());
    EXPECT_EQ(assigned.numTargets(), 64u);
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
        const auto &entries = assigned.work()[i].entries;
        EXPECT_EQ(entries.data(), views[i]) << "node " << i;
        EXPECT_TRUE(std::equal(entries.begin(), entries.end(),
                               snapshot[i].begin(), snapshot[i].end()))
            << "node " << i;
    }
}

TEST(NsConfig, EntryCountMatchesSampledEdgesForBothSamplers)
{
    graph::CsrGraph g = testGraph();
    gnn::SageSampler sage({10, 5});
    gnn::SaintSampler saint(4);
    for (const gnn::AnySampler *sampler :
         {static_cast<const gnn::AnySampler *>(&sage),
          static_cast<const gnn::AnySampler *>(&saint)}) {
        sim::Rng rng(21);
        auto targets = gnn::selectTargets(g, 128, rng);
        IspTraceVisitor trace;
        gnn::Subgraph sg = sampler->sample(g, targets, rng, &trace);
        std::uint64_t sum = 0;
        for (const auto &w : trace.work())
            sum += w.entries.size();
        EXPECT_GT(sum, 0u);
        EXPECT_EQ(sum, sg.totalSampledEdges());
        EXPECT_EQ(trace.totalEntries(), sum);
    }
}

TEST(IspEngine, InlineGroupsMatchDrainedSubmissions)
{
    // runGroup serves each group inline on the idle command queue; it
    // must match submitGroup plus a drained event queue on a twin
    // engine and device, group by group.
    graph::CsrGraph g = testGraph();
    graph::EdgeLayout layout;
    ssd::SsdDevice ssd_inline(testSsd()), ssd_drained(testSsd());
    IspEngine inlined(IspConfig{}, ssd_inline, layout);
    IspEngine drained(IspConfig{}, ssd_drained, layout);
    IspTraceVisitor trace = traceBatch(g, 256);
    const auto &work = trace.work();
    const std::size_t per_group = 40;

    IspBatchResult r_inline, r_drained;
    sim::Tick arrival = 100;
    for (std::size_t lo = 0; lo < work.size(); lo += per_group) {
        std::size_t n = std::min(per_group, work.size() - lo);
        sim::Tick t_inline =
            inlined.runGroup(work.data() + lo, n, arrival, r_inline);
        sim::EventQueue eq;
        sim::Tick t_drained = 0;
        eq.schedule(arrival, [&] {
            drained.submitGroup(eq, work.data() + lo, n, r_drained,
                                [&](sim::Tick f, sim::IoStatus) {
                                    t_drained = f;
                                });
        });
        eq.run();
        ASSERT_EQ(t_inline, t_drained) << "group at " << lo;
        arrival += sim::us(20); // overlaps the previous group's tail
    }
    EXPECT_EQ(r_inline.commands, r_drained.commands);
    EXPECT_EQ(r_inline.flash_pages, r_drained.flash_pages);
    EXPECT_EQ(r_inline.bytes_to_host, r_drained.bytes_to_host);
    EXPECT_EQ(r_inline.bytes_from_host, r_drained.bytes_from_host);
    const sim::StorageChannel &a = inlined.commandQueue();
    const sim::StorageChannel &b = drained.commandQueue();
    EXPECT_EQ(a.submitted(), b.submitted());
    EXPECT_EQ(a.completed(), b.completed());
    EXPECT_EQ(a.peakOutstanding(), b.peakOutstanding());
    EXPECT_EQ(a.totalService(), b.totalService());
}

TEST(IspEngine, RunBatchProducesConsistentResult)
{
    graph::CsrGraph g = testGraph();
    ssd::SsdDevice ssd(testSsd());
    graph::EdgeLayout layout;
    IspConfig ic;
    IspEngine engine(ic, ssd, layout);

    IspTraceVisitor trace = traceBatch(g, 64);
    IspBatchResult r = engine.runBatch(trace, 1000);

    EXPECT_GT(r.finish, 1000u);
    EXPECT_EQ(r.commands, 1u); // 64 targets < 1024 coalesce
    EXPECT_GT(r.flash_pages, 0u);
    // Dense ID list: entries + per-node headers, 8 B each.
    EXPECT_EQ(r.bytes_to_host,
              (trace.totalEntries() + trace.work().size()) * 8);
    EXPECT_GT(r.bytes_from_host, 0u);
}

TEST(IspEngine, SmallerCoalescingMeansMoreCommands)
{
    graph::CsrGraph g = testGraph();
    graph::EdgeLayout layout;

    ssd::SsdDevice ssd_a(testSsd());
    IspConfig coarse;
    coarse.coalesce_targets = 1024;
    IspBatchResult ra =
        IspEngine(coarse, ssd_a, layout).runBatch(traceBatch(g, 256), 0);

    ssd::SsdDevice ssd_b(testSsd());
    IspConfig fine;
    fine.coalesce_targets = 16;
    IspBatchResult rb =
        IspEngine(fine, ssd_b, layout).runBatch(traceBatch(g, 256), 0);

    EXPECT_EQ(ra.commands, 1u);
    EXPECT_EQ(rb.commands, 16u);
    // Fig 15: command overheads grow as coalescing shrinks.
    EXPECT_GT(rb.bytes_from_host, ra.bytes_from_host);
}

TEST(IspEngine, FinerCoalescingIsSlowerAtGranularityOne)
{
    // The Fig 15 collapse: per-target commands vs whole-batch command.
    graph::CsrGraph g = testGraph();
    graph::EdgeLayout layout;

    ssd::SsdDevice ssd_a(testSsd());
    IspConfig coarse;
    coarse.coalesce_targets = 1024;
    sim::Tick t_coarse =
        IspEngine(coarse, ssd_a, layout).runBatch(traceBatch(g, 128), 0)
            .finish;

    ssd::SsdDevice ssd_b(testSsd());
    IspConfig fine;
    fine.coalesce_targets = 1;
    sim::Tick t_fine =
        IspEngine(fine, ssd_b, layout).runBatch(traceBatch(g, 128), 0)
            .finish;

    EXPECT_GT(t_fine, t_coarse);
}

TEST(IspEngine, EmptyTraceIsInstant)
{
    graph::CsrGraph g = testGraph();
    ssd::SsdDevice ssd(testSsd());
    graph::EdgeLayout layout;
    IspEngine engine(IspConfig{}, ssd, layout);
    IspTraceVisitor empty;
    IspBatchResult r = engine.runBatch(empty, 555);
    EXPECT_EQ(r.finish, 555u);
    EXPECT_EQ(r.commands, 0u);
}

TEST(IspEngine, SubgraphBytesMuchSmallerThanBlockTransfers)
{
    // The paper's ~20x data-movement reduction: the dense sampled-ID
    // list must be far smaller than the block-granular transfer the
    // host-side baseline would have made for the same trace.
    graph::CsrGraph g = testGraph();
    ssd::SsdDevice ssd(testSsd());
    graph::EdgeLayout layout;
    IspEngine engine(IspConfig{}, ssd, layout);
    IspTraceVisitor trace = traceBatch(g, 256);
    IspBatchResult r = engine.runBatch(trace, 0);

    // Host baseline would fetch >= one 4 KiB block per work item with
    // sampled entries.
    std::uint64_t items = 0;
    for (const auto &w : trace.work())
        items += !w.entries.empty();
    std::uint64_t baseline_bytes = items * 4096;
    EXPECT_GT(baseline_bytes, 10 * r.bytes_to_host);
}

TEST(FpgaCsd, BreakdownAccountsAllStages)
{
    graph::CsrGraph g = testGraph();
    ssd::SsdDevice ssd(testSsd());
    graph::EdgeLayout layout;
    FpgaCsdEngine engine(FpgaCsdConfig{}, ssd, layout);
    IspTraceVisitor trace = traceBatch(g, 64);
    FpgaBatchResult r = engine.runBatch(trace, 0);

    EXPECT_GT(r.finish, 0u);
    EXPECT_GT(r.ssd_to_fpga, 0u);
    EXPECT_GT(r.sampling, 0u);
    EXPECT_GT(r.fpga_to_cpu, 0u);
    EXPECT_GT(r.p2p_bytes, r.out_bytes); // raw blocks vs dense IDs
}

TEST(FpgaCsd, TwoStepTransferDominates)
{
    // Fig 19's shape: SSD->FPGA movement is the largest component.
    graph::CsrGraph g = testGraph();
    ssd::SsdDevice ssd(testSsd());
    graph::EdgeLayout layout;
    FpgaCsdEngine engine(FpgaCsdConfig{}, ssd, layout);
    IspTraceVisitor trace = traceBatch(g, 128);
    FpgaBatchResult r = engine.runBatch(trace, 0);
    EXPECT_GT(r.ssd_to_fpga, r.sampling);
    EXPECT_GT(r.ssd_to_fpga, r.fpga_to_cpu);
}

TEST(FpgaCsd, SlowerThanInStorageSampling)
{
    // The paper's Section VI-D conclusion.
    graph::CsrGraph g = testGraph();
    graph::EdgeLayout layout;

    ssd::SsdDevice ssd_a(testSsd());
    sim::Tick isp_t =
        IspEngine(IspConfig{}, ssd_a, layout)
            .runBatch(traceBatch(g, 128), 0)
            .finish;

    ssd::SsdDevice ssd_b(testSsd());
    FpgaCsdEngine fpga(FpgaCsdConfig{}, ssd_b, layout);
    sim::Tick fpga_t = fpga.runBatch(traceBatch(g, 128), 0).finish;

    EXPECT_GT(fpga_t, isp_t);
}
