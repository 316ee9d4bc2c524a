#include "ssd_device.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace smartsage::ssd
{

SsdDevice::SsdDevice(const SsdConfig &config, bool dedicated_isp)
    : config_(config), ftl_(config),
      buffer_(config.page_buffer_bytes, config.flash.page_bytes,
              config.page_buffer_ways),
      cores_(config, dedicated_isp), flash_(config.flash),
      pcie_("pcie", config.pcie_gbps, config.pcie_latency),
      nvme_sq_("nvme-sq", config.queue_depth)
{
}

sim::Tick
SsdDevice::fetchPage(sim::Tick arrival, std::uint64_t lpn)
{
    if (buffer_.access(lpn))
        return arrival + config_.page_buffer_hit;

    // Miss: firmware translates and issues the flash read, the page is
    // sensed + transferred, then lands in the page buffer.
    auto issue = cores_.execute(arrival, config_.ftl_translate);
    sim::Tick in_reg = flash_.readPage(ftl_.translate(lpn), issue.finish);
    return in_reg + config_.page_buffer_hit;
}

SsdDevice::BlockSpan
SsdDevice::blockSpan(std::uint64_t addr, std::uint64_t bytes) const
{
    SS_ASSERT(bytes > 0, "zero-length block read");
    // Round the range out to logical-block granularity: a block device
    // cannot transfer less than a block.
    std::uint64_t bs = config_.block_bytes;
    std::uint64_t lo = addr / bs * bs;
    std::uint64_t hi = (addr + bytes + bs - 1) / bs * bs;
    return {lo, hi - lo};
}

sim::Tick
SsdDevice::commandStage(sim::Tick start)
{
    return cores_.execute(start, config_.nvme_command).finish;
}

sim::Tick
SsdDevice::fetchStage(sim::Tick issued, BlockSpan span)
{
    // Every flash page the range spans is fetched; they proceed in
    // parallel across dies and the transfer starts once all are
    // buffered.
    sim::Tick ready = issued;
    PageRange pages = ftl_.pagesSpanned(span.lo, span.bytes);
    for (std::uint64_t lpn = pages.first; lpn < pages.end; ++lpn)
        ready = std::max(ready, fetchPage(issued, lpn));
    ++host_reads_;
    bytes_to_host_ += span.bytes;
    return ready;
}

void
SsdDevice::submitRead(sim::EventQueue &eq, std::uint64_t addr,
                      std::uint64_t bytes, sim::IoCompletion done)
{
    BlockSpan span = blockSpan(addr, bytes);
    nvme_sq_.submitStaged(
        eq,
        [this, span](sim::EventQueue &q, sim::Tick start,
                     sim::IoCompletion complete) {
            sim::Tick issued = commandStage(start);
            q.schedule(issued, [this, &q, span, issued,
                                complete = std::move(complete)]() mutable {
                sim::Tick ready = fetchStage(issued, span);
                q.schedule(
                    ready, [this, &q, span, ready,
                            complete = std::move(complete)]() mutable {
                        sim::Tick finish = dmaToHost(ready, span.bytes);
                        q.schedule(finish,
                                   [complete = std::move(complete),
                                    finish] {
                                       complete(finish,
                                                sim::IoStatus::Ok);
                                   });
                    });
            });
        },
        std::move(done));
}

sim::Tick
SsdDevice::readBlocks(sim::Tick arrival, std::uint64_t addr,
                      std::uint64_t bytes)
{
    BlockSpan span = blockSpan(addr, bytes);
    return nvme_sq_
        .serveInline(arrival,
                     [this, span](sim::Tick start) {
                         sim::Tick ready =
                             fetchStage(commandStage(start), span);
                         return dmaToHost(ready, span.bytes);
                     })
        .finish;
}

sim::Tick
SsdDevice::dmaToHost(sim::Tick arrival, std::uint64_t bytes)
{
    return pcie_.transfer(arrival, bytes).finish;
}

sim::Tick
SsdDevice::dmaFromHost(sim::Tick arrival, std::uint64_t bytes)
{
    return pcie_.transfer(arrival, bytes).finish;
}

void
SsdDevice::reset()
{
    buffer_.reset();
    cores_.reset();
    flash_.reset();
    pcie_.reset();
    nvme_sq_.reset();
    host_reads_ = 0;
    bytes_to_host_ = 0;
}

} // namespace smartsage::ssd
