#include "ftl.hh"

#include "sim/logging.hh"

namespace smartsage::ssd
{

Ftl::Ftl(const SsdConfig &config) : config_(config)
{
    SS_ASSERT(config.flash.page_bytes > 0, "flash page size must be > 0");
}

flash::PageAddress
Ftl::translate(std::uint64_t lpn) const
{
    const auto &f = config_.flash;
    flash::PageAddress addr;
    addr.channel = static_cast<unsigned>(lpn % f.channels);
    std::uint64_t per_channel = lpn / f.channels;
    addr.die = static_cast<unsigned>(per_channel % f.dies_per_channel);
    addr.page = per_channel / f.dies_per_channel;
    return addr;
}

PageRange
Ftl::pagesSpanned(std::uint64_t addr, std::uint64_t bytes) const
{
    if (bytes == 0)
        return {pageOf(addr), pageOf(addr)};
    return {pageOf(addr), pageOf(addr + bytes - 1) + 1};
}

} // namespace smartsage::ssd
