/**
 * @file
 * Page-mapping flash translation layer.
 *
 * Maps logical byte addresses to physical flash pages. Pages are striped
 * channel-first so that sequential logical pages land on different
 * channels — the layout that gives the ISP engine its internal
 * parallelism. The mapping is deterministic (no GC churn is modeled:
 * the GNN workload is read-only after ingest, so steady-state maps are
 * stable).
 */

#ifndef SMARTSAGE_SSD_FTL_HH
#define SMARTSAGE_SSD_FTL_HH

#include <cstdint>

#include "config.hh"
#include "flash/config.hh"

namespace smartsage::ssd
{

/** Half-open run [first, end) of logical page numbers. */
struct PageRange
{
    std::uint64_t first = 0;
    std::uint64_t end = 0;

    std::uint64_t
    size() const
    {
        return end - first;
    }

    bool
    empty() const
    {
        return end == first;
    }
};

/** Logical-to-physical translation for the simulated SSD. */
class Ftl
{
  public:
    explicit Ftl(const SsdConfig &config);

    /** Logical page number containing logical byte address @p addr. */
    std::uint64_t
    pageOf(std::uint64_t addr) const
    {
        return addr / config_.flash.page_bytes;
    }

    /** Physical location of logical page @p lpn (channel-striped). */
    flash::PageAddress translate(std::uint64_t lpn) const;

    /**
     * The logical pages overlapped by the byte range
     * [@p addr, @p addr + @p bytes); empty when @p bytes is 0.
     */
    PageRange pagesSpanned(std::uint64_t addr, std::uint64_t bytes) const;

  private:
    SsdConfig config_;
};

} // namespace smartsage::ssd

#endif // SMARTSAGE_SSD_FTL_HH
