#include "nsconfig.hh"

namespace smartsage::isp
{

void
IspTraceVisitor::onBatchStart(std::size_t num_targets)
{
    work_.clear();
    entries_.clear();
    begins_.clear();
    num_targets_ = num_targets;
}

void
IspTraceVisitor::onOffsetRead(graph::LocalNodeId u)
{
    work_.push_back(NodeWork{u, {}});
    begins_.push_back(entries_.size());
}

void
IspTraceVisitor::onEdgeEntryRead(graph::LocalNodeId u,
                                 std::uint64_t entry_index)
{
    (void)u;
    entries_.push_back(entry_index);
}

void
IspTraceVisitor::onBatchEnd()
{
    // The buffer stops growing here, so the views cannot dangle.
    for (std::size_t i = 0; i < work_.size(); ++i) {
        std::size_t end =
            i + 1 < work_.size() ? begins_[i + 1] : entries_.size();
        work_[i].entries = std::span<const std::uint64_t>(
            entries_.data() + begins_[i], end - begins_[i]);
    }
}

} // namespace smartsage::isp
