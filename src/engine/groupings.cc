#include "engine/groupings.h"

#include <utility>

#include "engine/analysis_session.h"

namespace ajd {

PinnedGroupings::PinnedGroupings(AnalysisSession* session, const Relation& r)
    : engine_(&session->EngineFor(r)) {
  engine_->CatchUp();
  pin_ = engine_->Pin();
}

std::shared_ptr<const Partition> PinnedGroupings::PartitionOf(AttrSet attrs) {
  std::shared_ptr<const Partition>& p = partitions_[attrs];
  if (p == nullptr) p = engine_->PartitionAt(attrs, pin_);
  return p;
}

uint64_t PinnedGroupings::CountDistinct(AttrSet attrs) {
  const std::shared_ptr<const Partition> p = PartitionOf(attrs);
  return pin_.rows - p->NumStrippedRows() + p->NumBlocks();
}

const RowClasses& PinnedGroupings::ClassesOf(AttrSet attrs) {
  auto it = classes_.find(attrs);
  if (it != classes_.end()) return it->second;
  const std::shared_ptr<const Partition> p = PartitionOf(attrs);
  RowClasses c;
  c.label.assign(pin_.rows, UINT32_MAX);
  const uint32_t blocks = p->NumBlocks();
  c.block_size.resize(blocks);
  for (uint32_t b = 0; b < blocks; ++b) {
    c.block_size[b] = p->BlockSize(b);
    for (const uint32_t* row = p->BlockBegin(b); row != p->BlockEnd(b);
         ++row) {
      c.label[*row] = b;
    }
  }
  uint32_t next = blocks;
  for (uint32_t& label : c.label) {
    if (label == UINT32_MAX) label = next++;
  }
  c.num_classes = next;
  return classes_.emplace(attrs, std::move(c)).first->second;
}

uint64_t CountDistinct(AnalysisSession* session, const Relation& r,
                       AttrSet attrs) {
  PinnedGroupings groupings(session, r);
  return groupings.CountDistinct(attrs);
}

}  // namespace ajd
