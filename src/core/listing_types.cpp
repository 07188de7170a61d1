#include "core/listing_types.h"

namespace dcl {

void ListingOutput::merge_from(const ListingOutput& shard) {
  total_reports_ += shard.total_reports_;
  for (std::size_t v = 0; v < per_node_reports_.size(); ++v) {
    if (shard.per_node_reports_[v] == 0) continue;
    per_node_reports_[v] += shard.per_node_reports_[v];
    max_reports_ = std::max(max_reports_, per_node_reports_[v]);
  }
  row_count_ += shard.row_count_;
  arena_.insert(arena_.end(), shard.arena_.begin(), shard.arena_.end());
}

const CliqueSet& ListingOutput::cliques() const {
  if (view_rows_ != row_count_) {
    view_ = CliqueSet::from_rows(arena_);
    view_rows_ = row_count_;
  }
  return view_;
}

}  // namespace dcl
