#include "core/listing_types.h"

#include <bit>

namespace dcl {

namespace {

/// An order-independent 64-bit mix of a row: the sum of one mixed value
/// per id, so a clique mixes alike in any vertex order and rows need no
/// sort. Never 0, the free-slot mark of the distinct pass. Unequal rows
/// may share a mix; the distinct pass then takes its exact path.
std::uint64_t row_mix(std::span<const NodeId> row) {
  std::uint64_t h = 0;
  for (const NodeId v : row) {
    std::uint64_t x = static_cast<std::uint32_t>(v) * 0x9e3779b97f4a7c15ULL;
    x ^= x >> 32;
    x *= 0xbf58476d1ce4e5b9ULL;
    h += x ^ (x >> 29);
  }
  return h | 1;
}

}  // namespace

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
    CliqueSet view;
    view.reserve(row_count_);
    for (std::size_t at = 0; at < arena_.size();) view.insert(next_row(at));
    view_ = std::move(view);
    view_rows_ = row_count_;
  }
  return view_;
}

std::uint64_t ListingOutput::unique_count() const {
  if (unique_rows_ == row_count_) return unique_;
  unique_rows_ = row_count_;
  if (view_rows_ == row_count_) return unique_ = view_.size();
  // Every row's mix goes into a linear-probing table of at least twice the
  // rows, indexed by the mix's top bits. A repeated mix is a duplicate row
  // or a collision; the exact view decides both.
  const std::size_t slots = std::bit_ceil(2 * row_count_ + 2);
  const int shift = 64 - std::countr_zero(slots);
  std::vector<std::uint64_t> table(slots, 0);
  for (std::size_t at = 0; at < arena_.size();) {
    const std::uint64_t h = row_mix(next_row(at));
    std::size_t i = static_cast<std::size_t>(h >> shift);
    while (table[i] != 0) {
      if (table[i] == h) return unique_ = cliques().size();
      i = (i + 1) & (slots - 1);
    }
    table[i] = h;
  }
  return unique_ = row_count_;
}

}  // namespace dcl
