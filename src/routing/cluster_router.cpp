#include "routing/cluster_router.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/math_util.h"

namespace dcl {

double routing_polylog(NodeId ambient_n) {
  return std::max(1.0, std::ceil(std::log2(std::max<double>(
                      2.0, static_cast<double>(ambient_n)))));
}

double cluster_routing_rounds(std::int64_t max_load, std::int64_t bandwidth,
                              NodeId ambient_n) {
  if (max_load <= 0) return 0.0;
  const std::int64_t b = std::max<std::int64_t>(1, bandwidth);
  return static_cast<double>(ceil_div(max_load, b)) *
         routing_polylog(ambient_n);
}

std::int64_t lenzen_rounds(std::int64_t max_load, NodeId n) {
  if (max_load <= 0) return 0;
  if (n < 2) throw std::invalid_argument("lenzen_rounds: need >= 2 nodes");
  return ceil_div(max_load, static_cast<std::int64_t>(n) - 1) + 2;
}

void ParallelRoutingCharge::add_cluster(std::int64_t max_load,
                                        std::int64_t bandwidth,
                                        std::uint64_t messages) {
  any_ = true;
  worst_load_ = std::max(worst_load_, max_load);
  total_messages_ += messages;
  // Defer the polylog multiply to commit (it needs ambient_n); store the
  // load/bandwidth ratio as "base rounds".
  const std::int64_t b = std::max<std::int64_t>(1, bandwidth);
  worst_rounds_ = std::max(
      worst_rounds_, static_cast<double>(ceil_div(std::max<std::int64_t>(
                                             0, max_load),
                                         b)));
}

void ParallelRoutingCharge::merge_from(const ParallelRoutingCharge& other) {
  any_ = any_ || other.any_;
  worst_load_ = std::max(worst_load_, other.worst_load_);
  worst_rounds_ = std::max(worst_rounds_, other.worst_rounds_);
  total_messages_ += other.total_messages_;
}

double ParallelRoutingCharge::commit(RoundLedger& ledger,
                                     const std::string& label,
                                     NodeId ambient_n) {
  if (!any_) return 0.0;
  const double rounds = worst_rounds_ * routing_polylog(ambient_n);
  ledger.charge_routing(label, rounds, total_messages_);
  return rounds;
}

std::vector<NodeId> assign_cluster_ids(const std::vector<Cluster>& clusters,
                                       NodeId ambient_n, RoundLedger& ledger) {
  std::vector<NodeId> new_id(static_cast<std::size_t>(ambient_n), -1);
  for (const Cluster& c : clusters) {
    for (std::size_t i = 0; i < c.nodes.size(); ++i) {
      new_id[static_cast<std::size_t>(c.nodes[i])] = static_cast<NodeId>(i);
    }
  }
  if (!clusters.empty()) {
    ledger.charge_analytic("cluster-id-assignment (L2.5)",
                           routing_polylog(ambient_n));
  }
  return new_id;
}

NodeId responsible_cluster_index(NodeId original_node, NodeId ambient_n,
                                 NodeId cluster_size) {
  if (cluster_size <= 0) {
    throw std::invalid_argument("responsible_cluster_index: empty cluster");
  }
  // i is the largest index with floor(i*n/k) <= w, i.e.
  // i = floor(((w+1)*k - 1) / n), clamped to [0, k).
  const auto w = static_cast<std::int64_t>(original_node);
  const auto n = static_cast<std::int64_t>(ambient_n);
  const auto k = static_cast<std::int64_t>(cluster_size);
  const std::int64_t i = std::min<std::int64_t>(
      k - 1, std::max<std::int64_t>(0, ((w + 1) * k - 1) / n));
  return static_cast<NodeId>(i);
}

}  // namespace dcl
