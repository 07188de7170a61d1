// δ-expander decomposition (Definition 2.2 of the paper).
//
// Partitions the edge set of a graph into E = Em ∪ Es ∪ Er where
//  * every maximal connected component of Em with more than one node is an
//    n^δ-cluster (Definition 2.1: every node has internal degree Ω(n^δ) and
//    the component mixes in O(polylog n));
//  * Es has arboricity ≤ n^δ, witnessed by an orientation with out-degree
//    ≤ n^δ that we return explicitly (the paper's Es,v sets);
//  * |Er| ≤ |E|/6.
//
// Construction (centralized — the distributed algorithm is charged
// analytically, see below): we alternate low-degree peeling (removed
// nodes contribute their remaining edges to Es, oriented away — this is
// the arboricity witness) with sweep cuts over a 30-step lazy-walk
// embedding (cut edges go to Er; both sides recurse).
// The conductance threshold φ is chosen as 1/Θ(log m) so the recursion
// charges at most |E|/6 edges to Er, while accepted clusters still mix in
// O(polylog) time; see `default_conductance_threshold`.
//
// The distributed construction cost is charged per Theorem 2.3:
// Õ(n^{1-δ}) rounds (`charged_rounds`).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "graph/edge_mask.h"
#include "graph/graph.h"

namespace dcl {

enum class EdgePart : std::uint8_t {
  cluster,  ///< Em: inside an n^δ-cluster
  sparse,   ///< Es: low-arboricity leftover, oriented
  removed,  ///< Er: deferred to the next ARB-LIST iteration
};

struct Cluster {
  int id = 0;
  std::vector<NodeId> nodes;          ///< sorted original node ids
  NodeId min_internal_degree = 0;     ///< min degree w.r.t. Em edges
  std::int64_t internal_edges = 0;    ///< |Em ∩ C×C|
};

struct ExpanderDecomposition {
  /// Per-edge label, aligned with the decomposed graph's edge ids.
  std::vector<EdgePart> part;
  /// Orientation for Es edges as away bits (`edge_tail`,
  /// graph/orientation.h): set = oriented from the lower-id endpoint to the
  /// higher-id one. Bits of non-Es edges are unspecified.
  EdgeMask es_away_from_lower;
  /// Cluster id per node, or -1 for nodes in no cluster.
  std::vector<int> cluster_of;
  std::vector<Cluster> clusters;

  std::int64_t em_count = 0;
  std::int64_t es_count = 0;
  std::int64_t er_count = 0;

  /// Simulated CONGEST cost of the distributed construction (Theorem 2.3).
  double charged_rounds = 0.0;
};

/// Sets the cluster degree n^δ. A node with fewer than max(1, ⌊n^δ/2⌋)
/// remaining edges is peeled into Es: the paper peels at Θ(n^δ), and
/// n^δ/2 matches its "at least k·n^δ/2 edges inside" accounting. Sweep
/// cuts use φ = `default_conductance_threshold`.
struct DecompositionConfig {
  /// Cluster degree exponent δ, in [0, 1] (checked when no override is
  /// set: the decomposition throws std::invalid_argument otherwise).
  double delta = 0.75;
  /// When positive, overrides n^δ with this absolute value. The listing
  /// algorithm couples the cluster degree to the current arboricity bound
  /// (n^δ = A / (2 log n), Section 2.2), which is an absolute quantity.
  std::int64_t absolute_degree = -1;
};

/// φ = 1 / (12·log2(2m) + 1): any recursion of sweep cuts with this
/// threshold removes at most |E|/6 edges in total (each edge's endpoint
/// volume lands on the smaller side of a cut at most log2(2m) times).
double default_conductance_threshold(std::int64_t edge_count);

/// The O(polylog) mixing bound that Definition 2.1 guarantees for accepted
/// clusters: a component with no cut sparser than φ = 1/Θ(log m) has
/// spectral gap ≥ φ²/2 (Cheeger), so t_mix ≤ log(vol)/gap = Θ(log³ m).
/// This is the bound verify_decomposition / tests should check against.
double polylog_mixing_bound(std::int64_t edge_count);

/// Decomposes `g` under `config`. Uses n = `ambient_n` for the n^δ
/// threshold (the paper runs the decomposition on the subgraph (V, Er) of
/// an n-node graph; thresholds refer to the ambient n, not the subgraph
/// size). Pass ambient_n = g.node_count() for standalone use.
ExpanderDecomposition expander_decompose(const Graph& g, NodeId ambient_n,
                                         const DecompositionConfig& config,
                                         Rng& rng);

/// Spectral mixing-time estimate (lazy walk, a fixed 120 power steps, apart
/// from the embedding's) of cluster `c`'s Em subgraph in decomposition `d`
/// of `g`. Diagnostic only: `expander_decompose` never computes it, and it
/// draws from a private per-cluster stream, so it cannot change a result.
double cluster_mixing_time(const Graph& g, const ExpanderDecomposition& d,
                           const Cluster& c);

/// Structural check of Definition 2.2; returns a human-readable error list
/// (empty == valid). `max_mixing_time` bounds every cluster's
/// `cluster_mixing_time` (computed here).
std::vector<std::string> verify_decomposition(
    const Graph& g, NodeId ambient_n, const DecompositionConfig& config,
    const ExpanderDecomposition& d, double max_mixing_time);

}  // namespace dcl
