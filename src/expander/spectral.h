// Spectral tools for conductance and mixing-time estimation.
//
// The expander decomposition needs two primitives on a candidate cluster:
//  (1) find a sparse cut if one exists (sweep cut over an approximate
//      second eigenvector of the lazy random walk), and
//  (2) certify a good mixing time when no sparse cut exists (spectral gap
//      of the lazy walk; t_mix = O(log(vol)/gap) by the standard bound).
// Definition 2.1 of the paper requires each cluster to have mixing time
// O(polylog n); these estimates are what our tests check against.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"

namespace dcl {

/// A cut of a graph into (side, complement) with its conductance.
struct Cut {
  std::vector<NodeId> side;  ///< nodes on the smaller-volume side
  std::int64_t cut_edges = 0;
  std::int64_t volume_small = 0;  ///< sum of degrees on `side`
  double conductance = 1.0;       ///< cut_edges / min(vol, vol_complement)
};

/// Approximates the second eigenvector of the lazy random walk
/// P = (I + D^{-1}A)/2 on a connected graph by power iteration with
/// deflation of the stationary component. Returns one value per node.
std::vector<double> second_eigenvector(const Graph& g, Rng& rng,
                                       int iterations);

/// Estimated second eigenvalue λ₂ of the lazy walk (in [1/2, 1] for a
/// connected non-trivial graph); spectral gap is 1 − λ₂.
double lazy_walk_lambda2(const Graph& g, Rng& rng, int iterations);

/// Standard mixing-time estimate t_mix ≈ log(volume) / gap, from λ₂.
double mixing_time_estimate(const Graph& g, Rng& rng, int iterations);

/// Sweep cut: sorts nodes by the given embedding and returns the
/// best-conductance prefix cut. `g` must have at least one edge.
Cut sweep_cut(const Graph& g, const std::vector<double>& embedding);

/// Exact conductance of a node subset (by brute force edge counting).
double conductance_of(const Graph& g, const std::vector<NodeId>& side);

}  // namespace dcl
