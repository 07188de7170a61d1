// In-place ascending sort of the short runs the listers canonicalize: a
// clique's p ids (`list_k_cliques`) or its p parts (`PartTupleCovers`).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

namespace dcl {

/// Sorts `c` ascending. Sorting networks for 2–5 elements (optimal
/// compare-swap counts, no data-dependent branches); insertion sort above
/// that, where runs are rare and short.
template <class T>
inline void sort_small(std::span<T> c) {
  const auto cas = [&](std::size_t i, std::size_t j) {  // compare-swap
    const T lo = std::min(c[i], c[j]);
    c[j] = std::max(c[i], c[j]);
    c[i] = lo;
  };
  switch (c.size()) {
    case 0:
    case 1:
      break;
    case 2:
      cas(0, 1);
      break;
    case 3:
      cas(0, 2); cas(0, 1); cas(1, 2);
      break;
    case 4:
      cas(0, 2); cas(1, 3); cas(0, 1); cas(2, 3); cas(1, 2);
      break;
    case 5:
      cas(0, 3); cas(1, 4); cas(0, 2); cas(1, 3); cas(0, 1); cas(2, 4);
      cas(1, 2); cas(3, 4); cas(2, 3);
      break;
    default:
      for (std::size_t i = 1; i < c.size(); ++i) {
        const T x = c[i];
        std::size_t j = i;
        for (; j > 0 && c[j - 1] > x; --j) c[j] = c[j - 1];
        c[j] = x;
      }
      break;
  }
}

}  // namespace dcl
