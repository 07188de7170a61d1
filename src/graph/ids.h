// Checked conversions between the id/index widths the engine mixes.
//
// The repo's scale contract: `NodeId` is 32-bit because node counts stay
// below 2^31 even on graphs of tens of millions of nodes, but
// *edge-scale* quantities — edge ids, CSR offsets, per-phase message
// totals, out-degree² work estimates — must be 64-bit, because m and
// Σdeg = 2m pass 2^32 long before n does. Narrowing back down to 32 bits
// is legitimate only where a value is node-scale by construction; these
// helpers make that claim explicit and Debug-checked at every such seam.
//
// All helpers compile to a bare `static_cast` in Release builds (NDEBUG):
// the bench pins in BENCH_core.json must not move. In Debug builds an
// out-of-range value trips an assert at the conversion site instead of
// corrupting a listing thousands of instructions later.
//
// `tools/dcl_semlint.py` (rule `sem-narrow`) flags *implicit* 64→32
// narrowing; routing a justified narrowing through `to_node`/`to_edge`
// both silences the rule and buys the Debug range check.
#pragma once

#include <cassert>
#include <concepts>
#include <cstdint>
#include <limits>
#include <utility>

namespace dcl {

// The two id widths everything else derives from (this header is the root
// of the include graph — graph.h re-exports these). 32-bit node ids hold
// to hundreds of millions of nodes; edge ids and every edge-scale
// offset/cursor/accumulator are 64-bit because m and Σdeg = 2m cross 2^32
// far earlier.
using NodeId = std::int32_t;
using EdgeId = std::int64_t;

/// Narrow an integer to `NodeId`, asserting (Debug only) that the value is
/// representable. Use at seams where an edge-scale or size_t quantity is
/// node-scale by construction (e.g. a degree, a CSR row length).
template <std::integral T>
constexpr NodeId to_node(T v) {
  assert(std::in_range<NodeId>(v) && "to_node: value exceeds NodeId range");
  return static_cast<NodeId>(v);
}

/// Convert an integer to `EdgeId` (64-bit signed), asserting (Debug only)
/// representability — only unsigned values above 2^63 can fail.
template <std::integral T>
constexpr EdgeId to_edge(T v) {
  assert(std::in_range<EdgeId>(v) && "to_edge: value exceeds EdgeId range");
  return static_cast<EdgeId>(v);
}

/// 64-bit product of two non-negative integer operands, asserting (Debug
/// only) that neither operand is negative and the product fits in
/// uint64. This is the PR 6 out-degree² class: `d * d` with `d` a 32-bit
/// degree overflows int32 at d ≥ 2^16, so work estimates and table sizes
/// must widen *before* multiplying — `checked_mul64(d, d)`, never
/// `static_cast<std::uint64_t>(d * d)`.
template <std::integral A, std::integral B>
constexpr std::uint64_t checked_mul64(A a, B b) {
  if constexpr (std::is_signed_v<A>) {
    assert(a >= 0 && "checked_mul64: negative operand");
  }
  if constexpr (std::is_signed_v<B>) {
    assert(b >= 0 && "checked_mul64: negative operand");
  }
  const auto ua = static_cast<std::uint64_t>(a);
  const auto ub = static_cast<std::uint64_t>(b);
  assert((ub == 0 ||
          ua <= std::numeric_limits<std::uint64_t>::max() / ub) &&
         "checked_mul64: product overflows uint64");
  return ua * ub;
}

}  // namespace dcl
