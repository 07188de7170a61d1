// Word-parallel bitset over dense edge (or node) ids.
//
// The listing pipeline threads logical edge-set masks (Es, Er, the current
// graph, orientation bits) through every stage. As std::vector<bool> these
// cost a masked read-modify-write per bit and an O(m) loop per population
// count; EdgeMask stores 64 bits per uint64_t word so counting is a
// popcount sweep, bulk set algebra (E = Es ∪ Er, goal = Em \ bad) is one
// op per word, and set-bit iteration skips empty words via countr_zero.
//
// Tail bits past `size()` are kept zero as a class invariant, so count()
// and the bulk operators never need a final partial-word fixup.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace dcl {

class EdgeMask {
 public:
  EdgeMask() = default;
  explicit EdgeMask(std::int64_t n, bool value = false) { assign(n, value); }

  void assign(std::int64_t n, bool value) {
    size_ = n;
    words_.assign(word_count(n), value ? ~std::uint64_t{0} : 0);
    trim_tail();
  }

  std::int64_t size() const { return size_; }

  bool test(std::int64_t i) const {
    return (words_[static_cast<std::size_t>(i >> 6)] >> (i & 63)) & 1;
  }
  bool operator[](std::int64_t i) const { return test(i); }

  void set(std::int64_t i, bool value = true) {
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    auto& w = words_[static_cast<std::size_t>(i >> 6)];
    if (value) {
      w |= bit;
    } else {
      w &= ~bit;
    }
  }
  void reset(std::int64_t i) { set(i, false); }

  void fill(bool value) {
    for (auto& w : words_) w = value ? ~std::uint64_t{0} : 0;
    trim_tail();
  }

  /// Population count — one hardware popcount per 64 edges.
  std::int64_t count() const {
    std::int64_t c = 0;
    for (const std::uint64_t w : words_) c += std::popcount(w);
    return c;
  }

  bool any() const {
    for (const std::uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }
  bool none() const { return !any(); }

  EdgeMask& operator|=(const EdgeMask& other) {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
    return *this;
  }
  EdgeMask& operator&=(const EdgeMask& other) {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    return *this;
  }
  /// this \ other, word-parallel.
  EdgeMask& and_not(const EdgeMask& other) {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i] &= ~other.words_[i];
    }
    return *this;
  }

  friend EdgeMask operator|(EdgeMask a, const EdgeMask& b) { return a |= b; }
  friend EdgeMask operator&(EdgeMask a, const EdgeMask& b) { return a &= b; }

  friend bool operator==(const EdgeMask&, const EdgeMask&) = default;

  /// Calls `fn(i)` for every set bit in increasing order, skipping clear
  /// words entirely.
  template <typename F>
  void for_each_set(F&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        const int bit = std::countr_zero(w);
        fn(static_cast<std::int64_t>(wi * 64 + static_cast<std::size_t>(bit)));
        w &= w - 1;
      }
    }
  }

 private:
  static std::size_t word_count(std::int64_t n) {
    return static_cast<std::size_t>((n + 63) >> 6);
  }
  void trim_tail() {
    if (const int tail = static_cast<int>(size_ & 63); tail != 0 && !words_.empty()) {
      words_.back() &= (std::uint64_t{1} << tail) - 1;
    }
  }

  std::int64_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace dcl
