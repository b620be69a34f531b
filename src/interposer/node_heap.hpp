#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

/// \file node_heap.hpp
/// Indexed 4-ary min-heap over graph nodes 0..n-1 with decrease-key, for the
/// interposer router's searches. Each node is queued at most once, under its
/// latest key, so a search pops no stale entries. Entries pop in ascending
/// (key, node) lexicographic order -- exactly the order a
/// `std::priority_queue<std::pair<double, std::size_t>, ..., std::greater<>>`
/// pops the same live (key, node) pairs in -- which is what keeps the
/// router's results byte-identical to a lazy-deletion binary heap.
///
/// Each entry is one 128-bit integer: an order-preserving image of the key
/// above the 32-bit node. Comparing two entries is then one integer compare
/// with no branch on ties, about twice as fast as comparing (double, node)
/// pairs. The image keeps the order of every non-NaN key and maps -0.0 and
/// +0.0 to one value, as `<` and `==` treat them; `pop` returns the key
/// exactly, except that a -0.0 comes back as +0.0.

namespace gia::interposer {

class NodeHeap {
 public:
  struct Entry {
    double key;
    std::uint32_t node;
  };

  /// Size the position table for nodes 0..n-1; drops every queued entry.
  void reset(std::size_t n) {
    heap_.clear();
    pos_.assign(n, kAbsent);
  }

  bool empty() const { return heap_.empty(); }

  /// Queue `node` under `key` (not NaN), or move it to `key` if already
  /// queued. A node popped earlier may be queued again.
  void push(std::size_t node, double key) {
    const Packed e = pack(key, static_cast<std::uint32_t>(node));
    const std::uint32_t i = pos_[node];
    if (i == kAbsent) {
      heap_.push_back(e);
      sift_up(static_cast<std::uint32_t>(heap_.size() - 1), e);
    } else if (e < heap_[i]) {
      sift_up(i, e);
    } else {
      sift_down(i, e);
    }
  }

  /// Remove and return the smallest (key, node) entry. Precondition: !empty().
  Entry pop() {
    const Packed top = heap_.front();
    pos_[node_of(top)] = kAbsent;
    const Packed last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      // Walk the hole at the root down the smaller-child path to a leaf,
      // then settle `last` there (it usually belongs near the bottom).
      const auto n = static_cast<std::uint32_t>(heap_.size());
      std::uint32_t i = 0;
      for (std::uint32_t c; (c = min_child(i, n)) != kAbsent; i = c) place(i, heap_[c]);
      sift_up(i, last);
    }
    return {key_of(top), node_of(top)};
  }

  /// Drop every queued entry, touching only the queued nodes' positions.
  void clear() {
    for (const Packed e : heap_) pos_[node_of(e)] = kAbsent;
    heap_.clear();
  }

 private:
  __extension__ typedef unsigned __int128 Packed;
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
  static constexpr std::uint32_t kArity = 4;
  static constexpr std::uint64_t kSign = std::uint64_t{1} << 63;

  /// Key image above the node. The image is the key's bits with the sign
  /// bit set for a key >= 0 and every bit flipped for a key < 0, which
  /// orders like the keys; adding +0.0 first turns -0.0 into +0.0.
  static Packed pack(double key, std::uint32_t node) {
    const double k = key + 0.0;
    std::uint64_t bits;
    std::memcpy(&bits, &k, sizeof bits);
    bits = (bits & kSign) ? ~bits : (bits | kSign);
    return (static_cast<Packed>(bits) << 32) | node;
  }
  static std::uint32_t node_of(Packed e) { return static_cast<std::uint32_t>(e); }
  static double key_of(Packed e) {
    auto bits = static_cast<std::uint64_t>(e >> 32);
    bits = (bits & kSign) ? (bits & ~kSign) : ~bits;
    double key;
    std::memcpy(&key, &bits, sizeof key);
    return key;
  }

  void place(std::uint32_t i, Packed e) {
    heap_[i] = e;
    pos_[node_of(e)] = i;
  }

  /// Index of the smallest child of `i` in a heap of `n`, or kAbsent.
  std::uint32_t min_child(std::uint32_t i, std::uint32_t n) const {
    const std::uint32_t first = i * kArity + 1;
    if (first >= n) return kAbsent;
    std::uint32_t best = first;
    const std::uint32_t end = first + kArity < n ? first + kArity : n;
    for (std::uint32_t c = first + 1; c < end; ++c) best = heap_[c] < heap_[best] ? c : best;
    return best;
  }

  /// Settle `e` at or above slot `i`.
  void sift_up(std::uint32_t i, Packed e) {
    while (i > 0) {
      const std::uint32_t parent = (i - 1) / kArity;
      if (!(e < heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, e);
  }

  /// Settle `e` at or below slot `i`.
  void sift_down(std::uint32_t i, Packed e) {
    const auto n = static_cast<std::uint32_t>(heap_.size());
    for (std::uint32_t c; (c = min_child(i, n)) != kAbsent && heap_[c] < e; i = c) {
      place(i, heap_[c]);
    }
    place(i, e);
  }

  std::vector<Packed> heap_;
  std::vector<std::uint32_t> pos_;  ///< node -> index in heap_, kAbsent if not queued
};

}  // namespace gia::interposer
