// The 4-ary min-heap of the event engine and of PsResource.
//
// Entries order on a single 128-bit integer key: the raw IEEE-754 bits
// of a non-negative double (a timestamp, a finish virtual time) in the
// high word and a sequence number in the low word.  A non-negative
// double's bit pattern orders exactly like its value, and a one-word-pair
// integer compare lets sift-down pick the minimum child with conditional
// moves instead of unpredictable branches.  Sequence numbers make keys
// unique, which is what preserves FIFO order among equal values.  Both
// sift directions move a hole instead of swapping: one entry copy per
// level rather than three.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/assert.hpp"

namespace xartrek::sim {

using HeapKey = unsigned __int128;

/// The key of (value, seq); `value` must not be negative.
[[nodiscard]] inline HeapKey pack_key(double value, std::uint64_t seq) {
  if (value == 0.0) value = 0.0;  // canonicalize -0.0: its sign bit would
                                  // order after every positive value
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return (static_cast<HeapKey>(bits) << 64) | seq;
}

/// The value a key was packed from.
[[nodiscard]] inline double key_value(HeapKey key) {
  const auto bits = static_cast<std::uint64_t>(key >> 64);
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

inline constexpr std::size_t kKeyHeapArity = 4;

/// Put `entry` in place of the root and sift it down.  `Entry` is any
/// type with a HeapKey member `key`.
template <typename Entry>
void key_heap_replace_root(std::vector<Entry>& heap, Entry entry) {
  const std::size_t n = heap.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = i * kKeyHeapArity + 1;
    if (first_child >= n) break;
    std::size_t best;
    if (first_child + kKeyHeapArity <= n) {
      // Full block of four children: keys are unique, so a pairwise
      // min tree is exact, and the unpredictable comparisons become
      // conditional moves.
      const std::size_t a = heap[first_child + 1].key < heap[first_child].key
                                ? first_child + 1
                                : first_child;
      const std::size_t b =
          heap[first_child + 3].key < heap[first_child + 2].key
              ? first_child + 3
              : first_child + 2;
      best = heap[b].key < heap[a].key ? b : a;
    } else {
      best = first_child;
      for (std::size_t c = first_child + 1; c < n; ++c) {
        if (heap[c].key < heap[best].key) best = c;
      }
    }
    if (heap[best].key >= entry.key) break;
    heap[i] = heap[best];
    i = best;
  }
  heap[i] = entry;
}

template <typename Entry>
void key_heap_push(std::vector<Entry>& heap, Entry entry) {
  std::size_t i = heap.size();
  heap.push_back(entry);  // reserves the hole; overwritten on placement
  while (i > 0) {
    const std::size_t parent = (i - 1) / kKeyHeapArity;
    if (entry.key >= heap[parent].key) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = entry;
}

template <typename Entry>
void key_heap_pop_root(std::vector<Entry>& heap) {
  XAR_ASSERT(!heap.empty());
  const Entry last = heap.back();
  heap.pop_back();
  if (!heap.empty()) key_heap_replace_root(heap, last);
}

}  // namespace xartrek::sim
