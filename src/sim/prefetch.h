// Software prefetch for in-order hand-offs.
//
// A FIFO stream or a priority list knows which item its consumer reads next
// long before that consumer runs: when one item leaves, the next one is the
// new head. When many messages are alive at once (at n=128 Baseline the
// network's message pool peaks at 163,720 96-byte slots, 15.7 MB, far more
// than a core's L2) that head is cold by the time its event runs, and the
// first read of it stalls. Fetching it at the hand-off overlaps the miss
// with the events in between. A prefetch is only a hint: it changes no
// value and never faults, so every event and output stays the same with or
// without it.
#pragma once

#include <cstddef>

namespace p3::sim {

/// Ask the caches for every line of `*p` ahead of a read. `p` must point at
/// a live object; nothing is read through it.
template <typename T>
inline void prefetch(const T* p) {
  constexpr std::size_t kLine = 64;
  const char* const bytes = reinterpret_cast<const char*>(p);
  // Probes no more than a line apart, ending on the last byte, reach every
  // line the object spans whatever its alignment.
  for (std::size_t off = 0; off < sizeof(T); off += kLine) {
    __builtin_prefetch(bytes + off);
  }
  __builtin_prefetch(bytes + sizeof(T) - 1);
}

}  // namespace p3::sim
