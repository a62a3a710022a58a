// Wake-flag bitsets for the CCSS partition sweep: one bit per schedule
// position, 64 positions per word, bits past the last position always
// clear.
//
// sweepWakeBits visits only the set bits, one word at a time in ascending
// position order, so the sweep's static overhead is one word load per 64
// positions plus one count-trailing-zeros per partition that runs, instead
// of one flag test per position.
//
// Inside a parallel sweep two lanes can own bits of the same word; the
// *Shared operations update their bits with relaxed atomic
// read-modify-writes that leave the other bits intact. Outside a parallel
// sweep the plain operations are enough.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace essent::support {

inline size_t wakeWordOf(size_t pos) { return pos / 64; }
inline uint64_t wakeBitOf(size_t pos) { return uint64_t{1} << (pos % 64); }

// Sizes `bits` for positions [0, n) and sets every one of them.
inline void setAllWakeBits(std::vector<uint64_t>& bits, size_t n) {
  bits.assign((n + 63) / 64, ~uint64_t{0});
  if (n % 64 != 0) bits.back() = wakeBitOf(n) - 1;
}

inline void setWakeBit(std::vector<uint64_t>& bits, size_t pos) {
  bits[wakeWordOf(pos)] |= wakeBitOf(pos);
}

// Calls visit(pos) for every set bit in ascending position order, clearing
// the bit just before the call. The word is re-loaded after every visit, so
// a bit the visit sets at a later position runs in this same sweep; a bit
// at or before the position just visited (a self-wake, a wake backwards)
// is masked off by the floor and waits for the next sweep.
template <class Visit>
void sweepWakeBits(std::vector<uint64_t>& bits, Visit&& visit) {
  for (size_t w = 0; w < bits.size(); w++) {
    uint64_t floor = ~uint64_t{0};
    for (uint64_t set; (set = bits[w] & floor) != 0;) {
      const unsigned b = static_cast<unsigned>(std::countr_zero(set));
      bits[w] &= ~(uint64_t{1} << b);
      floor = ~uint64_t{1} << b;  // bits b+1..63
      visit(w * 64 + b);
    }
  }
}

// The *Shared operations act only on bits the calling lane alone sets or
// clears while the parallel sweep runs; other lanes may update the rest of
// the word at the same time.

// Sets one bit. A relaxed load first tells whether the locked
// read-modify-write is needed at all.
inline void setWakeBitShared(std::vector<uint64_t>& bits, size_t pos) {
  std::atomic_ref<uint64_t> word(bits[wakeWordOf(pos)]);
  const uint64_t bit = wakeBitOf(pos);
  if ((word.load(std::memory_order_relaxed) & bit) == 0)
    word.fetch_or(bit, std::memory_order_relaxed);
}

// Clears one bit and reports whether it was set. Only the bit's owning
// lane sets or clears it inside the sweep, so the relaxed load decides and
// the atomic AND only has to keep the other lanes' bits intact.
inline bool testAndClearWakeBitShared(std::vector<uint64_t>& bits, size_t pos) {
  std::atomic_ref<uint64_t> word(bits[wakeWordOf(pos)]);
  const uint64_t bit = wakeBitOf(pos);
  if ((word.load(std::memory_order_relaxed) & bit) == 0) return false;
  word.fetch_and(~bit, std::memory_order_relaxed);
  return true;
}

}  // namespace essent::support
