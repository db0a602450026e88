// Packed 64-bit-word bitsets: the data layout under the CSP kernels.
//
// The hot loops of the homomorphism solver (AC-3 support marking and
// domain revision), the pebble game's position-set bookkeeping, and the
// treewidth DP's candidate intersection all manipulate subsets of a
// universe {0..bits-1}. std::vector<bool> answers one membership probe
// per call; packing the same sets into uint64_t words turns the common
// whole-set operations (copy, intersect, count, first/next element) into
// a handful of word instructions each, and lets a family of same-width
// sets live in one flat allocation with a fixed word stride so a search
// node's "copy all domains" is a single contiguous memcpy.
//
// Two layers:
//   * free kernels over raw word spans (bitset64::* below) — used where
//     rows live inside a caller-owned flat pool,
//   * Bitset64, a small owning set for callers that want one set with
//     value semantics.
//
// Whole-row operations on rows wider than kInlineWords words dispatch to
// the runtime-selected SIMD kernels (base/simd.h: scalar/AVX2/AVX-512,
// picked once by CPUID and clamped by HOMPRES_SIMD); narrower rows keep
// the inlined scalar loops. Row families that want full-width lanes pad
// their stride with PaddedWordsFor and align the pool base to
// kRowAlignBytes (base/row_pool.h).
//
// Iteration order of set bits is ascending, matching the value order of
// the std::vector<bool> loops these kernels replace — solver answers stay
// bit-identical.

#ifndef HOMPRES_BASE_BITSET64_H_
#define HOMPRES_BASE_BITSET64_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "base/check.h"
#include "base/simd.h"

namespace hompres {
namespace bitset64 {

inline constexpr int kWordBits = 64;

// Rows at or below this many words run the inlined scalar loops below;
// wider rows go through the dispatched SIMD kernels (base/simd.h). Four
// words = 256 bits: below that a vector lane cannot even fill once, and
// the indirect call would cost more than the loop it replaces. Results
// are bit-identical either way — the SIMD kernels compute the same words
// in a different grouping.
inline constexpr int kInlineWords = 4;

// Number of uint64_t words needed for `bits` bits (the fixed stride of a
// packed row family). 0 bits -> 0 words.
inline constexpr int WordsFor(int bits) {
  return (bits + kWordBits - 1) / kWordBits;
}

// Words per row lane-group: a padded stride is a multiple of this, so a
// row is a whole number of 512-bit lanes (and of cache lines).
inline constexpr int kRowAlignWords = 8;

// Stride (in words) for a padded row family over `bits` bits: WordsFor
// rounded up to a multiple of kRowAlignWords, so the dispatched kernels
// run full-width lanes with an empty ragged tail. Rows that would fit
// the inline fast path anyway (<= kInlineWords words) keep their exact
// width — padding them would only dilute the memcpy-heavy checkpointing
// of small instances. Padding words obey the same stays-zero invariant
// as the tail bits of the last partial word.
inline constexpr int PaddedWordsFor(int bits) {
  const int words = WordsFor(bits);
  if (words <= kInlineWords) return words;
  return (words + kRowAlignWords - 1) / kRowAlignWords * kRowAlignWords;
}

inline bool Test(const uint64_t* words, int bit) {
  return (words[bit >> 6] >> (bit & 63)) & 1u;
}

inline void Set(uint64_t* words, int bit) {
  words[bit >> 6] |= uint64_t{1} << (bit & 63);
}

inline void Reset(uint64_t* words, int bit) {
  words[bit >> 6] &= ~(uint64_t{1} << (bit & 63));
}

inline void ClearAll(uint64_t* words, int num_words) {
  std::memset(words, 0, static_cast<size_t>(num_words) * sizeof(uint64_t));
}

// Sets bits [0, bits); the tail of the last word stays zero, the
// invariant every kernel below preserves and Popcount/FindFirst rely on.
inline void SetFirstN(uint64_t* words, int num_words, int bits) {
  ClearAll(words, num_words);
  int full = bits >> 6;
  for (int w = 0; w < full; ++w) words[w] = ~uint64_t{0};
  if (bits & 63) words[full] = (uint64_t{1} << (bits & 63)) - 1;
}

inline int Popcount(const uint64_t* words, int num_words) {
  if (num_words > kInlineWords) {
    return simd::ActiveKernels().popcount(words, num_words);
  }
  int count = 0;
  for (int w = 0; w < num_words; ++w) count += std::popcount(words[w]);
  return count;
}

// Smallest set bit, or -1 if the row is empty.
inline int FindFirst(const uint64_t* words, int num_words) {
  if (num_words > kInlineWords) {
    return simd::ActiveKernels().find_first(words, num_words);
  }
  for (int w = 0; w < num_words; ++w) {
    if (words[w] != 0) {
      return w * kWordBits + std::countr_zero(words[w]);
    }
  }
  return -1;
}

// Smallest set bit strictly greater than `bit`, or -1. FindNext(row, -1)
// == FindFirst(row), so `for (b = FindFirst(...); b >= 0; b = FindNext(...,
// b))` visits every set bit in ascending order.
inline int FindNext(const uint64_t* words, int num_words, int bit) {
  if (num_words > kInlineWords) {
    return simd::ActiveKernels().find_next(words, num_words, bit);
  }
  int w = (bit + 1) >> 6;
  if (w >= num_words) return -1;
  uint64_t masked = words[w] & (~uint64_t{0} << ((bit + 1) & 63));
  if (masked != 0) return w * kWordBits + std::countr_zero(masked);
  for (++w; w < num_words; ++w) {
    if (words[w] != 0) {
      return w * kWordBits + std::countr_zero(words[w]);
    }
  }
  return -1;
}

// dst &= src. Returns true iff dst changed.
inline bool IntersectInPlace(uint64_t* dst, const uint64_t* src,
                             int num_words) {
  if (num_words > kInlineWords) {
    return simd::ActiveKernels().intersect_in_place(dst, src, num_words);
  }
  bool changed = false;
  for (int w = 0; w < num_words; ++w) {
    const uint64_t next = dst[w] & src[w];
    changed |= next != dst[w];
    dst[w] = next;
  }
  return changed;
}

// dst |= src.
inline void UnionInPlace(uint64_t* dst, const uint64_t* src, int num_words) {
  if (num_words > kInlineWords) {
    simd::ActiveKernels().union_in_place(dst, src, num_words);
    return;
  }
  for (int w = 0; w < num_words; ++w) dst[w] |= src[w];
}

inline bool AnySet(const uint64_t* words, int num_words) {
  if (num_words > kInlineWords) {
    return simd::ActiveKernels().any_set(words, num_words);
  }
  for (int w = 0; w < num_words; ++w) {
    if (words[w] != 0) return true;
  }
  return false;
}

// True iff a and b share a set bit. Stops at the first shared word, so
// it stays an inline scalar loop at every width.
inline bool Intersects(const uint64_t* a, const uint64_t* b, int num_words) {
  for (int w = 0; w < num_words; ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

inline bool Equal(const uint64_t* a, const uint64_t* b, int num_words) {
  if (num_words > kInlineWords) {
    return simd::ActiveKernels().equal(a, b, num_words);
  }
  return std::memcmp(a, b,
                     static_cast<size_t>(num_words) * sizeof(uint64_t)) == 0;
}

}  // namespace bitset64

// One owning set over {0..SizeBits()-1} with value semantics. Thin sugar
// over the kernels above for callers outside a flat row pool. The word
// buffer is padded (PaddedWordsFor), so wide sets — e.g. the treewidth
// DP's candidate sets over B's universe — run full SIMD lanes; the
// padding words obey the same stays-zero invariant as the tail bits.
class Bitset64 {
 public:
  Bitset64() = default;
  explicit Bitset64(int bits)
      : bits_(bits),
        words_(static_cast<size_t>(bitset64::PaddedWordsFor(bits)), 0) {
    HOMPRES_CHECK_GE(bits, 0);
  }

  int SizeBits() const { return bits_; }
  int NumWords() const { return static_cast<int>(words_.size()); }

  bool Test(int bit) const {
    CheckBit(bit);
    return bitset64::Test(words_.data(), bit);
  }
  void Set(int bit) {
    CheckBit(bit);
    bitset64::Set(words_.data(), bit);
  }
  void Reset(int bit) {
    CheckBit(bit);
    bitset64::Reset(words_.data(), bit);
  }
  void ClearAll() { bitset64::ClearAll(words_.data(), NumWords()); }
  void SetAll() { bitset64::SetFirstN(words_.data(), NumWords(), bits_); }

  int Count() const { return bitset64::Popcount(words_.data(), NumWords()); }
  bool Any() const { return bitset64::AnySet(words_.data(), NumWords()); }
  int FindFirst() const {
    return bitset64::FindFirst(words_.data(), NumWords());
  }
  int FindNext(int bit) const {
    return bitset64::FindNext(words_.data(), NumWords(), bit);
  }

  // *this &= other; the widths must agree. Returns true iff *this changed.
  bool IntersectWith(const Bitset64& other) {
    HOMPRES_CHECK_EQ(bits_, other.bits_);
    return bitset64::IntersectInPlace(words_.data(), other.words_.data(),
                                      NumWords());
  }

  friend bool operator==(const Bitset64& a, const Bitset64& b) {
    return a.bits_ == b.bits_ && a.words_ == b.words_;
  }

 private:
  void CheckBit(int bit) const {
    HOMPRES_CHECK_GE(bit, 0);
    HOMPRES_CHECK_LT(bit, bits_);
  }

  int bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace hompres

#endif  // HOMPRES_BASE_BITSET64_H_
