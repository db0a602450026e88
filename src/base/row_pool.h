// Cache-line-aligned flat word pools for packed row families.
//
// The solver workspaces keep families of same-width bitset rows in one
// flat allocation (row r at words + r * stride). For the SIMD kernels
// (base/simd.h) to run full-width lanes on every row, two layout
// invariants must hold:
//
//   * the base pointer is 64-byte aligned (kRowAlignBytes — one cache
//     line, and the natural alignment of a 512-bit lane), and
//   * the stride is padded to a multiple of kRowAlignWords words (see
//     bitset64::PaddedWordsFor), so each row also starts on a lane
//     boundary and a whole-row op has no ragged tail.
//
// Padding words are cleared on (re)allocation and every kernel writes
// only AND/OR combinations of existing words, so the padding stays zero
// forever — Popcount/FindFirst/AnySet over the padded stride equal their
// values over the logical width. This is the same tail-zero invariant
// bitset64.h maintains for the last partial word, extended to whole
// words.
//
// std::vector<uint64_t> guarantees neither invariant (typical alignment
// is 16 bytes), hence this tiny owning buffer. Resize discards contents
// (the solvers overwrite rows before reading them) and only reallocates
// on growth, matching the grow-and-reuse lifecycle of the leased
// workspaces.

#ifndef HOMPRES_BASE_ROW_POOL_H_
#define HOMPRES_BASE_ROW_POOL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

namespace hompres {

inline constexpr size_t kRowAlignBytes = 64;

class AlignedWordPool {
 public:
  AlignedWordPool() = default;
  ~AlignedWordPool() { Release(); }

  AlignedWordPool(const AlignedWordPool&) = delete;
  AlignedWordPool& operator=(const AlignedWordPool&) = delete;
  AlignedWordPool(AlignedWordPool&& other) noexcept
      : words_(other.words_),
        size_(other.size_),
        capacity_(other.capacity_) {
    other.words_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
  }
  AlignedWordPool& operator=(AlignedWordPool&& other) noexcept {
    if (this != &other) {
      Release();
      words_ = other.words_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.words_ = nullptr;
      other.size_ = 0;
      other.capacity_ = 0;
    }
    return *this;
  }

  // Makes the pool hold `num_words` zeroed words at 64-byte alignment.
  // Grows capacity geometrically (never shrinks); contents do not
  // survive a resize. Throws std::bad_alloc on exhaustion, which the
  // kernel entry points already contain as a structured kMemory stop.
  void Resize(size_t num_words) {
    if (num_words > capacity_) {
      size_t new_capacity = capacity_ == 0 ? size_t{64} : capacity_;
      while (new_capacity < num_words) new_capacity *= 2;
      uint64_t* grown = static_cast<uint64_t*>(::operator new(
          new_capacity * sizeof(uint64_t), std::align_val_t{kRowAlignBytes}));
      Release();
      words_ = grown;
      capacity_ = new_capacity;
    }
    size_ = num_words;
    // A fresh pool resized to 0 still has a null buffer, and memset of a
    // null pointer is undefined even for 0 bytes.
    if (size_ != 0) std::memset(words_, 0, size_ * sizeof(uint64_t));
  }

  uint64_t* data() { return words_; }
  const uint64_t* data() const { return words_; }
  size_t size() const { return size_; }

 private:
  void Release() {
    if (words_ != nullptr) {
      ::operator delete(words_, std::align_val_t{kRowAlignBytes});
      words_ = nullptr;
    }
  }

  uint64_t* words_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace hompres

#endif  // HOMPRES_BASE_ROW_POOL_H_
