#ifndef FEATSEP_UTIL_SVO_BITSET_H_
#define FEATSEP_UTIL_SVO_BITSET_H_

#include <cstdint>
#include <cstring>

#include "util/check.h"

namespace featsep {

namespace svo_internal {

/// Word-level kernels shared by the SvoBitset operations. Each is a single
/// pass, manually unrolled four words wide with independent accumulators so
/// the compiler can keep the popcount reductions in separate registers and,
/// under -march=native (FEATSEP_NATIVE), vectorize the AND loop.
/// The hot callers (the homomorphism kernel's forward checking) spend most
/// of their time here, so these never branch per word beyond the loop test.

inline std::size_t PopcountWords(const std::uint64_t* a, std::size_t n) {
  std::size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += static_cast<std::size_t>(__builtin_popcountll(a[i]));
    c1 += static_cast<std::size_t>(__builtin_popcountll(a[i + 1]));
    c2 += static_cast<std::size_t>(__builtin_popcountll(a[i + 2]));
    c3 += static_cast<std::size_t>(__builtin_popcountll(a[i + 3]));
  }
  for (; i < n; ++i) {
    c0 += static_cast<std::size_t>(__builtin_popcountll(a[i]));
  }
  return c0 + c1 + c2 + c3;
}

/// popcount(a & b) without materializing the intersection.
inline std::size_t AndCountWords(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t n) {
  std::size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += static_cast<std::size_t>(__builtin_popcountll(a[i] & b[i]));
    c1 += static_cast<std::size_t>(__builtin_popcountll(a[i + 1] & b[i + 1]));
    c2 += static_cast<std::size_t>(__builtin_popcountll(a[i + 2] & b[i + 2]));
    c3 += static_cast<std::size_t>(__builtin_popcountll(a[i + 3] & b[i + 3]));
  }
  for (; i < n; ++i) {
    c0 += static_cast<std::size_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return c0 + c1 + c2 + c3;
}

inline void AndWords(std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a[i] &= b[i];
    a[i + 1] &= b[i + 1];
    a[i + 2] &= b[i + 2];
    a[i + 3] &= b[i + 3];
  }
  for (; i < n; ++i) a[i] &= b[i];
}

}  // namespace svo_internal

/// A fixed-size dynamic bitset with small-vector optimization: bitsets of up
/// to kInlineBits bits live entirely inside the object (no allocation), and
/// only larger ones spill to the heap. The homomorphism engine stores one
/// bitset per CSP variable and snapshots them onto its backtracking trail, so
/// copies must be cheap and allocation-free for the common case of domains
/// with at most a few hundred values (cf. the Glasgow subgraph solver's
/// SVOBitset design).
///
/// The bit universe size is fixed at construction; all binary operations
/// require operands of equal size. Bits beyond `size()` are never set, so
/// `count()`/`find_next()` need no masking.
class SvoBitset {
 public:
  static constexpr std::size_t kBitsPerWord = 64;
  static constexpr std::size_t kInlineWords = 4;
  static constexpr std::size_t kInlineBits = kInlineWords * kBitsPerWord;
  /// Sentinel returned by find_next when no bit is set.
  static constexpr std::size_t kNoBit = static_cast<std::size_t>(-1);

  /// An empty bitset over a universe of zero bits.
  SvoBitset() = default;

  /// A bitset over `bits` bits, all initialized to `value`.
  explicit SvoBitset(std::size_t bits, bool value = false) : bits_(bits) {
    if (num_words() > kInlineWords) heap_ = new std::uint64_t[num_words()];
    if (value) {
      set_all();
    } else {
      std::memset(words(), 0, num_words() * sizeof(std::uint64_t));
    }
  }

  SvoBitset(const SvoBitset& other) : bits_(other.bits_) {
    if (other.heap_ != nullptr) heap_ = new std::uint64_t[num_words()];
    std::memcpy(words(), other.words(), num_words() * sizeof(std::uint64_t));
  }

  SvoBitset(SvoBitset&& other) noexcept : bits_(other.bits_) {
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      other.heap_ = nullptr;
      other.bits_ = 0;
    } else {
      std::memcpy(inline_, other.inline_, sizeof(inline_));
    }
  }

  SvoBitset& operator=(const SvoBitset& other) {
    if (this == &other) return *this;
    if (num_words() != other.num_words() ||
        (heap_ != nullptr) != (other.heap_ != nullptr)) {
      delete[] heap_;
      heap_ = nullptr;
      bits_ = other.bits_;
      if (other.heap_ != nullptr) heap_ = new std::uint64_t[num_words()];
    } else {
      bits_ = other.bits_;
    }
    std::memcpy(words(), other.words(), num_words() * sizeof(std::uint64_t));
    return *this;
  }

  SvoBitset& operator=(SvoBitset&& other) noexcept {
    if (this == &other) return *this;
    delete[] heap_;
    heap_ = nullptr;
    bits_ = other.bits_;
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      other.heap_ = nullptr;
      other.bits_ = 0;
    } else {
      std::memcpy(inline_, other.inline_, sizeof(inline_));
    }
    return *this;
  }

  ~SvoBitset() { delete[] heap_; }

  /// Number of bits in the universe.
  std::size_t size() const { return bits_; }

  void set(std::size_t bit) {
    FEATSEP_CHECK_LT(bit, bits_);
    words()[bit / kBitsPerWord] |= std::uint64_t{1} << (bit % kBitsPerWord);
  }

  bool test(std::size_t bit) const {
    FEATSEP_CHECK_LT(bit, bits_);
    return (words()[bit / kBitsPerWord] >>
            (bit % kBitsPerWord)) & std::uint64_t{1};
  }

  void reset_all() {
    std::memset(words(), 0, num_words() * sizeof(std::uint64_t));
  }

  /// In-place intersection; `other` must have the same universe size.
  void intersect_with(const SvoBitset& other) {
    FEATSEP_CHECK_EQ(bits_, other.bits_);
    svo_internal::AndWords(words(), other.words(), num_words());
  }

  /// popcount(this & other) without writing or materializing a temporary —
  /// the forward-checking "would this mask shrink the domain?" probe.
  std::size_t and_count(const SvoBitset& other) const {
    FEATSEP_CHECK_EQ(bits_, other.bits_);
    return svo_internal::AndCountWords(words(), other.words(), num_words());
  }

  /// Number of set bits.
  std::size_t count() const {
    return svo_internal::PopcountWords(words(), num_words());
  }

  /// Index of the lowest set bit at position >= `from`, or kNoBit if none.
  std::size_t find_next(std::size_t from) const {
    if (from >= bits_) return kNoBit;
    const std::uint64_t* w = words();
    std::size_t word = from / kBitsPerWord;
    std::uint64_t masked = w[word] & (~std::uint64_t{0} << (from % kBitsPerWord));
    if (masked != 0) {
      return word * kBitsPerWord +
             static_cast<std::size_t>(__builtin_ctzll(masked));
    }
    for (std::size_t i = word + 1; i < num_words(); ++i) {
      if (w[i] != 0) {
        return i * kBitsPerWord +
               static_cast<std::size_t>(__builtin_ctzll(w[i]));
      }
    }
    return kNoBit;
  }

 private:
  /// Sets every bit of the universe.
  void set_all() {
    if (bits_ == 0) return;
    std::memset(words(), 0xff, num_words() * sizeof(std::uint64_t));
    std::size_t tail = bits_ % kBitsPerWord;
    if (tail != 0) {
      words()[num_words() - 1] = (std::uint64_t{1} << tail) - 1;
    }
  }

  std::size_t num_words() const {
    return (bits_ + kBitsPerWord - 1) / kBitsPerWord;
  }

  std::uint64_t* words() { return heap_ != nullptr ? heap_ : inline_; }
  const std::uint64_t* words() const {
    return heap_ != nullptr ? heap_ : inline_;
  }

  std::size_t bits_ = 0;
  std::uint64_t inline_[kInlineWords] = {0, 0, 0, 0};
  std::uint64_t* heap_ = nullptr;
};

}  // namespace featsep

#endif  // FEATSEP_UTIL_SVO_BITSET_H_
