#include "util/svo_bitset.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace featsep {
namespace {

// Sizes straddling every storage boundary: word edges and the inline↔heap
// transition at kInlineBits.
const std::size_t kBoundarySizes[] = {
    0,   1,   63,  64,  65,  127, 128, 129,
    SvoBitset::kInlineBits - 1, SvoBitset::kInlineBits,
    SvoBitset::kInlineBits + 1, 1000};

// Equal universes and equal bits, compared one bit at a time.
::testing::AssertionResult SameBits(const SvoBitset& a, const SvoBitset& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "universe " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.test(i) != b.test(i)) {
      return ::testing::AssertionFailure() << "bit " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(SvoBitsetTest, SetTestResetAcrossBoundaries) {
  for (std::size_t size : kBoundarySizes) {
    SvoBitset bits(size);
    EXPECT_EQ(bits.size(), size);
    EXPECT_EQ(bits.count(), 0u);
    for (std::size_t i = 0; i < size; ++i) {
      EXPECT_FALSE(bits.test(i));
      bits.set(i);
      EXPECT_TRUE(bits.test(i));
    }
    EXPECT_EQ(bits.count(), size);
    bits.reset_all();
    for (std::size_t i = 0; i < size; ++i) EXPECT_FALSE(bits.test(i));
    EXPECT_EQ(bits.count(), 0u);
  }
}

TEST(SvoBitsetTest, FilledConstructionMasksTailBits) {
  for (std::size_t size : kBoundarySizes) {
    SvoBitset bits(size, true);
    EXPECT_EQ(bits.count(), size);
    EXPECT_EQ(bits.find_next(0), size == 0 ? SvoBitset::kNoBit : 0u);
  }
}

TEST(SvoBitsetTest, FindFirstAndNext) {
  SvoBitset bits(300);
  EXPECT_EQ(bits.find_next(0), SvoBitset::kNoBit);
  bits.set(7);
  bits.set(64);
  bits.set(255);
  bits.set(299);
  EXPECT_EQ(bits.find_next(0), 7u);
  EXPECT_EQ(bits.find_next(7), 7u);
  EXPECT_EQ(bits.find_next(8), 64u);
  EXPECT_EQ(bits.find_next(65), 255u);
  EXPECT_EQ(bits.find_next(256), 299u);
  EXPECT_EQ(bits.find_next(300), SvoBitset::kNoBit);
}

TEST(SvoBitsetTest, IntersectUnionIntersects) {
  for (std::size_t size : {60ul, 500ul}) {
    SvoBitset a(size);
    SvoBitset b(size);
    for (std::size_t i = 0; i < size; i += 2) a.set(i);
    for (std::size_t i = 0; i < size; i += 3) b.set(i);

    SvoBitset both = a;
    both.intersect_with(b);
    for (std::size_t i = 0; i < size; ++i) {
      EXPECT_EQ(both.test(i), i % 6 == 0) << i;
    }
  }
}

TEST(SvoBitsetTest, CopyAndMoveAcrossInlineHeapBoundary) {
  for (std::size_t size :
       {SvoBitset::kInlineBits, SvoBitset::kInlineBits + 1}) {
    SvoBitset original(size);
    original.set(5);
    original.set(size - 1);

    SvoBitset copy(original);
    EXPECT_TRUE(SameBits(copy, original));
    copy.set(6);
    EXPECT_FALSE(original.test(6));  // Deep copy, no sharing.

    SvoBitset moved(std::move(copy));
    EXPECT_TRUE(moved.test(6));
    EXPECT_TRUE(moved.test(size - 1));

    // Cross-size assignments reallocate/shrink correctly.
    SvoBitset small(8);
    small.set(3);
    small = original;
    EXPECT_TRUE(SameBits(small, original));
    SvoBitset big(2000, true);
    big = original;
    EXPECT_TRUE(SameBits(big, original));

    SvoBitset target(17);
    target = std::move(moved);
    EXPECT_EQ(target.size(), size);
    EXPECT_TRUE(target.test(size - 1));
  }
}

TEST(SvoBitsetTest, SetAllResetAll) {
  SvoBitset bits(70, true);
  EXPECT_EQ(bits.count(), 70u);
  bits.reset_all();
  EXPECT_EQ(bits.count(), 0u);
  EXPECT_EQ(bits.find_next(0), SvoBitset::kNoBit);
}

TEST(SvoBitsetTest, IntersectWithEmptyAtExactInlineBoundary) {
  // Regression guard for the 256-bit storage transition: a full bitset
  // intersected with an all-zero one of the same universe must clear every
  // word — including the last inline word at exactly kInlineBits, and the
  // first heap word one past it.
  for (std::size_t bits :
       {SvoBitset::kInlineBits - 1, SvoBitset::kInlineBits,
        SvoBitset::kInlineBits + 1}) {
    SvoBitset full(bits, true);
    SvoBitset empty(bits);
    ASSERT_EQ(full.count(), bits);
    full.intersect_with(empty);
    EXPECT_EQ(full.count(), 0u) << "universe " << bits;
    EXPECT_EQ(full.find_next(0), SvoBitset::kNoBit) << "universe " << bits;
    EXPECT_EQ(full.and_count(empty), 0u) << "universe " << bits;
    // And the reverse orientation: empty stays empty.
    SvoBitset full2(bits, true);
    SvoBitset empty2(bits);
    empty2.intersect_with(full2);
    EXPECT_EQ(empty2.count(), 0u) << "universe " << bits;
  }
}

// Deterministic pseudo-random pattern: bit i of a set iff the mixed hash of
// (seed, i) has its low bit set. Exercises the unrolled 4-word kernels on
// non-trivial word contents at every boundary size.
SvoBitset PatternBitset(std::size_t size, std::uint64_t seed) {
  SvoBitset bits(size);
  for (std::size_t i = 0; i < size; ++i) {
    std::uint64_t h = (seed + i) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    if (h & 1) bits.set(i);
  }
  return bits;
}

TEST(SvoBitsetTest, AndCountMatchesScalarAcrossBoundaries) {
  for (std::size_t size : kBoundarySizes) {
    SvoBitset a = PatternBitset(size, 1);
    SvoBitset b = PatternBitset(size, 2);
    std::size_t expected = 0;
    for (std::size_t i = 0; i < size; ++i) {
      if (a.test(i) && b.test(i)) ++expected;
    }
    EXPECT_EQ(a.and_count(b), expected) << "universe " << size;
    // The read-only probe must not modify either operand.
    EXPECT_TRUE(SameBits(a, PatternBitset(size, 1)));
    EXPECT_TRUE(SameBits(b, PatternBitset(size, 2)));
  }
}

TEST(SvoBitsetTest, FusedKernelsAgreeOnDisjointAndIdenticalSets) {
  for (std::size_t size : kBoundarySizes) {
    if (size == 0) continue;
    SvoBitset evens(size);
    SvoBitset odds(size);
    for (std::size_t i = 0; i < size; i += 2) evens.set(i);
    for (std::size_t i = 1; i < size; i += 2) odds.set(i);
    EXPECT_EQ(evens.and_count(odds), 0u);
    EXPECT_EQ(evens.and_count(evens), evens.count());
    SvoBitset copy = evens;
    copy.intersect_with(odds);
    EXPECT_EQ(copy.count(), 0u);
  }
}

}  // namespace
}  // namespace featsep
