// Unit tests for the support layer: contracts, deterministic RNG, Zipf
// sampling, string interning, binary serialization and table formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <type_traits>

#include "support/assert.h"
#include "support/interner.h"
#include "support/rng.h"
#include "support/serialize.h"
#include "support/table.h"
#include "support/zipf.h"

namespace simprof {
namespace {

TEST(Assert, ExpectsThrowsContractViolationWithContext) {
  try {
    SIMPROF_EXPECTS(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Assert, PassingConditionsDoNotThrow) {
  EXPECT_NO_THROW(SIMPROF_EXPECTS(true, ""));
  EXPECT_NO_THROW(SIMPROF_ENSURES(2 + 2 == 4, ""));
  EXPECT_NO_THROW(SIMPROF_ASSERT(true, ""));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInBounds) {
  Rng rng(99);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 7ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowRejectsZeroBound) {
  Rng rng(1);
  EXPECT_THROW(rng.next_below(0), ContractViolation);
}

TEST(Rng, NextDoubleInHalfOpenUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformMeanIsNearHalf) {
  Rng rng(6);
  double acc = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) acc += rng.next_double();
  EXPECT_NEAR(acc / kN, 0.5, 0.02);
}

TEST(Rng, GaussianMomentsAreStandard) {
  Rng rng(7);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.05);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(11);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (parent.next_u64() == child.next_u64()) ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ShuffleIsAPermutation) {
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  Rng rng(3);
  shuffle(v, rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(Zipf, RankZeroIsMostFrequent) {
  ZipfSampler z(1000, 1.0);
  Rng rng(1);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; ++i) ++counts[z.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[100]);
}

TEST(Zipf, EmpiricalMatchesTheoreticalProbability) {
  ZipfSampler z(100, 1.2);
  Rng rng(2);
  constexpr int kN = 200000;
  std::vector<int> counts(100, 0);
  for (int i = 0; i < kN; ++i) ++counts[z.sample(rng)];
  for (std::size_t rank : {0UL, 1UL, 5UL, 20UL}) {
    const double expected = z.probability(rank);
    const double got = static_cast<double>(counts[rank]) / kN;
    EXPECT_NEAR(got, expected, 0.15 * expected + 0.002) << "rank " << rank;
  }
}

TEST(Zipf, ZeroExponentIsUniform) {
  ZipfSampler z(10, 0.0);
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(z.probability(r), 0.1, 1e-12);
  }
}

TEST(Zipf, GuideTableRankEqualsFullBinarySearch) {
  // The guide table must return exactly the rank a lower_bound over the
  // whole CDF returns, for Rng draws and for the inputs closest to its
  // bucket edges: every exact edge j/m, the double just below it, and the
  // largest draw below 1.
  auto reference = [](const ZipfSampler& z, double u) {
    const auto& cdf = z.cdf();
    return static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  };
  Rng rng(13);
  for (const std::size_t n : {1UL, 2UL, 3UL, 1000UL, 85196UL, 131072UL, 262144UL}) {
    for (const double s : {0.0, 0.5, 1.0, 1.2, 2.0}) {
      const ZipfSampler z(n, s);
      std::size_t mismatches = 0;
      for (int i = 0; i < 1'000'000; ++i) {
        Rng peek = rng;
        const double u = peek.next_double();
        mismatches += z.sample(rng) != reference(z, u);
      }
      const std::size_t m = std::bit_ceil(n);
      for (std::size_t j = 0; j < m; ++j) {
        const double edge = static_cast<double>(j) / static_cast<double>(m);
        mismatches += z.rank_at(edge) != reference(z, edge);
        if (j > 0) {
          const double below = std::nextafter(edge, 0.0);
          mismatches += z.rank_at(below) != reference(z, below);
        }
      }
      const double top = std::nextafter(1.0, 0.0);
      mismatches += z.rank_at(top) != reference(z, top);
      EXPECT_EQ(mismatches, 0u) << "n " << n << " s " << s;
      EXPECT_LT(z.rank_at(top), n);
    }
  }
}

TEST(Zipf, RejectsEmptyVocabulary) {
  EXPECT_THROW(ZipfSampler(0, 1.0), ContractViolation);
}

TEST(Interner, AssignsDenseStableIds) {
  StringInterner in;
  const auto a = in.intern("alpha");
  const auto b = in.intern("beta");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(in.intern("alpha"), a);
  EXPECT_EQ(in.size(), 2u);
  EXPECT_EQ(in.name(a), "alpha");
  EXPECT_EQ(in.name(b), "beta");
}

TEST(Interner, FindDoesNotIntern) {
  StringInterner in;
  EXPECT_FALSE(in.find("missing").has_value());
  EXPECT_EQ(in.size(), 0u);
  in.intern("x");
  EXPECT_TRUE(in.find("x").has_value());
}

TEST(Interner, UnknownIdThrows) {
  StringInterner in;
  EXPECT_THROW(in.name(0), ContractViolation);
}

TEST(Serialize, RoundTripsScalarsAndContainers) {
  std::stringstream buf;
  {
    BinaryWriter w(buf);
    w.u8(7);
    w.u32(0xdeadbeef);
    w.u64(1ULL << 60);
    w.f64(3.14159);
    w.str("hello world");
    w.vec_u32({1, 2, 3});
    w.vec_u64({});
    w.vec_f64({-1.5, 2.5});
  }
  BinaryReader r(buf);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 1ULL << 60);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello world");
  EXPECT_EQ(r.vec_u32(), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_TRUE(r.vec_u64().empty());
  EXPECT_EQ(r.vec_f64(), (std::vector<double>{-1.5, 2.5}));
}

TEST(Serialize, TruncatedReadThrows) {
  std::stringstream buf;
  {
    BinaryWriter w(buf);
    w.u32(1);
  }
  BinaryReader r(buf);
  EXPECT_THROW(r.u64(), ContractViolation);
}

TEST(Serialize, TypedErrorDerivesContractViolation) {
  // New catch sites distinguish bad input; old EXPECT_THROW sites keep
  // working because SerializeError is-a ContractViolation.
  static_assert(std::is_base_of_v<ContractViolation, SerializeError>);
  std::stringstream buf;
  BinaryReader r(buf);
  EXPECT_THROW(r.u8(), SerializeError);
}

TEST(Serialize, VectorPrefixBoundedByRemainingBytes) {
  // Regression: a corrupt u64 count used to feed reserve() unchecked, so a
  // hostile archive could demand a multi-gigabyte allocation up front.
  std::stringstream buf;
  {
    BinaryWriter w(buf);
    w.u64(1ULL << 40);  // claims ~10^12 u32 elements...
    w.u32(7);           // ...backed by four bytes
  }
  BinaryReader r(buf);
  EXPECT_THROW(r.vec_u32(), SerializeError);
}

TEST(Serialize, StringPrefixBoundedByRemainingBytes) {
  std::stringstream buf;
  {
    BinaryWriter w(buf);
    w.u64(1000);
    w.u8('x');
  }
  BinaryReader r(buf);
  EXPECT_THROW(r.str(), SerializeError);
}

TEST(Serialize, RemainingTracksConsumption) {
  std::stringstream buf;
  {
    BinaryWriter w(buf);
    w.u64(1);
    w.u32(2);
  }
  BinaryReader r(buf);
  EXPECT_EQ(r.remaining(), 12u);
  r.u64();
  EXPECT_EQ(r.remaining(), 4u);
  r.u32();
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Table, AlignedAndCsvOutput) {
  Table t({"name", "value"});
  t.row({"cpi", Table::num(1.2345, 2)});
  t.row({"err", Table::pct(0.016)});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("cpi"), std::string::npos);
  EXPECT_NE(s.find("1.23"), std::string::npos);
  EXPECT_NE(s.find("1.6%"), std::string::npos);
  EXPECT_NE(s.find("-- csv --"), std::string::npos);
  EXPECT_NE(s.find("cpi,1.23"), std::string::npos);
}

TEST(Table, RowArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.row({"only one"}), ContractViolation);
}

}  // namespace
}  // namespace simprof
