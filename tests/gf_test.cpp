// Field-axiom and table-consistency tests for GF(2^m).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "gf/gf2m.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace pair_ecc::gf {
namespace {

using pair_ecc::util::Xoshiro256;

class GfFieldParamTest : public ::testing::TestWithParam<unsigned> {
 protected:
  const GfField& f() const { return GfField::Get(GetParam()); }

  // Every (a, b) pair when m <= 8, a seeded sample of 20000 above.
  std::vector<std::pair<Elem, Elem>> Pairs(std::uint64_t seed) const {
    const unsigned size = f().Size();
    std::vector<std::pair<Elem, Elem>> pairs;
    if (GetParam() <= 8) {
      for (unsigned a = 0; a < size; ++a)
        for (unsigned b = 0; b < size; ++b)
          pairs.emplace_back(static_cast<Elem>(a), static_cast<Elem>(b));
    } else {
      Xoshiro256 rng(seed);
      for (int i = 0; i < 20000; ++i)
        pairs.emplace_back(static_cast<Elem>(rng.UniformBelow(size)),
                           static_cast<Elem>(rng.UniformBelow(size)));
    }
    return pairs;
  }
};

TEST_P(GfFieldParamTest, SizeAndOrder) {
  EXPECT_EQ(f().Size(), 1u << GetParam());
  EXPECT_EQ(f().Order(), (1u << GetParam()) - 1);
}

TEST_P(GfFieldParamTest, AdditionIsXor) {
  for (const auto& [a, b] : Pairs(100 + GetParam())) {
    ASSERT_EQ(f().Add(a, b), a ^ b);
    ASSERT_EQ(f().Sub(a, b), f().Add(a, b));
  }
}

TEST_P(GfFieldParamTest, MultiplicationCommutesAndHasIdentity) {
  for (const auto& [a, b] : Pairs(200 + GetParam())) {
    ASSERT_EQ(f().Mul(a, b), f().Mul(b, a)) << a << " * " << b;
    ASSERT_EQ(f().Mul(a, 1), a);
    ASSERT_EQ(f().Mul(a, 0), 0);
  }
}

TEST_P(GfFieldParamTest, MultiplicationAssociates) {
  Xoshiro256 rng(300 + GetParam());
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<Elem>(rng.UniformBelow(f().Size()));
    const auto b = static_cast<Elem>(rng.UniformBelow(f().Size()));
    const auto c = static_cast<Elem>(rng.UniformBelow(f().Size()));
    EXPECT_EQ(f().Mul(f().Mul(a, b), c), f().Mul(a, f().Mul(b, c)));
  }
}

TEST_P(GfFieldParamTest, DistributesOverAddition) {
  Xoshiro256 rng(400 + GetParam());
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<Elem>(rng.UniformBelow(f().Size()));
    const auto b = static_cast<Elem>(rng.UniformBelow(f().Size()));
    const auto c = static_cast<Elem>(rng.UniformBelow(f().Size()));
    EXPECT_EQ(f().Mul(a, f().Add(b, c)),
              f().Add(f().Mul(a, b), f().Mul(a, c)));
  }
}

TEST_P(GfFieldParamTest, EveryNonzeroElementHasInverse) {
  // Exhaustive for small fields, sampled for larger ones.
  const unsigned size = f().Size();
  const unsigned step = size > 4096 ? 13 : 1;
  for (unsigned x = 1; x < size; x += step) {
    const auto e = static_cast<Elem>(x);
    const Elem inv = f().Inv(e);
    EXPECT_EQ(f().Mul(e, inv), 1) << "x=" << x;
    EXPECT_EQ(f().Div(1, e), inv);
  }
}

TEST_P(GfFieldParamTest, DivisionInvertsMultiplication) {
  for (const auto& [a, b] : Pairs(500 + GetParam())) {
    if (b == 0) continue;
    ASSERT_EQ(f().Div(f().Mul(a, b), b), a) << a << " / " << b;
    ASSERT_EQ(f().Div(a, b), f().Mul(a, f().Inv(b))) << a << " / " << b;
  }
}

TEST_P(GfFieldParamTest, AlphaPowersEnumerateAllNonzeroElements) {
  std::vector<bool> seen(f().Size(), false);
  for (unsigned i = 0; i < f().Order(); ++i) {
    const Elem v = f().AlphaPow(i);
    ASSERT_NE(v, 0);
    ASSERT_LT(v, f().Size());
    EXPECT_FALSE(seen[v]) << "alpha^" << i << " repeats";
    seen[v] = true;
  }
}

TEST_P(GfFieldParamTest, LogIsInverseOfAlphaPow) {
  for (unsigned i = 0; i < f().Order(); ++i)
    ASSERT_EQ(f().Log(f().AlphaPow(i)), i);
}

TEST_P(GfFieldParamTest, PowMatchesRepeatedMultiplication) {
  Xoshiro256 rng(600 + GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const auto x = static_cast<Elem>(1 + rng.UniformBelow(f().Size() - 1));
    Elem acc = 1;
    for (unsigned e = 0; e < 16; ++e) {
      EXPECT_EQ(f().Pow(x, e), acc);
      acc = f().Mul(acc, x);
    }
  }
}

TEST_P(GfFieldParamTest, FermatLittleTheorem) {
  // x^(2^m - 1) == 1 for all nonzero x.
  Xoshiro256 rng(700 + GetParam());
  for (int i = 0; i < 50; ++i) {
    const auto x = static_cast<Elem>(1 + rng.UniformBelow(f().Size() - 1));
    EXPECT_EQ(f().Pow(x, f().Order()), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFieldSizes, GfFieldParamTest,
                         ::testing::Range(2u, 17u));

TEST(GfField, ZeroHasNoInverse) {
  const auto& f = GfField::Get(8);
  EXPECT_THROW(f.Inv(0), util::ContractViolation);
  EXPECT_THROW(f.Log(0), util::ContractViolation);
}

#if PAIR_DCHECK_IS_ON
TEST(GfFieldDeathTest, DivisionByZeroAbortsUnderDchecks) {
  // Div is a documented noexcept fast path: the b != 0 precondition is
  // enforced by PAIR_DCHECK (abort), not an exception, so the decoder's
  // inner loop carries no throw machinery.
  const auto& f = GfField::Get(8);
  EXPECT_DEATH(f.Div(5, 0), "division by zero");
}
#endif

TEST(GfField, DivisionIsTotalOverNonzeroDivisorsGf16) {
  // Exhaustive over GF(2^4): for every a and every b != 0, a/b is the unique
  // field element q with q*b == a, and the Div/Inv/Mul identities hold.
  // This is the property coverage backing Div's unchecked fast path.
  const auto& f = GfField::Get(4);
  for (unsigned a = 0; a < f.Size(); ++a) {
    for (unsigned b = 1; b < f.Size(); ++b) {
      const auto ea = static_cast<Elem>(a);
      const auto eb = static_cast<Elem>(b);
      const Elem q = f.Div(ea, eb);
      EXPECT_EQ(f.Mul(q, eb), ea) << "a=" << a << " b=" << b;
      EXPECT_EQ(f.Mul(ea, f.Inv(eb)), q) << "a=" << a << " b=" << b;
      // Uniqueness: q is the only solution of x*b == a.
      for (unsigned x = 0; x < f.Size(); ++x) {
        if (x == q) continue;
        EXPECT_NE(f.Mul(static_cast<Elem>(x), eb), ea)
            << "a=" << a << " b=" << b << " x=" << x;
      }
    }
  }
}

TEST(GfField, PowOfZero) {
  const auto& f = GfField::Get(8);
  EXPECT_EQ(f.Pow(0, 0), 1);  // convention 0^0 = 1
  EXPECT_EQ(f.Pow(0, 5), 0);
}

TEST(GfField, RejectsOutOfRangeM) {
  EXPECT_THROW(GfField(1, 0x3), std::invalid_argument);
  EXPECT_THROW(GfField(17, 0x3), std::invalid_argument);
  EXPECT_THROW(DefaultPrimitivePoly(1), std::invalid_argument);
}

TEST(GfField, RejectsNonPrimitivePolynomial) {
  // x^8 + 1 is not even irreducible.
  EXPECT_THROW(GfField(8, 0x101), std::invalid_argument);
  // x^4 + x^3 + x^2 + x + 1 is irreducible but not primitive (order 5).
  EXPECT_THROW(GfField(4, 0x1F), std::invalid_argument);
}

TEST(GfField, AcceptsAlternatePrimitivePolynomial) {
  // x^8 + x^5 + x^3 + x + 1 (0x12B) is primitive; the field must build and
  // satisfy Fermat.
  const GfField f(8, 0x12B);
  for (unsigned x = 1; x < 256; ++x)
    EXPECT_EQ(f.Pow(static_cast<Elem>(x), 255), 1);
}

TEST(GfField, GetMemoizesInstances) {
  const auto& a = GfField::Get(8);
  const auto& b = GfField::Get(8);
  EXPECT_EQ(&a, &b);
}

TEST(GfField, Gf256KnownProducts) {
  // Spot values for the 0x11D field, cross-checked against standard tables.
  const auto& f = GfField::Get(8);
  EXPECT_EQ(f.Mul(2, 2), 4);
  EXPECT_EQ(f.Mul(0x80, 2), 0x1D);  // overflow wraps through the polynomial
  EXPECT_EQ(f.AlphaPow(0), 1);
  EXPECT_EQ(f.AlphaPow(1), 2);
  EXPECT_EQ(f.AlphaPow(8), 0x1D);
}

}  // namespace
}  // namespace pair_ecc::gf
