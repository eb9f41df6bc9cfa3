// Unit tests for common utilities: RNG and tables.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "common/table.hpp"

namespace rt {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform();
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, 1.0f);
    const float w = rng.uniform(-2.0f, 3.0f);
    EXPECT_GE(w, -2.0f);
    EXPECT_LT(w, 3.0f);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(77);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, BernoulliRate) {
  Rng rng(31);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3f) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(11);
  Rng c1 = parent.split();
  Rng c2 = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1.next_u32() == c2.next_u32()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, PermutationIsBijective) {
  Rng rng(3);
  const auto perm = random_permutation(100, rng);
  std::set<int> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 99);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({std::string("x"), 1.5});
  t.add_row({std::string("longer"), 22.0});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("1.5000"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, RowWidthValidation) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only-one")}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, CsvEscaping) {
  Table t({"a"});
  t.add_row({std::string("hello, \"world\"")});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"hello, \"\"world\"\"\""), std::string::npos);
}

TEST(Table, PrecisionControl) {
  Table t({"v"});
  t.set_precision(2);
  t.add_row({3.14159});
  EXPECT_NE(t.to_string().find("3.14"), std::string::npos);
  EXPECT_EQ(t.to_string().find("3.1416"), std::string::npos);
}

TEST(Table, IntegerCells) {
  Table t({"n"});
  t.add_row({static_cast<long long>(42)});
  EXPECT_NE(t.to_csv().find("42"), std::string::npos);
}

}  // namespace
}  // namespace rt
