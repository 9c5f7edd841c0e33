#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/bitset.h"
#include "common/csv.h"
#include "common/ids.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/time.h"

namespace corropt::common {
namespace {

// Number of set bits, through the public per-bit test.
std::size_t count_set(const DynamicBitset& bits) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) total += bits.test(i);
  return total;
}

TEST(DynamicBitset, SetTestResetAcrossWordBoundaries) {
  // Odd size spanning three words; exercise bits on both sides of each
  // 64-bit boundary.
  DynamicBitset bits(131);
  EXPECT_EQ(bits.size(), 131u);
  EXPECT_EQ(count_set(bits), 0u);
  for (const std::size_t i : {0u, 63u, 64u, 127u, 128u, 130u}) {
    EXPECT_FALSE(bits.test(i));
    bits.set(i);
    EXPECT_TRUE(bits.test(i));
  }
  EXPECT_EQ(count_set(bits), 6u);
  bits.reset(64);
  EXPECT_FALSE(bits.test(64));
  EXPECT_TRUE(bits.test(63));
  EXPECT_TRUE(bits.test(127));
  EXPECT_EQ(count_set(bits), 5u);
  bits.set(64, true);
  bits.set(63, false);
  EXPECT_TRUE(bits.test(64));
  EXPECT_FALSE(bits.test(63));
  DynamicBitset other(131);
  other.set(63);
  bits |= other;
  EXPECT_TRUE(bits.test(63));
  EXPECT_EQ(count_set(bits), 6u);
  EXPECT_EQ(bits.words()[1], (DynamicBitset::Word{1} << 63) | 1u);
}

TEST(DynamicBitset, PushBackAssignAndEquality) {
  DynamicBitset bits;
  EXPECT_TRUE(bits.empty());
  for (std::size_t i = 0; i < 67; ++i) bits.push_back(i % 3 == 0);
  EXPECT_EQ(bits.size(), 67u);
  EXPECT_EQ(count_set(bits), 23u);  // ceil(67 / 3)
  EXPECT_TRUE(bits.test(66));
  EXPECT_FALSE(bits.test(65));
  DynamicBitset other(67);
  for (std::size_t i = 0; i < 67; i += 3) other.set(i);
  EXPECT_EQ(bits, other);
  other.reset(66);
  EXPECT_FALSE(bits == other);
  bits.assign(5);
  EXPECT_EQ(bits.size(), 5u);
  EXPECT_EQ(bits, DynamicBitset(5));
}

TEST(Ids, DefaultIsInvalid) {
  LinkId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE(LinkId(0).valid());
  EXPECT_EQ(LinkId::invalid(), LinkId{});
}

TEST(Ids, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<LinkId, SwitchId>);
  static_assert(!std::is_same_v<LinkId, DirectionId>);
}

TEST(Ids, OrderingAndHash) {
  EXPECT_LT(LinkId(1), LinkId(2));
  EXPECT_EQ(std::hash<LinkId>{}(LinkId(7)), std::hash<LinkId>{}(LinkId(7)));
}

TEST(Time, Conversions) {
  EXPECT_EQ(kDay, 86400);
  EXPECT_EQ(kPollInterval, 900);
  EXPECT_DOUBLE_EQ(to_days(3 * kDay), 3.0);
  EXPECT_DOUBLE_EQ(to_hours(kDay), 24.0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a() == b();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(9);
  std::array<int, 5> counts{};
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) counts[rng.uniform_index(5)]++;
  for (int count : counts) {
    EXPECT_NEAR(count, kDraws / 5, kDraws / 50);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0.0, sq = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sq / kDraws, 1.0, 0.03);
}

TEST(Rng, LogUniformStaysInRangeAndFillsDecades) {
  Rng rng(19);
  int low_decade = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.log_uniform(1e-8, 1e-4);
    ASSERT_GE(v, 1e-8);
    ASSERT_LT(v, 1e-4);
    if (v < 1e-6) ++low_decade;
  }
  // Log-uniform: half the mass below the geometric midpoint 1e-6.
  EXPECT_NEAR(low_decade, 5000, 300);
}

TEST(Rng, ExponentialMean) {
  Rng rng(23);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / kDraws, 4.0, 0.1);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng rng(29);
  for (double mean : {0.5, 8.0, 200.0}) {
    double sum = 0.0;
    constexpr int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i) {
      sum += static_cast<double>(rng.poisson(mean));
    }
    EXPECT_NEAR(sum / kDraws, mean, mean * 0.05 + 0.05);
  }
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(31);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(37);
  const std::array<double, 3> weights = {1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) counts[rng.weighted_index(weights)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0], kDraws / 4, kDraws / 40);
  EXPECT_NEAR(counts[2], 3 * kDraws / 4, kDraws / 40);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(41);
  const auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  const std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t v : unique) EXPECT_LT(v, 100u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(55);
  Rng child = a.fork();
  // The child stream should not replicate the parent's next outputs.
  int same = 0;
  for (int i = 0; i < 50; ++i) same += a() == child();
  EXPECT_LT(same, 2);
}

TEST(CounterRng, SameKeySameSequence) {
  CounterRng a(1, 2, 3), b(1, 2, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(CounterRng, KeyComponentsAreDisjoint) {
  // Every (seed, stream, counter) key must open an effectively distinct
  // stream: across a grid of nearby keys — the adjacent-key pattern the
  // measurement study produces — no two first draws may collide, and
  // flipping any single component must change the output.
  std::set<std::uint64_t> first_draws;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    for (std::uint64_t stream = 0; stream < 8; ++stream) {
      for (std::uint64_t counter = 0; counter < 64; ++counter) {
        first_draws.insert(CounterRng(seed, stream, counter)());
      }
    }
  }
  EXPECT_EQ(first_draws.size(), 8u * 8u * 64u);
  const std::uint64_t base = CounterRng(9, 9, 9)();
  EXPECT_NE(CounterRng(10, 9, 9)(), base);
  EXPECT_NE(CounterRng(9, 10, 9)(), base);
  EXPECT_NE(CounterRng(9, 9, 10)(), base);
}

TEST(CounterRng, UniformInUnitInterval) {
  CounterRng rng(7, 0, 0);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(CounterRng, NormalMoments) {
  CounterRng rng(17, 1, 0);
  double sum = 0.0, sumsq = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / kDraws;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(sumsq / kDraws - mean * mean), 3.0, 0.05);
}

TEST(CounterRng, PoissonMoments) {
  // Covers both sampling paths: Knuth (mean <= 64) and the normal
  // approximation above it.
  for (double mean : {0.5, 5.0, 200.0}) {
    CounterRng rng(29, 2, static_cast<std::uint64_t>(mean * 10));
    double sum = 0.0, sumsq = 0.0;
    constexpr int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i) {
      const auto x = static_cast<double>(rng.poisson(mean));
      sum += x;
      sumsq += x * x;
    }
    const double m = sum / kDraws;
    EXPECT_NEAR(m, mean, mean * 0.05 + 0.05);
    // Poisson variance equals its mean.
    EXPECT_NEAR(sumsq / kDraws - m * m, mean, mean * 0.10 + 0.10);
  }
}

TEST(CounterRng, PoissonZeroMean) {
  CounterRng rng(31, 0, 0);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Csv, WritesSimpleRow) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row("a", 1, 2.5);
  EXPECT_EQ(out.str(), "a,1,2.5\n");
}

TEST(Csv, QuotesSpecialCharacters) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.write_row({"x,y", "he said \"hi\"", "line\nbreak"});
  EXPECT_EQ(out.str(), "\"x,y\",\"he said \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(Csv, RoundTripParse) {
  const std::vector<std::string> fields = {"plain", "with,comma",
                                           "with \"quote\""};
  std::ostringstream out;
  CsvWriter csv(out);
  csv.write_row(fields);
  std::string line = out.str();
  line.pop_back();  // trailing newline
  EXPECT_EQ(parse_csv_row(line), fields);
}

TEST(Csv, ParseEmptyFields) {
  const auto fields = parse_csv_row("a,,b");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "");
}

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, NumbersRoundTripExactly) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(-3.0), "-3");
  for (const double v : {0.1, 1.0 / 3.0, 1.23456789012345e-7, 6.02e23}) {
    const std::string text = json_number(v);
    EXPECT_EQ(std::stod(text), v) << text;
  }
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(INFINITY), "null");
}

TEST(Json, WritesNestedDocument) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.member("name", "sweep");
  json.member("count", std::int64_t{3});
  json.member("ok", true);
  json.key("nested").begin_object();
  json.member("ratio", 0.5);
  json.end_object();
  json.key("items").begin_array();
  json.value("a");
  json.value(std::int64_t{2});
  json.value(std::nan(""));  // Non-finite: written as null.
  json.end_array();
  json.member("series", std::vector<double>{1.0, 2.5});
  json.end_object();
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"name\": \"sweep\",\n"
            "  \"count\": 3,\n"
            "  \"ok\": true,\n"
            "  \"nested\": {\n"
            "    \"ratio\": 0.5\n"
            "  },\n"
            "  \"items\": [\n"
            "    \"a\",\n"
            "    2,\n"
            "    null\n"
            "  ],\n"
            "  \"series\": [1, 2.5]\n"
            "}\n");
}

TEST(Json, EmptyContainersStayCompact) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key("empty_object").begin_object().end_object();
  json.key("empty_array").begin_array().end_array();
  json.end_object();
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"empty_object\": {},\n"
            "  \"empty_array\": []\n"
            "}\n");
}

}  // namespace
}  // namespace corropt::common
