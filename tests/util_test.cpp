#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>

#include "util/flags.h"
#include "util/ids.h"
#include "util/json.h"
#include "util/priority.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/time.h"

namespace rtcm {
namespace {

// --- time -------------------------------------------------------------------

TEST(DurationTest, ConstructorsAndAccessors) {
  EXPECT_EQ(Duration::microseconds(5).usec(), 5);
  EXPECT_EQ(Duration::milliseconds(5).usec(), 5000);
  EXPECT_EQ(Duration::seconds(5).usec(), 5000000);
  EXPECT_TRUE(Duration::zero().is_zero());
  EXPECT_TRUE(Duration(-1).is_negative());
  EXPECT_DOUBLE_EQ(Duration::seconds(2).as_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(Duration::milliseconds(3).as_milliseconds(), 3.0);
}

TEST(DurationTest, Arithmetic) {
  const Duration a = Duration::milliseconds(10);
  const Duration b = Duration::milliseconds(4);
  EXPECT_EQ((a + b).usec(), 14000);
  EXPECT_EQ((a - b).usec(), 6000);
  EXPECT_EQ((b * 3).usec(), 12000);
  Duration c = a;
  c += b;
  EXPECT_EQ(c.usec(), 14000);
  c -= a;
  EXPECT_EQ(c, b);
}

TEST(DurationTest, ScaledRounds) {
  EXPECT_EQ(Duration(10).scaled(1.5).usec(), 15);
  EXPECT_EQ(Duration(3).scaled(0.5).usec(), 2);  // 1.5 rounds to 2
}

TEST(DurationTest, RatioAndComparison) {
  EXPECT_DOUBLE_EQ(Duration(500).ratio(Duration(1000)), 0.5);
  EXPECT_LT(Duration(1), Duration(2));
  EXPECT_EQ(Duration::max().usec(), std::numeric_limits<std::int64_t>::max());
}

TEST(DurationTest, ToStringPicksUnit) {
  EXPECT_EQ(Duration::seconds(2).to_string(), "2s");
  EXPECT_EQ(Duration::milliseconds(250).to_string(), "250ms");
  EXPECT_EQ(Duration::microseconds(17).to_string(), "17us");
  EXPECT_EQ(Duration::microseconds(1500).to_string(), "1500us");
}

TEST(TimeTest, Arithmetic) {
  const Time t = Time::epoch() + Duration::seconds(1);
  EXPECT_EQ(t.usec(), 1000000);
  EXPECT_EQ((t + Duration::seconds(1)) - t, Duration::seconds(1));
  EXPECT_EQ(t - Duration::milliseconds(500), Time(500000));
  Time u = t;
  u += Duration(1);
  EXPECT_GT(u, t);
}

// --- ids / priority ----------------------------------------------------------

TEST(IdsTest, ValidityAndOrdering) {
  EXPECT_FALSE(ProcessorId().valid());
  EXPECT_TRUE(ProcessorId(0).valid());
  EXPECT_LT(TaskId(1), TaskId(2));
  EXPECT_EQ(JobId(7).to_string(), "J7");
  EXPECT_EQ(ProcessorId(3).to_string(), "P3");
}

TEST(IdsTest, Hashable) {
  std::set<ProcessorId> procs{ProcessorId(1), ProcessorId(2), ProcessorId(1)};
  EXPECT_EQ(procs.size(), 2u);
}

TEST(PriorityTest, SmallerLevelPreempts) {
  EXPECT_TRUE(Priority(0).preempts(Priority(1)));
  EXPECT_FALSE(Priority(1).preempts(Priority(1)));
  EXPECT_FALSE(Priority(2).preempts(Priority(1)));
  EXPECT_TRUE(Priority::highest().preempts(Priority::lowest()));
}

// --- rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformRealRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform_real(0.25, 0.75);
    EXPECT_GE(v, 0.25);
    EXPECT_LT(v, 0.75);
  }
}

TEST(RngTest, ExponentialMeanIsApproximatelyRight) {
  Rng rng(7);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(RngTest, ProportionsSumToOne) {
  Rng rng(3);
  for (std::size_t n : {1u, 2u, 5u, 20u}) {
    const auto p = rng.proportions(n);
    ASSERT_EQ(p.size(), n);
    double sum = 0;
    for (double x : p) {
      EXPECT_GT(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng base(42);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  // Same salt twice gives the same stream.
  Rng f1b = Rng(42).fork(1);
  EXPECT_EQ(f1.uniform_int(0, 1 << 30), f1b.uniform_int(0, 1 << 30));
  // Different salts give different streams (overwhelmingly likely).
  bool differs = false;
  for (int i = 0; i < 10; ++i) {
    if (f1.uniform_int(0, 1 << 30) != f2.uniform_int(0, 1 << 30)) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, IndexAndShuffle) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_LT(rng.index(7), 7u);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);  // same elements
}

TEST(RngTest, ExponentialDuration) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(
        rng.exponential_duration(Duration::milliseconds(10)).usec());
  }
  EXPECT_NEAR(sum / n, 10000.0, 500.0);
}

// --- stats -------------------------------------------------------------------

TEST(OnlineStatsTest, BasicMoments) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStatsTest, MergeMatchesCombinedStream) {
  OnlineStats all;
  OnlineStats a;
  OnlineStats b;
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform_real(0, 100);
    all.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SamplesTest, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
}

TEST(SamplesTest, SingleAndEmpty) {
  Samples s;
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  s.add(7);
  EXPECT_DOUBLE_EQ(s.percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 7.0);
}

TEST(HistogramTest, BucketsAndOverflow) {
  Histogram h(0, 10, 10);
  for (double v : {-1.0, 0.0, 0.5, 5.0, 9.99, 10.0, 42.0}) h.add(v);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bucket(0), 2u);  // 0.0 and 0.5
  EXPECT_EQ(h.bucket(5), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
  EXPECT_EQ(h.render().size(), 10u);
}

// --- strings -----------------------------------------------------------------

TEST(StringsTest, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, SplitWhitespace) {
  EXPECT_EQ(split_whitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_whitespace("   ").empty());
}

TEST(StringsTest, TrimAndCase) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(to_lower("AbC"), "abc");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
  EXPECT_TRUE(ends_with("file.xml", ".xml"));
  EXPECT_FALSE(ends_with("xml", ".xml"));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringsTest, ParseInt64) {
  std::int64_t v = 0;
  EXPECT_TRUE(parse_int64("42", v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parse_int64(" -7 ", v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(parse_int64("4x", v));
  EXPECT_FALSE(parse_int64("", v));
}

TEST(StringsTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(parse_double("2.5", v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_FALSE(parse_double("2.5.6", v));
}

TEST(StringsTest, ParseBool) {
  bool v = false;
  EXPECT_TRUE(parse_bool("Yes", v));
  EXPECT_TRUE(v);
  EXPECT_TRUE(parse_bool("0", v));
  EXPECT_FALSE(v);
  EXPECT_FALSE(parse_bool("maybe", v));
}

TEST(StringsTest, Strfmt) {
  EXPECT_EQ(strfmt("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strfmt("%.2f", 1.2345), "1.23");
}

// --- flags -------------------------------------------------------------------

TEST(FlagsTest, ParseForms) {
  const char* argv[] = {"prog", "--alpha=1", "--beta", "2",
                        "--gamma", "g1", "--delta=x y", "--bare"};
  const Flags flags = Flags::parse(8, argv);
  EXPECT_EQ(flags.get_int("alpha", 0), 1);
  EXPECT_EQ(flags.get_int("beta", 0), 2);
  EXPECT_EQ(flags.get_string("gamma", ""), "g1");
  EXPECT_EQ(flags.get_string("delta", ""), "x y");
  EXPECT_TRUE(flags.get_bool("bare", false));
}

TEST(FlagsTest, DefaultsAndErrors) {
  const char* argv[] = {"prog", "--n=abc"};
  const Flags flags = Flags::parse(2, argv);
  EXPECT_EQ(flags.get_int("n", 9), 9);
  EXPECT_EQ(flags.errors().size(), 1u);
  EXPECT_EQ(flags.get_int("missing", 3), 3);
  EXPECT_FALSE(flags.has("missing"));
}

TEST(FlagsTest, Positional) {
  const char* argv[] = {"prog", "one", "--k=v", "two"};
  const Flags flags = Flags::parse(4, argv);
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"one", "two"}));
}

TEST(FlagsTest, NegativeNumberTokenStaysPositional) {
  // The --name value lookahead must not swallow "-5": --verbose is a bare
  // bool and the number stays positional.  Negative values are spelled
  // --name=-5.
  const char* argv[] = {"prog", "--verbose", "-5", "--offset=-5", "--x",
                        "-.25"};
  const Flags flags = Flags::parse(6, argv);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_TRUE(flags.get_bool("x", false));
  EXPECT_EQ(flags.get_int("offset", 0), -5);
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"-5", "-.25"}));
}

TEST(FlagsTest, NonNumericDashTokenIsStillAValue) {
  // Only number-shaped tokens are exempt from the lookahead; "-v" or "-"
  // keep the historical behaviour of being consumed as the value.
  const char* argv[] = {"prog", "--mode", "-v", "--sep", "-"};
  const Flags flags = Flags::parse(5, argv);
  EXPECT_EQ(flags.get_string("mode", ""), "-v");
  EXPECT_EQ(flags.get_string("sep", ""), "-");
}

TEST(FlagsTest, DoubleDashEndsFlagParsing) {
  const char* argv[] = {"prog", "--a=1", "--", "--b=2", "-3", "plain"};
  const Flags flags = Flags::parse(6, argv);
  EXPECT_EQ(flags.get_int("a", 0), 1);
  EXPECT_FALSE(flags.has("b"));
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"--b=2", "-3", "plain"}));
}

TEST(FlagsTest, DoubleDashAfterBareFlagIsNotItsValue) {
  const char* argv[] = {"prog", "--bare", "--", "tail"};
  const Flags flags = Flags::parse(4, argv);
  EXPECT_TRUE(flags.get_bool("bare", false));
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"tail"}));
}

TEST(FlagsTest, EmptyValueIsARecordedErrorForNumericGetters) {
  const char* argv[] = {"prog", "--n=", "--d=", "--s="};
  const Flags flags = Flags::parse(4, argv);
  EXPECT_EQ(flags.get_int("n", 7), 7);
  EXPECT_EQ(flags.get_double("d", 2.5), 2.5);
  EXPECT_EQ(flags.errors().size(), 2u);
  // String getters keep the empty value without complaint.
  EXPECT_TRUE(flags.has("s"));
  EXPECT_EQ(flags.get_string("s", "def"), "");
  EXPECT_EQ(flags.errors().size(), 2u);
}

// --- result ------------------------------------------------------------------

TEST(StatusTest, OkAndError) {
  EXPECT_TRUE(Status::ok().is_ok());
  const Status e = Status::error("boom");
  EXPECT_FALSE(e.is_ok());
  EXPECT_EQ(e.message(), "boom");
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = 5;
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value(), 5);
  auto err = Result<int>::error("nope");
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.message(), "nope");
}

// --- json --------------------------------------------------------------------

TEST(JsonTest, BuildAndDumpCompact) {
  json::Value obj = json::Value::object();
  obj.set("name", "fig5");
  obj.set("ok", true);
  obj.set("ratio", 0.5);
  obj.set("count", 42);
  json::Value arr = json::Value::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(json::Value());
  obj.set("items", arr);
  EXPECT_EQ(obj.dump_compact(),
            "{\"name\": \"fig5\", \"ok\": true, \"ratio\": 0.5, "
            "\"count\": 42, \"items\": [1, \"two\", null]}");
}

TEST(JsonTest, ObjectPreservesInsertionOrderAndOverwrites) {
  json::Value obj = json::Value::object();
  obj.set("b", 1);
  obj.set("a", 2);
  obj.set("b", 3);  // overwrite keeps position
  ASSERT_EQ(obj.members().size(), 2u);
  EXPECT_EQ(obj.members()[0].first, "b");
  EXPECT_EQ(obj.members()[0].second.as_int(), 3);
  EXPECT_EQ(obj.members()[1].first, "a");
  EXPECT_TRUE(obj.contains("a"));
  EXPECT_FALSE(obj.contains("c"));
  EXPECT_TRUE(obj.get("c").is_null());
}

TEST(JsonTest, NumberFormattingIsCanonical) {
  EXPECT_EQ(json::number_to_string(0.0), "0");
  EXPECT_EQ(json::number_to_string(322.0), "322");
  EXPECT_EQ(json::number_to_string(-7.0), "-7");
  EXPECT_EQ(json::number_to_string(0.5), "0.5");
  // Shortest round-trip form: parsing the string recovers the exact bits.
  const double tricky = 0.1 + 0.2;
  double out = 0.0;
  ASSERT_TRUE(parse_double(json::number_to_string(tricky), out));
  EXPECT_EQ(out, tricky);
  EXPECT_EQ(json::number_to_string(1.0 / 0.0), "null");
}

TEST(JsonTest, ParseDocument) {
  const auto parsed = json::Value::parse(
      "  {\"a\": [1, 2.5, -3e2], \"b\": {\"nested\": false}, "
      "\"s\": \"q\\\"\\n\\u0041\"} ");
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  const json::Value& v = parsed.value();
  EXPECT_EQ(v.get("a").size(), 3u);
  EXPECT_EQ(v.get("a").at(0).as_int(), 1);
  EXPECT_DOUBLE_EQ(v.get("a").at(1).as_double(), 2.5);
  EXPECT_DOUBLE_EQ(v.get("a").at(2).as_double(), -300.0);
  EXPECT_FALSE(v.get("b").get("nested").as_bool(true));
  EXPECT_EQ(v.get("s").as_string(), "q\"\nA");
}

TEST(JsonTest, ParseDumpFixedPoint) {
  const char* text =
      "{\"x\": [1, {\"y\": \"z\"}, true, null], \"n\": -0.25}";
  const auto first = json::Value::parse(text);
  ASSERT_TRUE(first.is_ok());
  const std::string dumped = first.value().dump();
  const auto second = json::Value::parse(dumped);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value().dump(), dumped);
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(json::Value::parse("").is_ok());
  EXPECT_FALSE(json::Value::parse("{").is_ok());
  EXPECT_FALSE(json::Value::parse("[1,]").is_ok());
  EXPECT_FALSE(json::Value::parse("{\"a\" 1}").is_ok());
  EXPECT_FALSE(json::Value::parse("\"unterminated").is_ok());
  EXPECT_FALSE(json::Value::parse("troo").is_ok());
  EXPECT_FALSE(json::Value::parse("{} trailing").is_ok());
  EXPECT_FALSE(json::Value::parse("1e").is_ok());
}

TEST(JsonTest, TypedAccessorDefaultsOnMismatch) {
  const json::Value s("text");
  EXPECT_EQ(s.as_int(7), 7);
  EXPECT_DOUBLE_EQ(s.as_double(1.5), 1.5);
  EXPECT_TRUE(s.as_bool(true));
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.at(0).is_null());
  const json::Value n(3.0);
  EXPECT_EQ(n.as_string(), "");
  // A number with no int64 value is a mismatch too, not a cast.
  EXPECT_TRUE(json::Value(-0x1p63).is_int64());
  EXPECT_EQ(json::Value(-0x1p63).as_int(7), INT64_MIN);
  EXPECT_FALSE(json::Value(0x1p63).is_int64());
  EXPECT_EQ(json::Value(1e19).as_int(7), 7);
  EXPECT_EQ(json::Value(-1e19).as_int(7), 7);
  EXPECT_EQ(json::Value(std::numeric_limits<double>::infinity()).as_int(7), 7);
  EXPECT_EQ(json::Value(std::numeric_limits<double>::quiet_NaN()).as_int(7),
            7);
  EXPECT_FALSE(s.is_int64());
}

}  // namespace
}  // namespace rtcm
