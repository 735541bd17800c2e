// Unit tests for src/common: the FP16 type, the deterministic RNG, the
// error-check macro, and the arithmetic helpers.

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/half.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "common/util.h"

namespace multigrain {
namespace {

// ---------------------------------------------------------------- half ----

TEST(HalfTest, ZeroRoundTrips)
{
    EXPECT_EQ(float(half(0.0f)), 0.0f);
    EXPECT_EQ(half(0.0f).bits(), 0u);
    EXPECT_EQ(half(-0.0f).bits(), 0x8000u);
}

TEST(HalfTest, ExactSmallIntegersRoundTrip)
{
    for (int i = -2048; i <= 2048; ++i) {
        const float f = static_cast<float>(i);
        EXPECT_EQ(float(half(f)), f) << "integer " << i;
    }
}

TEST(HalfTest, PowersOfTwoRoundTrip)
{
    for (int e = -14; e <= 15; ++e) {
        const float f = std::ldexp(1.0f, e);
        EXPECT_EQ(float(half(f)), f) << "2^" << e;
    }
}

TEST(HalfTest, KnownBitPatterns)
{
    EXPECT_EQ(half(1.0f).bits(), 0x3c00u);
    EXPECT_EQ(half(-2.0f).bits(), 0xc000u);
    EXPECT_EQ(half(0.5f).bits(), 0x3800u);
    EXPECT_EQ(half(65504.0f).bits(), 0x7bffu);  // Max finite.
    EXPECT_EQ(half(6.103515625e-5f).bits(), 0x0400u);  // Min normal.
    EXPECT_EQ(half(5.960464477539063e-8f).bits(), 0x0001u);  // Min subnorm.
}

TEST(HalfTest, RoundToNearestEven)
{
    // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10: ties to even
    // keep 1.0; anything above the halfway point rounds up.
    EXPECT_EQ(half(1.0f + 0x1.0p-11f).bits(), 0x3c00u);
    EXPECT_EQ(half(1.0f + 0x1.2p-11f).bits(), 0x3c01u);
    // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: ties to even
    // round *up* to the even mantissa 2.
    EXPECT_EQ(half(1.0f + 0x1.8p-10f).bits(), 0x3c02u);
}

TEST(HalfTest, OverflowBecomesInfinity)
{
    EXPECT_EQ(half(65520.0f).bits(), 0x7c00u);
    EXPECT_EQ(half(1e30f).bits(), 0x7c00u);
    EXPECT_EQ(half(-1e30f).bits(), 0xfc00u);
    EXPECT_TRUE(std::isinf(float(half(1e10f))));
}

TEST(HalfTest, LargestBelowOverflowStaysFinite)
{
    EXPECT_EQ(half(65519.0f).bits(), 0x7bffu);  // Rounds down to max.
}

TEST(HalfTest, InfinityAndNanPropagate)
{
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(half(inf).bits(), 0x7c00u);
    EXPECT_EQ(half(-inf).bits(), 0xfc00u);
    EXPECT_TRUE(std::isnan(float(half(std::nanf("")))));
}

TEST(HalfTest, SubnormalsRoundTrip)
{
    // Every subnormal half is exactly representable as a float.
    for (std::uint16_t bits = 1; bits < 0x0400u; ++bits) {
        const half h = half::from_bits(bits);
        EXPECT_EQ(half(float(h)).bits(), bits) << "subnormal " << bits;
    }
}

TEST(HalfTest, TinyValuesFlushToZeroOrMinSubnormal)
{
    // Below half of the smallest subnormal: rounds to zero.
    EXPECT_EQ(half(1e-9f).bits(), 0x0000u);
    // Just above half of the smallest subnormal: rounds to it.
    EXPECT_EQ(half(3.1e-8f).bits(), 0x0001u);
}

TEST(HalfTest, AllFiniteHalvesRoundTripThroughFloat)
{
    int checked = 0;
    for (std::uint32_t b = 0; b <= 0xffffu; ++b) {
        const auto bits = static_cast<std::uint16_t>(b);
        const std::uint16_t exp = (bits >> 10) & 0x1f;
        if (exp == 0x1f) {
            continue;  // Inf/NaN handled elsewhere.
        }
        EXPECT_EQ(half(float(half::from_bits(bits))).bits(), bits);
        ++checked;
    }
    EXPECT_EQ(checked, 63488);
}

TEST(HalfTest, ComparisonsFollowFloatSemantics)
{
    EXPECT_LT(half(1.0f), half(2.0f));
    EXPECT_GT(half(1.0f), half(-2.0f));
    EXPECT_EQ(half(0.0f), half(-0.0f));  // Signed zeros compare equal.
    EXPECT_LE(half(1.0f), half(1.0f));
}

TEST(HalfTest, CompoundAssignmentRoundsEachStep)
{
    half h(1.0f);
    h += half(1.0f);
    EXPECT_EQ(float(h), 2.0f);
    h *= half(0.5f);
    EXPECT_EQ(float(h), 1.0f);
    h -= half(0.25f);
    EXPECT_EQ(float(h), 0.75f);
}

TEST(HalfTest, HelpersMatchConstants)
{
    EXPECT_EQ(float(half_max()), 65504.0f);
    EXPECT_EQ(float(half_lowest()), -65504.0f);
    EXPECT_TRUE(std::isinf(float(half_neg_inf())));
    EXPECT_LT(float(half_neg_inf()), 0.0f);
}

// ----------------------------------------------------------------- rng ----

TEST(RngTest, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(a.next_u64(), b.next_u64());
    }
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        equal += a.next_u64() == b.next_u64();
    }
    EXPECT_LT(equal, 3);
}

TEST(RngTest, NextBelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(rng.next_below(17), 17u);
    }
}

TEST(RngTest, NextBelowCoversAllResidues)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        seen.insert(rng.next_below(13));
    }
    EXPECT_EQ(seen.size(), 13u);
}

TEST(RngTest, NextRangeInclusiveBounds)
{
    Rng rng(3);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const std::int64_t v = rng.next_range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        hit_lo |= v == -2;
        hit_hi |= v == 2;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(RngTest, FloatInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        const float f = rng.next_float();
        EXPECT_GE(f, 0.0f);
        EXPECT_LT(f, 1.0f);
    }
}

TEST(RngTest, FloatMeanIsRoughlyHalf)
{
    Rng rng(9);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        sum += rng.next_float();
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, SampleDistinctProducesSortedUnique)
{
    Rng rng(17);
    for (const std::int64_t count : {0, 1, 10, 500, 999, 1000}) {
        const auto v = rng.sample_distinct(1000, count);
        ASSERT_EQ(static_cast<std::int64_t>(v.size()), count);
        for (std::size_t i = 1; i < v.size(); ++i) {
            EXPECT_LT(v[i - 1], v[i]);
        }
        for (const auto x : v) {
            EXPECT_GE(x, 0);
            EXPECT_LT(x, 1000);
        }
    }
}

TEST(RngTest, SampleDistinctRejectsOversizedCount)
{
    Rng rng(19);
    EXPECT_THROW(rng.sample_distinct(5, 6), Error);
}

// --------------------------------------------------------------- error ----

TEST(ErrorTest, PassingCheckDoesNotThrow)
{
    // Wrapped in a lambda: the check macro's braces confuse EXPECT_NO_THROW.
    EXPECT_NO_THROW(([] { MG_CHECK(1 + 1 == 2) << "never shown"; })());
}

TEST(ErrorTest, FailingCheckThrowsWithMessage)
{
    try {
        MG_CHECK(false) << "context " << 42;
        FAIL() << "should have thrown";
    } catch (const Error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("context 42"), std::string::npos);
        EXPECT_NE(what.find("false"), std::string::npos);
    }
}

TEST(ErrorTest, CheckConditionEvaluatedOnce)
{
    int calls = 0;
    const auto bump = [&calls]() {
        ++calls;
        return true;
    };
    MG_CHECK(bump()) << "no";
    EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------- util ----

TEST(UtilTest, CeilDiv)
{
    EXPECT_EQ(ceil_div(0, 4), 0);
    EXPECT_EQ(ceil_div(1, 4), 1);
    EXPECT_EQ(ceil_div(4, 4), 1);
    EXPECT_EQ(ceil_div(5, 4), 2);
    EXPECT_EQ(ceil_div<index_t>(4096, 64), 64);
}

TEST(UtilTest, RoundUp)
{
    EXPECT_EQ(round_up(0, 8), 0);
    EXPECT_EQ(round_up(1, 8), 8);
    EXPECT_EQ(round_up(8, 8), 8);
    EXPECT_EQ(round_up(9, 8), 16);
}

// ------------------------------------------------------------- logging ----

TEST(LoggingTest, SinkCapturesAndRestores)
{
    std::vector<std::pair<LogLevel, std::string>> captured;
    const LogSink previous = set_log_sink(
        [&captured](LogLevel level, const std::string &message) {
            captured.emplace_back(level, message);
        });
    EXPECT_FALSE(previous);  // Default stderr sink is the empty function.

    log_message(LogLevel::kWarn, "captured line");
    log_message(LogLevel::kDebug, "below threshold");

    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0].first, LogLevel::kWarn);
    EXPECT_EQ(captured[0].second, "captured line");

    // Restoring must hand back our sink and detach it.
    const LogSink mine = set_log_sink(previous);
    EXPECT_TRUE(mine);
    log_message(LogLevel::kWarn, "after restore");
    EXPECT_EQ(captured.size(), 1u);
}

// ---------------------------------------------------------------- json ----

TEST(JsonTest, WriterProducesParseableDocument)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.begin_object();
        w.field("name", std::string("a \"quoted\" \\ name\n"));
        w.field("count", std::int64_t{42});
        w.field("ratio", 0.5);
        w.field("flag", true);
        w.key("items");
        w.begin_array();
        w.value(1);
        w.value(2.5);
        w.value("three");
        w.end_array();
        w.end_object();
    }
    const JsonValue doc = json_parse(os.str());
    ASSERT_TRUE(doc.is_object());
    EXPECT_EQ(doc.at("name").as_string(), "a \"quoted\" \\ name\n");
    EXPECT_EQ(doc.at("count").as_number(), 42.0);
    EXPECT_EQ(doc.at("ratio").as_number(), 0.5);
    EXPECT_TRUE(doc.at("flag").as_bool());
    ASSERT_EQ(doc.at("items").array.size(), 3u);
    EXPECT_EQ(doc.at("items").array[2].as_string(), "three");
}

TEST(JsonTest, NonFiniteNumbersBecomeNull)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.begin_object();
        w.field("inf", std::numeric_limits<double>::infinity());
        w.field("nan", std::numeric_limits<double>::quiet_NaN());
        w.end_object();
    }
    const JsonValue doc = json_parse(os.str());
    EXPECT_TRUE(doc.at("inf").is_null());
    EXPECT_TRUE(doc.at("nan").is_null());
}

TEST(JsonTest, RoundTripsDoublesExactly)
{
    for (const double v : {0.0, -0.0, 1.0 / 3.0, 1e-300, 123456.789,
                           std::numeric_limits<double>::max()}) {
        std::ostringstream os;
        {
            JsonWriter w(os);
            w.value(v);
        }
        EXPECT_EQ(json_parse(os.str()).as_number(), v) << os.str();
    }
}

TEST(JsonTest, ParserRejectsMalformedInput)
{
    EXPECT_THROW(json_parse(""), Error);
    EXPECT_THROW(json_parse("{"), Error);
    EXPECT_THROW(json_parse("{\"a\": }"), Error);
    EXPECT_THROW(json_parse("[1, 2,]"), Error);
    EXPECT_THROW(json_parse("{} trailing"), Error);
    EXPECT_THROW(json_parse("\"unterminated"), Error);
}

TEST(JsonTest, ParserHandlesEscapesAndNesting)
{
    const JsonValue doc = json_parse(
        "{\"a\": [{\"b\": \"x\\u0041\\n\"}, -1.5e3], \"c\": null}");
    EXPECT_EQ(doc.at("a").array[0].at("b").as_string(), "xA\n");
    EXPECT_EQ(doc.at("a").array[1].as_number(), -1500.0);
    EXPECT_TRUE(doc.at("c").is_null());
    EXPECT_EQ(doc.find("absent"), nullptr);
}

// --------------------------------------------------------------- timer ----

TEST(TimerTest, ScopedTimerAccumulatesByName)
{
    reset_host_timers();
    {
        const ScopedTimer a("unit_test.alpha");
        const ScopedTimer b("unit_test.beta");
    }
    {
        const ScopedTimer a("unit_test.alpha");
    }
    add_host_timer_sample("unit_test.manual", 12.5);

    const std::vector<TimerStat> stats = host_timer_stats();
    ASSERT_EQ(stats.size(), 3u);  // Sorted by name.
    EXPECT_EQ(stats[0].name, "unit_test.alpha");
    EXPECT_EQ(stats[0].count, 2);
    EXPECT_GE(stats[0].total_us, 0.0);
    EXPECT_EQ(stats[1].name, "unit_test.beta");
    EXPECT_EQ(stats[1].count, 1);
    EXPECT_EQ(stats[2].name, "unit_test.manual");
    EXPECT_EQ(stats[2].total_us, 12.5);

    reset_host_timers();
    EXPECT_TRUE(host_timer_stats().empty());
}

}  // namespace
}  // namespace multigrain
