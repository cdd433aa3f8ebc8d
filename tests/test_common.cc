/**
 * @file
 * Unit tests for src/common: units, strings, logging, RNG.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/strings.hh"
#include "common/types.hh"

namespace isol
{
namespace
{

TEST(Units, TimeConversions)
{
    EXPECT_EQ(usToNs(1), 1000);
    EXPECT_EQ(msToNs(1), 1000000);
    EXPECT_EQ(secToNs(int64_t{1}), 1000000000);
    EXPECT_EQ(secToNs(1.5), 1500000000);
    EXPECT_DOUBLE_EQ(nsToUs(1500), 1.5);
    EXPECT_DOUBLE_EQ(nsToMs(1500000), 1.5);
    EXPECT_DOUBLE_EQ(nsToSec(secToNs(int64_t{3})), 3.0);
}

TEST(Units, SizeConstants)
{
    EXPECT_EQ(KiB, 1024u);
    EXPECT_EQ(MiB, 1024u * 1024u);
    EXPECT_EQ(GiB, 1024u * 1024u * 1024u);
}

TEST(Units, BandwidthHelpers)
{
    // 1 GiB over 1 second is 1024 MiB/s.
    EXPECT_NEAR(bytesOverNsToMiBs(GiB, secToNs(int64_t{1})), 1024.0, 1e-9);
    EXPECT_NEAR(bytesOverNsToGiBs(GiB, secToNs(int64_t{1})), 1.0, 1e-9);
    EXPECT_EQ(bytesOverNsToMiBs(GiB, 0), 0.0);
    EXPECT_EQ(bytesOverNsToGiBs(GiB, -5), 0.0);
}

TEST(Strings, SplitKeepsEmptyFields)
{
    auto parts = splitString("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitSingleField)
{
    auto parts = splitString("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitWhitespaceDropsEmpty)
{
    auto parts = splitWhitespace("  rbps=1000   wbps=max \t x ");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "rbps=1000");
    EXPECT_EQ(parts[1], "wbps=max");
    EXPECT_EQ(parts[2], "x");
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trimString("  hi  "), "hi");
    EXPECT_EQ(trimString("hi"), "hi");
    EXPECT_EQ(trimString("   "), "");
    EXPECT_EQ(trimString(""), "");
}

TEST(Strings, ParseUint)
{
    EXPECT_EQ(parseUint("0"), 0u);
    EXPECT_EQ(parseUint("1234"), 1234u);
    EXPECT_FALSE(parseUint("").has_value());
    EXPECT_FALSE(parseUint("12x").has_value());
    EXPECT_FALSE(parseUint("-3").has_value());
    // Overflow detection.
    EXPECT_FALSE(parseUint("99999999999999999999999").has_value());
}

TEST(Strings, ParseNsRejectsWhatDoesNotFit)
{
    EXPECT_EQ(parseNs("300", msToNs(1)), msToNs(300));
    EXPECT_EQ(parseNs("0", usToNs(1)), 0);
    EXPECT_FALSE(parseNs("12x", msToNs(1)).has_value());
    // The largest count whose ns fit, and the next one.
    EXPECT_EQ(parseNs("9223372036854", msToNs(1)),
              int64_t{9223372036854} * msToNs(1));
    EXPECT_FALSE(parseNs("9223372036855", msToNs(1)).has_value());
    EXPECT_FALSE(parseNs("18446744073709551615", msToNs(1)).has_value());
}

TEST(Strings, ParseSizeSuffixes)
{
    EXPECT_EQ(parseSize("64"), 64u);
    EXPECT_EQ(parseSize("64k"), 64u * KiB);
    EXPECT_EQ(parseSize("64K"), 64u * KiB);
    EXPECT_EQ(parseSize("2m"), 2u * MiB);
    EXPECT_EQ(parseSize("3G"), 3u * GiB);
    EXPECT_EQ(parseSize("1t"), 1024u * GiB);
    EXPECT_FALSE(parseSize("k").has_value());
    EXPECT_FALSE(parseSize("1.5G").has_value());
}

TEST(Strings, ParseSizeMaxKeyword)
{
    EXPECT_EQ(parseSize("max", UINT64_MAX), UINT64_MAX);
    // Without a max value, "max" is invalid.
    EXPECT_FALSE(parseSize("max").has_value());
}

TEST(Strings, FormatDouble)
{
    EXPECT_EQ(formatDouble(1.23456, 2), "1.23");
    EXPECT_EQ(formatDouble(1.0, 0), "1");
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
    try {
        fatal("the message");
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "the message");
    }
}

TEST(Logging, StrCat)
{
    EXPECT_EQ(strCat("a=", 1, " b=", 2.5), "a=1 b=2.5");
    EXPECT_EQ(strCat(), "");
}

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int differing = 0;
    for (int i = 0; i < 64; ++i)
        differing += a.next() != b.next();
    EXPECT_GT(differing, 60);
}

TEST(Rng, BelowBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
    EXPECT_EQ(rng.below(0), 0u);
    EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(7);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = rng.between(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 3u); // all three values appear
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceProbability)
{
    Rng rng(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

} // namespace
} // namespace isol
