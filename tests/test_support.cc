/**
 * @file
 * Unit tests for histograms, summaries, CDFs, logging, strict number
 * parsing, command-line flag tables and the table renderer.
 */

#include <gtest/gtest.h>

#include "program/trace.hh"
#include "sim/variants.hh"
#include "support/flags.hh"
#include "support/histogram.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "support/parse.hh"
#include "support/table.hh"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

using namespace critics;

TEST(Summary, BasicMoments)
{
    Summary s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.total(), 10.0);
}

TEST(Summary, MergeEqualsCombined)
{
    Summary a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double x = i * 0.37 - 3.0;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_NEAR(a.min(), all.min(), 1e-12);
    EXPECT_NEAR(a.max(), all.max(), 1e-12);
}

TEST(Summary, MergeWithEmpty)
{
    Summary a, empty;
    a.add(5.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(Histogram, FractionsAndPercentiles)
{
    Histogram h;
    h.add(1, 1.0);
    h.add(2, 2.0);
    h.add(10, 1.0);
    EXPECT_DOUBLE_EQ(h.total(), 4.0);
    EXPECT_DOUBLE_EQ(h.fraction(2), 0.5);
    EXPECT_DOUBLE_EQ(h.cumulativeFraction(2), 0.75);
    EXPECT_DOUBLE_EQ(h.mean(), (1 + 4 + 10) / 4.0);
    EXPECT_EQ(h.minBucket(), 1);
    EXPECT_EQ(h.maxBucket(), 10);
    EXPECT_EQ(h.percentile(0.5), 2);
    EXPECT_EQ(h.percentile(0.99), 10);
}

TEST(Histogram, MergeAdds)
{
    Histogram a, b;
    a.add(1);
    b.add(1);
    b.add(5, 3.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.at(1), 2.0);
    EXPECT_DOUBLE_EQ(a.at(5), 3.0);
    EXPECT_DOUBLE_EQ(a.total(), 5.0);
}

TEST(Histogram, EmptyIsSafe)
{
    Histogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_DOUBLE_EQ(h.fraction(3), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, FormatClampsOverflow)
{
    Histogram h;
    h.add(1);
    h.add(100);
    const std::string text = h.format(64);
    EXPECT_NE(text.find("64+:"), std::string::npos);
}

TEST(Cdf, MonotoneAndNormalized)
{
    std::vector<std::pair<double, double>> values;
    for (int i = 100; i > 0; --i)
        values.push_back({static_cast<double>(i), 1.0});
    const auto cdf = buildCdf(values, 16);
    ASSERT_FALSE(cdf.empty());
    EXPECT_LE(cdf.size(), 16u);
    for (std::size_t i = 1; i < cdf.size(); ++i) {
        EXPECT_GE(cdf[i].x, cdf[i - 1].x);
        EXPECT_GE(cdf[i].fraction, cdf[i - 1].fraction);
    }
    EXPECT_NEAR(cdf.back().fraction, 1.0, 1e-12);
}

TEST(Cdf, CollapsesDuplicates)
{
    const auto cdf = buildCdf({{1.0, 1.0}, {1.0, 1.0}, {2.0, 2.0}});
    ASSERT_EQ(cdf.size(), 2u);
    EXPECT_DOUBLE_EQ(cdf[0].fraction, 0.5);
}

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(critics_panic("boom ", 42), std::logic_error);
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(critics_fatal("bad config"), std::runtime_error);
}

TEST(Logging, AssertPassesAndFails)
{
    EXPECT_NO_THROW(critics_assert(1 + 1 == 2, "fine"));
    EXPECT_THROW(critics_assert(false, "nope"), std::logic_error);
}

TEST(Table, RendersAllCells)
{
    Table t({"app", "speedup"});
    t.addRow({"Acrobat", "15%"});
    t.addRow({"Music", "9%"});
    const std::string text = t.render();
    for (const char *needle : {"app", "speedup", "Acrobat", "15%",
                               "Music", "9%"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsWrongWidth)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::logic_error);
}

TEST(Formatting, Helpers)
{
    EXPECT_EQ(fmt(12.3456, 2), "12.35");
    EXPECT_EQ(pct(0.1265, 2), "12.65%");
    EXPECT_EQ(gainPct(1.1265, 2), "12.65%");
    EXPECT_EQ(gainPct(0.95, 1), "-5.0%");
}

TEST(Parallel, VisitsEveryIndexOnce)
{
    std::vector<std::atomic<int>> counts(257);
    parallelFor(counts.size(), [&](std::size_t i) { ++counts[i]; });
    for (const auto &c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(Parallel, PropagatesException)
{
    EXPECT_THROW(
        parallelFor(64, [](std::size_t i) {
            if (i == 13)
                throw std::runtime_error("boom");
        }),
        std::runtime_error);
}

TEST(Parallel, ZeroIterations)
{
    EXPECT_NO_THROW(parallelFor(0, [](std::size_t) { FAIL(); }));
}

// ---------------------------------------------------------------------------
// The shared JSON escape helper (sim/report and runner/json both rely
// on it for every string they serialize).

TEST(JsonEscape, QuotesAndBackslashes)
{
    EXPECT_EQ(critics::json::jsonEscape("say \"hi\""),
              "say \\\"hi\\\"");
    EXPECT_EQ(critics::json::jsonEscape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, ControlCharacters)
{
    EXPECT_EQ(critics::json::jsonEscape("a\nb\tc\rd"),
              "a\\nb\\tc\\rd");
    // Other C0 controls become \u00XX.
    EXPECT_EQ(critics::json::jsonEscape(std::string("\x01\x1f", 2)),
              "\\u0001\\u001f");
    EXPECT_EQ(critics::json::jsonEscape(std::string("\0", 1)),
              "\\u0000");
}

TEST(JsonEscape, NonAsciiPassesThrough)
{
    // UTF-8 multi-byte sequences are legal in JSON strings unescaped.
    const std::string utf8 = "caf\xc3\xa9 \xe2\x82\xac";
    EXPECT_EQ(critics::json::jsonEscape(utf8), utf8);
}

TEST(JsonEscape, RoundTripsThroughParser)
{
    const std::string nasty = "line1\nline2\t\"quoted\" \\ end";
    const auto doc = critics::json::parseJson(
        "{\"key\":\"" + critics::json::jsonEscape(nasty) + "\"}");
    ASSERT_TRUE(doc.has_value());
    const auto *value = doc->find("key");
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(value->asString().value_or(""), nasty);
}

TEST(Logging, QuietFlagToggles)
{
    const bool before = critics::quiet();
    critics::setQuiet(true);
    EXPECT_TRUE(critics::quiet());
    critics::setQuiet(false);
    EXPECT_FALSE(critics::quiet());
    critics::setQuiet(before);
}

TEST(Logging, DebugGatedByEnvironment)
{
    // The test binary runs without CRITICS_DEBUG, so no component is
    // enabled (a debug build of the harness may set it; then "all" or
    // the named component would flip these to true, which is fine —
    // only assert the unset case when it really is unset).
    if (::getenv("CRITICS_DEBUG") == nullptr) {
        EXPECT_FALSE(critics::debugEnabled("cpu"));
        EXPECT_FALSE(critics::debugEnabled("no-such-component"));
    }
}

TEST(ParseUnsigned, AcceptsDigitsUpToMax)
{
    EXPECT_EQ(parseUnsigned("0"), 0u);
    EXPECT_EQ(parseUnsigned("20000"), 20000u);
    EXPECT_EQ(parseUnsigned("007"), 7u);
    EXPECT_EQ(parseUnsigned("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(parseUnsigned("65535", 65535), 65535u);
}

TEST(ParseUnsigned, RejectsEmptySignsAndJunk)
{
    for (const char *text : {"", "-1", "+1", " 1", "1 ", "20000abc",
                             "0x10", "1e3", "3.5", "abc", "-0"}) {
        EXPECT_FALSE(parseUnsigned(text).has_value()) << "'" << text
                                                      << "'";
    }
}

TEST(ParseUnsigned, RejectsOverflowAndAboveMax)
{
    EXPECT_FALSE(parseUnsigned("18446744073709551616").has_value());
    EXPECT_FALSE(parseUnsigned("99999999999999999999999").has_value());
    EXPECT_FALSE(parseUnsigned("65536", 65535).has_value());
    EXPECT_FALSE(parseUnsigned("1", 0).has_value());
    EXPECT_EQ(parseUnsigned("0", 0), 0u);
}

TEST(ParseNonNegative, FiniteAndNotNegative)
{
    EXPECT_EQ(parseNonNegative("0.01"), 0.01);
    EXPECT_EQ(parseNonNegative("2"), 2.0);
    EXPECT_EQ(parseNonNegative("1e-9"), 1e-9);
    for (const char *text : {"", "-0.5", "+1", "1x", " 1", "nan", "inf",
                             "1e999"}) {
        EXPECT_FALSE(parseNonNegative(text).has_value()) << "'" << text
                                                         << "'";
    }
}

namespace
{

/** parseFlags over `words`, the arguments after the command words. */
flags::Parsed
parseWords(const flags::Table &rows, std::vector<std::string> words,
           const flags::Positionals &positionals = {})
{
    std::vector<char *> argv;
    for (auto &word : words)
        argv.push_back(word.data());
    return flags::parseFlags("tool cmd", rows,
                             static_cast<int>(argv.size()), argv.data(),
                             positionals);
}

/** The usage error parsing `words` raises; "" when it parses. */
std::string
usageError(const flags::Table &rows, std::vector<std::string> words,
           const flags::Positionals &positionals = {})
{
    try {
        parseWords(rows, std::move(words), positionals);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

bool
contains(const std::string &text, const std::string &part)
{
    return text.find(part) != std::string::npos;
}

} // namespace

TEST(Flags, IntegerTakesItsRangeOnly)
{
    unsigned n = 7;
    const flags::Table rows = {
        flags::integer("--n", "<n>", "count", n, 1, 10),
    };
    parseWords(rows, {"--n", "10"});
    EXPECT_EQ(n, 10u);
    parseWords(rows, {"--n", "1"});
    EXPECT_EQ(n, 1u);
    for (const char *bad : {"0", "11", "", "-1", "+1", "5x", "0x5",
                            "99999999999999999999"}) {
        const std::string error = usageError(rows, {"--n", bad});
        EXPECT_TRUE(contains(error, "tool cmd: --n wants an integer in "
                                    "[1, 10], got '" +
                                        std::string(bad) + "'"))
            << error;
    }
    EXPECT_EQ(n, 1u);
}

TEST(Flags, IntegerDefaultsToTheRangeOfItsType)
{
    unsigned short port = 0;
    const flags::Table rows = {
        flags::integer("--port", "<n>", "port", port),
    };
    parseWords(rows, {"--port", "65535"});
    EXPECT_EQ(port, 65535u);
    EXPECT_TRUE(contains(usageError(rows, {"--port", "65536"}),
                         "--port wants an integer in [0, 65535]"));
}

TEST(Flags, DecimalRejectsNegativeAndJunk)
{
    double x = 2.0;
    const flags::Table rows = {
        flags::decimal("--rel", "<frac>", "threshold", x),
    };
    parseWords(rows, {"--rel", "0.5"});
    EXPECT_EQ(x, 0.5);
    parseWords(rows, {"--rel", "0"});
    EXPECT_EQ(x, 0.0);
    for (const char *bad : {"-0.5", "nan", "inf", "1x", "", "1e999"}) {
        EXPECT_TRUE(contains(usageError(rows, {"--rel", bad}),
                             "tool cmd: --rel wants a non-negative "
                             "number"))
            << bad;
    }
    EXPECT_EQ(x, 0.0);
}

TEST(Flags, ScaledAppliesItsUnitsAndRejectsOverflow)
{
    std::uint64_t bytes = 0;
    const flags::Table rows = {
        flags::scaled("--max-bytes", "<n>", "size", bytes,
                      {{'K', 1ull << 10}, {'M', 1ull << 20}}),
    };
    parseWords(rows, {"--max-bytes", "512"});
    EXPECT_EQ(bytes, 512u);
    parseWords(rows, {"--max-bytes", "2K"});
    EXPECT_EQ(bytes, 2048u);
    parseWords(rows, {"--max-bytes", "3M"});
    EXPECT_EQ(bytes, 3u << 20);
    // 2^54 K is 2^64 bytes: one past the range.
    parseWords(rows, {"--max-bytes", "18014398509481983K"});
    EXPECT_EQ(bytes, 18014398509481983ull << 10);
    for (const char *bad : {"12X", "K", "", "-1K", "1KK",
                            "18014398509481984K"}) {
        EXPECT_TRUE(contains(usageError(rows, {"--max-bytes", bad}),
                             "tool cmd: --max-bytes wants an integer "
                             "with an optional unit"))
            << bad;
    }
}

TEST(Flags, TextToggleAndCallbackStoreWhatTheyAreGiven)
{
    std::string name = "x";
    bool on = false;
    std::string seen;
    const flags::Table rows = {
        flags::text("--name", "<s>", "a name", name),
        flags::toggle("--on", "a switch", on),
        flags::callback("--cb", "<v>", "an action",
                        [&seen](const std::string &v) { seen = v; }),
    };
    // A value is the next argument verbatim, even when it is empty or
    // looks like a flag.
    const auto parsed =
        parseWords(rows, {"--on", "--name", "", "--cb", "--on"});
    EXPECT_EQ(name, "");
    EXPECT_TRUE(on);
    EXPECT_EQ(seen, "--on");
    EXPECT_TRUE(parsed.has("--on"));
    EXPECT_TRUE(parsed.has("--name"));
    EXPECT_TRUE(parsed.has("--cb"));
    EXPECT_FALSE(parsed.has("--other"));
}

TEST(Flags, UnknownFlagAndMissingValueNameTheCommandAndFlag)
{
    std::string name;
    const flags::Table rows = {
        flags::text("--name", "<s>", "a name", name),
    };
    EXPECT_EQ(usageError(rows, {"--bogus"}),
              "tool cmd: unknown flag '--bogus' (see tool cmd --help)");
    EXPECT_EQ(usageError(rows, {"-n"}),
              "tool cmd: unknown flag '-n' (see tool cmd --help)");
    EXPECT_EQ(usageError(rows, {"--name"}),
              "tool cmd: --name needs a value <s>");
}

TEST(Flags, PositionalArityIsChecked)
{
    std::vector<std::string> words;
    const flags::Positionals two{"<a> <b>", 2, 2, &words};
    parseWords({}, {"x", "y"}, two);
    EXPECT_EQ(words, (std::vector<std::string>{"x", "y"}));
    EXPECT_EQ(usageError({}, {"x"}, two),
              "tool cmd: wants <a> <b>, got 1 argument(s)");
    EXPECT_EQ(usageError({}, {"x", "y", "z"}, two),
              "tool cmd: unexpected argument 'z' (see tool cmd --help)");
    EXPECT_EQ(usageError({}, {"x"}),
              "tool cmd: unexpected argument 'x' (see tool cmd --help)");
}

TEST(Flags, HelpListsEveryRowWithItsDefault)
{
    std::uint64_t n = 42;
    std::string out = "a.json";
    bool quick = false;
    const flags::Table rows = {
        flags::integer("--n", "<n>", "how many", n),
        flags::text("--out", "<file>", "where", out),
        flags::toggle("--quick", "small", quick),
    };
    const std::string help =
        flags::usageText("tool cmd", rows, {"<file>", 1, 1});
    EXPECT_TRUE(contains(help, "usage: tool cmd [options] <file>\n"))
        << help;
    EXPECT_TRUE(contains(help, "  --n <n>       how many (default 42)\n"))
        << help;
    EXPECT_TRUE(contains(help, "  --out <file>  where (default a.json)\n"))
        << help;
    EXPECT_TRUE(contains(help, "  --quick       small\n")) << help;
    EXPECT_TRUE(contains(help, "  --help        print this help\n"))
        << help;

    // --help wins over every other argument, bad ones included: it
    // prints the text and exits 0.
    EXPECT_EXIT(parseWords(rows, {"--n", "oops", "--help", "--bogus"},
                           {"<file>", 1, 1}),
                ::testing::ExitedWithCode(0), "");
}

TEST(Flags, GridRowsResolveThroughTheSharedVocabulary)
{
    std::string apps = "mobile";
    std::string variants = "baseline";
    std::uint64_t insts = 400000;
    const flags::Table rows = sim::gridFlags(apps, variants, insts);
    const std::string maxInsts = std::to_string(program::kMaxTraceInsts);
    parseWords(rows, {"--variants", "all", "--apps", "Acrobat,Office",
                      "--insts", maxInsts});
    EXPECT_EQ(variants, "all");
    EXPECT_EQ(sim::parseVariants(variants).size(),
              sim::allVariantNames().size());
    EXPECT_EQ(apps, "Acrobat,Office");
    EXPECT_EQ(insts, program::kMaxTraceInsts);

    // --insts takes the serve protocol's range: 0 would give an empty
    // trace.
    EXPECT_TRUE(contains(usageError(rows, {"--insts", "0"}),
                         "tool cmd: --insts wants an integer in [1, " +
                             maxInsts + "]"));
    EXPECT_FALSE(
        usageError(rows, {"--insts",
                          std::to_string(program::kMaxTraceInsts + 1)})
            .empty());
    EXPECT_EQ(usageError(rows, {"--apps", "NoSuchApp"}),
              "tool cmd: --apps: unknown app 'NoSuchApp'");
    EXPECT_EQ(usageError(rows, {"--variants", "baseline,bogus"}),
              "tool cmd: --variants: unknown variant 'bogus'");
    EXPECT_EQ(apps, "Acrobat,Office");
    EXPECT_EQ(variants, "all");
}
