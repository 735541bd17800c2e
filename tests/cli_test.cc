// Tests for the shared CLI flag table (tools/cli.h): left-to-right
// parsing, the bad-invocation errors every tool exits 1 on, checked
// numbers, generated --help, and the exit-code mapping of cli::main.

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli.h"
#include "common/error.h"

namespace multigrain::cli {
namespace {

struct Parsed {
    std::string name;
    std::vector<std::string> items;
    std::uint64_t count = 0;
    int level = 0;
    std::int64_t offset = 0;
    double scale = 1;
    bool flag = false;
    std::string out_dir = ".";
};

Table
test_table(Parsed &p)
{
    return {"tool",
            "A test tool.",
            {
                text("--name", "NAME", "a string", &p.name),
                list("--items", "LIST", "a comma-separated list", &p.items),
                number("--count", "N", "an unsigned 64-bit integer",
                       &p.count),
                number("--level", "N", "a signed int", &p.level),
                number("--offset", "N", "a signed 64-bit integer",
                       &p.offset),
                number("--scale", "X", "a finite number", &p.scale),
                toggle("--flag", "a switch", &p.flag),
                out_dir(&p.out_dir),
            }};
}

/// Parses `args` (argv[0] is added); returns parse()'s result.
bool
parse(const Table &table, std::vector<const char *> args,
      std::string *help = nullptr)
{
    args.insert(args.begin(), "tool");
    std::ostringstream out;
    const bool go = table.parse(static_cast<int>(args.size()), args.data(),
                                out);
    if (help != nullptr) {
        *help = out.str();
    }
    return go;
}

TEST(CliTest, AppliesEveryKindOfFlag)
{
    Parsed p;
    const Table table = test_table(p);
    EXPECT_TRUE(parse(table, {"--name", "x", "--items", "a,b", "--count",
                              "18446744073709551615", "--level", "-3",
                              "--offset", "-9000000000", "--scale", "0.5",
                              "--flag", "--out-dir", "out"}));
    EXPECT_EQ(p.name, "x");
    EXPECT_EQ(p.items, (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(p.count, UINT64_MAX);
    EXPECT_EQ(p.level, -3);
    EXPECT_EQ(p.offset, -9000000000LL);
    EXPECT_EQ(p.scale, 0.5);
    EXPECT_TRUE(p.flag);
    EXPECT_EQ(p.out_dir, "out");
}

TEST(CliTest, LaterFlagsOverrideEarlierOnes)
{
    Parsed p;
    const Table table = test_table(p);
    EXPECT_TRUE(parse(table, {"--name", "a", "--name", "b"}));
    EXPECT_EQ(p.name, "b");
}

TEST(CliTest, UnknownFlagAndPositionalArgumentThrow)
{
    Parsed p;
    const Table table = test_table(p);
    EXPECT_THROW(parse(table, {"--bogus"}), Error);
    EXPECT_THROW(parse(table, {"stray"}), Error);
    EXPECT_THROW(parse(table, {"--flag=1"}), Error);
}

TEST(CliTest, MissingValueThrows)
{
    Parsed p;
    const Table table = test_table(p);
    EXPECT_THROW(parse(table, {"--name"}), Error);
    EXPECT_THROW(parse(table, {"--flag", "--count"}), Error);
}

TEST(CliTest, EmptyListItemAndEmptyOutDirThrow)
{
    Parsed p;
    const Table table = test_table(p);
    EXPECT_THROW(parse(table, {"--items", "a,,b"}), Error);
    EXPECT_THROW(parse(table, {"--items", ""}), Error);
    EXPECT_THROW(parse(table, {"--out-dir", ""}), Error);
}

TEST(CliTest, MalformedNumbersThrowNamingTheFlag)
{
    struct Case {
        const char *flag;
        const char *value;
    };
    const std::vector<Case> cases = {
        // Trailing junk.
        {"--count", "2x"}, {"--level", "2x"}, {"--offset", "7 "},
        {"--scale", "1.5abc"},
        // A sign where none is allowed (and a leading plus anywhere).
        {"--count", "-1"}, {"--count", "+1"}, {"--level", "+1"},
        {"--scale", "+1"},
        // A fraction for an integer.
        {"--count", "1.5"}, {"--level", "0.5"}, {"--offset", "1e3"},
        // Out of the target type's range, or not finite.
        {"--count", "18446744073709551616"}, {"--level", "2147483648"},
        {"--level", "-2147483649"}, {"--offset", "9223372036854775808"},
        {"--scale", "1e999"}, {"--scale", "inf"}, {"--scale", "nan"},
        // Empty.
        {"--count", ""}, {"--scale", ""},
    };
    for (const Case &c : cases) {
        Parsed p;
        const Table table = test_table(p);
        try {
            parse(table, {c.flag, c.value});
            ADD_FAILURE() << c.flag << " " << c.value << " was accepted";
        } catch (const Error &e) {
            EXPECT_NE(std::string(e.what()).find(c.flag), std::string::npos)
                << e.what();
        }
    }
}

TEST(CliTest, ArgumentsAreProcessedLeftToRight)
{
    Parsed p;
    const Table table = test_table(p);
    // A bad value before --help is reported; --help stops the scan, so
    // nothing after it is looked at.
    EXPECT_THROW(parse(table, {"--count", "x", "--help"}), Error);
    std::string help;
    EXPECT_FALSE(parse(table, {"--name", "a", "--help", "--count", "x"},
                       &help));
    EXPECT_EQ(p.name, "a");
    EXPECT_EQ(help, table.help());
    EXPECT_FALSE(parse(table, {"-h", "--bogus"}));
}

TEST(CliTest, HelpListsEveryFlagWithItsValueName)
{
    Parsed p;
    const Table table = test_table(p);
    const std::string help = table.help();
    EXPECT_EQ(help.rfind("usage: tool [options]\n", 0), 0u) << help;
    for (const Flag &flag : table.flags) {
        const std::string shown =
            flag.metavar.empty() ? flag.name : flag.name + " " + flag.metavar;
        EXPECT_NE(help.find("  " + shown + " "), std::string::npos)
            << shown << " missing from:\n"
            << help;
    }
    EXPECT_NE(help.find("--out-dir"), std::string::npos);
    EXPECT_NE(help.find("--help"), std::string::npos);
}

TEST(CliTest, HelpWrapsLongTextWithinTheWidth)
{
    Table table{"tool", "About.", {}};
    table.flags.push_back(
        {"--a-rather-long-flag-name", "VALUE",
         std::string(30, 'q') + " " + std::string(30, 'j') + " " +
             std::string(30, 'k'),
         [](const std::string &) {}});
    std::istringstream lines(table.help());
    std::string line;
    int help_lines = 0;
    while (std::getline(lines, line)) {
        EXPECT_LE(line.size(), 78u) << line;
        help_lines += line.find_first_of("qjk") != std::string::npos;
    }
    EXPECT_EQ(help_lines, 3);
}

TEST(CliTest, MainMapsExceptionsToExitCodes)
{
    Parsed p;
    const Table table = test_table(p);
    const char *ok[] = {"tool", "--flag"};
    const char *bad[] = {"tool", "--count", "x"};
    const char *help[] = {"tool", "--help"};
    EXPECT_EQ(main(table, 2, ok, [] { return 0; }), 0);
    EXPECT_EQ(main(table, 2, ok, [] { return 3; }), 3);
    EXPECT_EQ(main(table, 3, bad, [] { return 0; }), 1);
    EXPECT_EQ(main(table, 2, help, [] { return 5; }), 0);
    EXPECT_EQ(main(table, 2, ok,
                   []() -> int { throw ValidationError("mismatch"); }),
              2);
    EXPECT_EQ(main(table, 2, ok, []() -> int { throw Error("bad"); }), 1);
    EXPECT_EQ(main(table, 2, ok,
                   []() -> int { throw std::runtime_error("oops"); }),
              1);
}

TEST(CliTest, ArtifactPathsResolveUnderOutDir)
{
    EXPECT_EQ(resolve_out_path(".", "a.json"), "a.json");
    EXPECT_EQ(resolve_out_path("out", "a.json"), "out/a.json");
    EXPECT_EQ(resolve_out_path("out", "/abs/a.json"), "/abs/a.json");
    EXPECT_EQ(resolve_out_path("out", ""), "");
    EXPECT_EQ(default_artifact_dir("out"), "out");
}

}  // namespace
}  // namespace multigrain::cli
