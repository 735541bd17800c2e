#ifndef MULTIGRAIN_TOOLS_CLI_H_
#define MULTIGRAIN_TOOLS_CLI_H_

#include <charconv>
#include <cmath>
#include <functional>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"

/// The command-line plumbing the tools share (mgprof, mgperf, mgplan,
/// mgserve). Each tool declares one flag table; the same table parses
/// argv left to right and generates --help, so a flag cannot be accepted
/// without being documented. Numbers are parsed checked, artifact paths
/// resolve against --out-dir the same way everywhere, and one main()
/// applies the exit-code convention: 0 clean, 1 bad invocation or runtime
/// error (Error), 2 validation failure (ValidationError).
namespace multigrain::cli {

/// Parses all of `text` as one T: a non-negative integer for unsigned T,
/// an integer for signed T, a finite number for floating-point T.
/// Anything else (empty, a sign where none is allowed, a fraction for an
/// integer, trailing junk, out of T's range) throws Error naming `flag`,
/// so a bad number exits 1 instead of wrapping around.
template <typename T>
T
parse_number(const std::string &flag, const std::string &text)
{
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    const char *expected = std::is_floating_point_v<T> ? "a number"
                           : std::is_unsigned_v<T> ? "a non-negative integer"
                                                   : "an integer";
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end) {
        throw Error(flag + " needs " + expected + ", got \"" + text + "\"");
    }
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value)) {
            throw Error(flag + " needs a finite number, got \"" + text +
                        "\"");
        }
    }
    return value;
}

/// Directory for a tool's default artifacts: an explicit --out-dir wins;
/// the default "." honors $MULTIGRAIN_BENCH_DIR.
std::string default_artifact_dir(const std::string &out_dir);

/// Resolves a relative artifact path under --out-dir; empty paths,
/// absolute paths, and the default layout (out_dir ".") pass through.
std::string resolve_out_path(const std::string &out_dir,
                             const std::string &path);

/// One row of a tool's flag table.
struct Flag {
    std::string name;     ///< "--seed".
    std::string metavar;  ///< "N"; empty for a switch that takes no value.
    std::string help;     ///< One sentence; --help word-wraps it.
    /// Receives the flag's value ("" for a switch); throws Error on a bad
    /// value.
    std::function<void(const std::string &)> apply;
};

/// A switch that sets `*out`.
Flag toggle(std::string name, std::string help, bool *out);
/// A string value.
Flag text(std::string name, std::string metavar, std::string help,
          std::string *out);
/// A comma-separated list; an empty item is an Error.
Flag list(std::string name, std::string metavar, std::string help,
          std::vector<std::string> *out);
/// --out-dir: a non-empty directory that relative artifact paths land
/// under.
Flag out_dir(std::string *out);

/// A checked number of `*out`'s type (parse_number).
template <typename T>
Flag
number(std::string name, std::string metavar, std::string help, T *out)
{
    std::function<void(const std::string &)> apply =
        [flag = name, out](const std::string &value) {
            *out = parse_number<T>(flag, value);
        };
    return {std::move(name), std::move(metavar), std::move(help),
            std::move(apply)};
}

/// A tool's flag table: its name, a paragraph for --help, and its flags.
struct Table {
    std::string tool;
    std::string about;
    std::vector<Flag> flags;

    /// The --help text, generated from `flags` (plus --help itself).
    std::string help() const;
    /// Applies argv[1..] left to right. Returns false as soon as --help
    /// (or -h) is reached, after writing help() to `out`; throws Error on
    /// an unknown flag, a missing value or a malformed value. Flags before
    /// --help have been applied, so "--seed x --help" throws.
    bool parse(int argc, const char *const *argv, std::ostream &out) const;
};

/// A tool's main(): parses argv with `table`, then returns `run()`.
/// ValidationError exits 2 and any other exception 1, each reported as
/// "<tool>: ..." on stderr.
int main(const Table &table, int argc, const char *const *argv,
         const std::function<int()> &run);

}  // namespace multigrain::cli

#endif  // MULTIGRAIN_TOOLS_CLI_H_
