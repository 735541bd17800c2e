#include "cli.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <utility>


namespace multigrain::cli {

namespace {

constexpr std::size_t kHelpColumn = 22;
constexpr std::size_t kHelpWidth = 78;

/// Appends `text` word-wrapped at kHelpWidth, its words starting at
/// column `indent`. A non-empty `line` (a flag's name) opens the first
/// line, or stands on its own when it reaches into the text column.
void
write_wrapped(std::ostringstream &os, std::string line, std::size_t indent,
              const std::string &text)
{
    if (!line.empty() && line.size() + 2 > indent) {
        os << line << "\n";
        line.clear();
    }
    std::istringstream words(text);
    std::string word;
    bool first = true;  // No word on this line yet.
    while (words >> word) {
        if (!first && line.size() + 1 + word.size() > kHelpWidth) {
            os << line << "\n";
            line.clear();
            first = true;
        }
        line.resize(first ? indent : line.size() + 1, ' ');
        line += word;
        first = false;
    }
    os << line << "\n";
}

/// Splits "a,b,c" into {"a","b","c"}; empty items are rejected.
std::vector<std::string>
split_csv(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (true) {
        const std::size_t comma = s.find(',', pos);
        std::string item = s.substr(pos, comma == std::string::npos
                                             ? std::string::npos
                                             : comma - pos);
        if (item.empty()) {
            throw Error("empty item in list \"" + s + "\"");
        }
        out.push_back(std::move(item));
        if (comma == std::string::npos) {
            return out;
        }
        pos = comma + 1;
    }
}

}  // namespace

std::string
default_artifact_dir(const std::string &out_dir)
{
    if (out_dir != ".") {
        return out_dir;
    }
    const char *env = std::getenv("MULTIGRAIN_BENCH_DIR");
    return env != nullptr && *env != '\0' ? env : ".";
}

std::string
resolve_out_path(const std::string &out_dir, const std::string &path)
{
    if (path.empty() || path.front() == '/' || out_dir == ".") {
        return path;
    }
    return out_dir + "/" + path;
}

Flag
toggle(std::string name, std::string help, bool *out)
{
    return {std::move(name), "", std::move(help),
            [out](const std::string &) { *out = true; }};
}

Flag
text(std::string name, std::string metavar, std::string help,
     std::string *out)
{
    return {std::move(name), std::move(metavar), std::move(help),
            [out](const std::string &value) { *out = value; }};
}

Flag
list(std::string name, std::string metavar, std::string help,
     std::vector<std::string> *out)
{
    return {std::move(name), std::move(metavar), std::move(help),
            [out](const std::string &value) { *out = split_csv(value); }};
}

Flag
out_dir(std::string *out)
{
    return {"--out-dir", "DIR",
            "directory for artifacts (default .; relative artifact paths "
            "land under it)",
            [out](const std::string &value) {
                if (value.empty()) {
                    throw Error("--out-dir must be non-empty");
                }
                *out = value;
            }};
}

std::string
Table::help() const
{
    std::ostringstream os;
    os << "usage: " << tool << " [options]\n\n";
    write_wrapped(os, "", 0, about);
    os << "\n";
    for (const Flag &flag : flags) {
        write_wrapped(os,
                      "  " + (flag.metavar.empty()
                                  ? flag.name
                                  : flag.name + " " + flag.metavar),
                      kHelpColumn, flag.help);
    }
    write_wrapped(os, "  -h, --help", kHelpColumn, "this text");
    return os.str();
}

bool
Table::parse(int argc, const char *const *argv, std::ostream &out) const
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            out << help();
            return false;
        }
        const Flag *flag = nullptr;
        for (const Flag &f : flags) {
            if (f.name == arg) {
                flag = &f;
            }
        }
        if (flag == nullptr) {
            throw Error("unknown argument \"" + arg +
                        "\" (--help lists the flags)");
        }
        if (flag->metavar.empty()) {
            flag->apply("");
            continue;
        }
        if (i + 1 >= argc) {
            throw Error(arg + " needs a value");
        }
        flag->apply(argv[++i]);
    }
    return true;
}

int
main(const Table &table, int argc, const char *const *argv,
     const std::function<int()> &run)
{
    try {
        return table.parse(argc, argv, std::cout) ? run() : 0;
    } catch (const ValidationError &e) {
        std::fprintf(stderr, "%s: validation failed: %s\n",
                     table.tool.c_str(), e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", table.tool.c_str(), e.what());
        return 1;
    }
}

}  // namespace multigrain::cli
