// mgfig — reproduces the paper's tables and figures.
//
// Runs each selected figure of the registry (bench/figures.h) on the
// devices the paper figure spans, prints its table to stdout and writes
// its rows as BENCH_<figure>.json (schema "mgprof.bench") under --out-dir,
// or under $MULTIGRAIN_BENCH_DIR when --out-dir is the default ".".
// Every figure starts from an empty plan cache, so one figure's output
// does not depend on what ran before it.
//
//   mgfig                         # all 13, paper order
//   mgfig --figures fig7,fig11    # a subset
//   mgfig --list
//
// Exit codes: 0 clean, 1 bad invocation or an artifact that cannot be
// written, 2 unknown figure.

#include <cstdio>
#include <string>
#include <vector>

#include "cli.h"
#include "common/error.h"
#include "figures.h"
#include "profiler/export.h"

namespace {

using namespace multigrain;

struct Options {
    std::vector<std::string> figures;  // Empty = all, in paper order.
    std::string out_dir = ".";
    bool list = false;
};

cli::Table
flag_table(Options &opt)
{
    return {"mgfig",
            "Reproduces the paper's tables and figures: prints each table "
            "and writes its rows as BENCH_<figure>.json.",
            {
                cli::list("--figures", "LIST",
                          "comma-separated figures (--list to enumerate; "
                          "default: all)",
                          &opt.figures),
                cli::toggle("--list", "list the figures and exit",
                            &opt.list),
                cli::out_dir(&opt.out_dir),
            }};
}

const bench::BenchPreset &
find_figure(const std::string &name)
{
    for (const bench::BenchPreset &figure : bench::figures()) {
        if (name == figure.name) {
            return figure;
        }
    }
    throw ValidationError("unknown figure \"" + name +
                          "\" (--list to enumerate)");
}

int
run(const Options &opt)
{
    if (opt.list) {
        for (const bench::BenchPreset &figure : bench::figures()) {
            std::string devices;
            for (const std::string &d : figure.devices) {
                devices += (devices.empty() ? "" : ",") + d;
            }
            std::printf("%-17s %-13s %s\n", figure.name, devices.c_str(),
                        figure.description);
        }
        return 0;
    }
    std::vector<const bench::BenchPreset *> selected;
    for (const std::string &name : opt.figures) {
        selected.push_back(&find_figure(name));
    }
    if (selected.empty()) {
        for (const bench::BenchPreset &figure : bench::figures()) {
            selected.push_back(&figure);
        }
    }
    const std::string dir = cli::default_artifact_dir(opt.out_dir);
    for (const bench::BenchPreset *figure : selected) {
        const prof::BenchRun run =
            bench::run_bench_preset(*figure, figure->devices);
        figure->print(run);
        const std::string path =
            dir + "/BENCH_" + std::string(figure->name) + ".json";
        prof::write_text_file(path, run.to_json() + "\n");
        std::fprintf(stderr, "mgfig: wrote %s (%zu rows)\n", path.c_str(),
                     run.rows.size());
    }
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    Options opt;
    return cli::main(flag_table(opt), argc, argv,
                     [&opt] { return run(opt); });
}
