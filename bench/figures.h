#ifndef MULTIGRAIN_BENCH_FIGURES_H_
#define MULTIGRAIN_BENCH_FIGURES_H_

#include <string>
#include <vector>

#include "gpusim/device.h"
#include "profiler/history.h"

/// The figure registry: one definition per paper table or figure, plus
/// the reduced presets the mgperf regression gate diffs against
/// bench/baselines/.
///
/// A preset is a row builder — a deterministic in-process run on one
/// device that returns "mgprof.bench" rows. A figure is a preset that
/// also names the devices the paper figure spans and a table printer
/// that reads nothing but those rows. mgfig runs and prints the figures;
/// mgperf runs the gate presets. The gate's fig7, fig9 and fig11 call
/// the same builders as the figures (fig7 on one dataset sample instead
/// of the paper's three), so each figure is computed in one place.
namespace multigrain::bench {

struct BenchPreset {
    const char *name;
    const char *description;
    prof::BenchRun (*build)(const sim::DeviceSpec &device);
    /// Figures only: prints the table from the rows of run_bench_preset.
    void (*print)(const prof::BenchRun &run) = nullptr;
    /// Figures only: the devices (CLI names) the paper figure spans.
    std::vector<std::string> devices = {};
};

/// The 13 paper tables/figures mgfig reproduces, in paper order.
const std::vector<BenchPreset> &figures();

/// The presets the regression gate runs, in baseline-file order.
const std::vector<BenchPreset> &bench_presets();

/// The gate preset named `name`; nullptr when there is none.
const BenchPreset *find_bench_preset(const std::string &name);

/// Runs `preset` once per device (CLI names, "a100"/"rtx3090") from a
/// cleared plan cache and returns the manifest-stamped run named
/// "<preset>@<devices>". With more than one device every row gets a
/// leading "device" label (the DeviceSpec name). A trailing "plan_cache"
/// row records the run's cache counters, reproducible regardless of what
/// ran before, so a fingerprint change that kills cache reuse fails the
/// gate next to the latency it costs.
prof::BenchRun run_bench_preset(const BenchPreset &preset,
                                const std::vector<std::string> &devices);

}  // namespace multigrain::bench

#endif  // MULTIGRAIN_BENCH_FIGURES_H_
