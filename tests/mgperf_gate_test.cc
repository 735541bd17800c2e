// End-to-end self-test of the mgperf regression gate: the perturbation
// hook (gpusim/device.h) must move simulated times, and a perturbed run
// diffed against an unperturbed baseline must fail the gate — the same
// loop CI's scheduled self-test step runs through the mgperf binary.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "plan_test_util.h"

#include "common/error.h"
#include "figures.h"
#include "gpusim/device.h"
#include "profiler/export.h"
#include "profiler/history.h"
#include "profiler/regress.h"

namespace multigrain {
namespace {

TEST(PerturbTest, ParseAndIdentity)
{
    EXPECT_TRUE(sim::DevicePerturbation{}.identity());

    const sim::DevicePerturbation p =
        sim::DevicePerturbation::parse("dram=0.9,tensor=1.1,launch=2");
    EXPECT_FALSE(p.identity());
    EXPECT_DOUBLE_EQ(p.dram, 0.9);
    EXPECT_DOUBLE_EQ(p.tensor, 1.1);
    EXPECT_DOUBLE_EQ(p.cuda, 1.0);
    EXPECT_DOUBLE_EQ(p.launch, 2.0);

    EXPECT_TRUE(sim::DevicePerturbation::parse("").identity());
    EXPECT_THROW(sim::DevicePerturbation::parse("warp=2"), Error);
    EXPECT_THROW(sim::DevicePerturbation::parse("dram"), Error);
    EXPECT_THROW(sim::DevicePerturbation::parse("dram=0"), Error);
    EXPECT_THROW(sim::DevicePerturbation::parse("dram=x"), Error);
}

TEST(PerturbTest, EnvHookScalesDeviceFactories)
{
    ::unsetenv("MULTIGRAIN_PERTURB");
    const sim::DeviceSpec base = sim::DeviceSpec::a100();
    {
        const fixtures::ScopedEnv perturb("MULTIGRAIN_PERTURB",
                                          "dram=0.5,launch=2");
        const sim::DeviceSpec scaled = sim::DeviceSpec::a100();
        EXPECT_DOUBLE_EQ(scaled.dram_gbps, base.dram_gbps * 0.5);
        EXPECT_DOUBLE_EQ(scaled.kernel_launch_us,
                         base.kernel_launch_us * 2);
        EXPECT_DOUBLE_EQ(scaled.tb_overhead_us, base.tb_overhead_us * 2);
        // Structure-affecting fields stay put: plans must not change.
        EXPECT_EQ(scaled.num_sms, base.num_sms);
        EXPECT_EQ(scaled.max_tb_per_sm, base.max_tb_per_sm);
    }
    // Restored after scope exit.
    EXPECT_DOUBLE_EQ(sim::DeviceSpec::a100().dram_gbps, base.dram_gbps);
}

TEST(PerturbTest, DeviceLookupByCliName)
{
    EXPECT_EQ(sim::device_spec_by_name("a100").name, "A100");
    EXPECT_EQ(sim::device_spec_by_name("rtx3090").name, "RTX3090");
    EXPECT_THROW(sim::device_spec_by_name("h100"), Error);
}

TEST(GateTest, PresetRegistryListsTheGatedFigures)
{
    EXPECT_NE(bench::find_bench_preset("fig7"), nullptr);
    EXPECT_NE(bench::find_bench_preset("fig9"), nullptr);
    EXPECT_NE(bench::find_bench_preset("fig11"), nullptr);
    EXPECT_NE(bench::find_bench_preset("tiny"), nullptr);
    EXPECT_EQ(bench::find_bench_preset("fig99"), nullptr);
}

TEST(GateTest, GatedFiguresRunTheFigureBuilders)
{
    ASSERT_EQ(bench::figures().size(), 13u);
    for (const bench::BenchPreset &figure : bench::figures()) {
        EXPECT_NE(figure.print, nullptr) << figure.name;
        EXPECT_FALSE(figure.devices.empty()) << figure.name;
        // fig7's gate entry binds one dataset sample instead of three.
        const bench::BenchPreset *gated =
            bench::find_bench_preset(figure.name);
        if (gated != nullptr && std::string(figure.name) != "fig7") {
            EXPECT_EQ(gated->build, figure.build) << figure.name;
        }
    }
}

TEST(GateTest, MultiDeviceRunsLabelEveryRowWithItsDevice)
{
    const bench::BenchPreset &table1 = bench::figures().front();
    const prof::BenchRun run =
        bench::run_bench_preset(table1, {"a100", "rtx3090"});
    EXPECT_EQ(run.name, "table1@a100,rtx3090");
    EXPECT_EQ(run.manifest.device, "a100,rtx3090");
    EXPECT_NE(run.find_row("table1|device=A100"), nullptr);
    EXPECT_NE(run.find_row("table1|device=RTX3090"), nullptr);
    for (const prof::BenchRow &row : run.rows) {
        if (row.series != "plan_cache") {
            ASSERT_FALSE(row.labels.empty()) << row.series;
            EXPECT_EQ(row.labels.front().first, "device") << row.series;
        }
    }
}

TEST(GateTest, PresetRunsAreDeterministicAndStamped)
{
    ::unsetenv("MULTIGRAIN_PERTURB");
    const bench::BenchPreset *tiny = bench::find_bench_preset("tiny");
    ASSERT_NE(tiny, nullptr);
    const prof::BenchRun a = bench::run_bench_preset(*tiny, {"a100"});
    const prof::BenchRun b = bench::run_bench_preset(*tiny, {"a100"});

    EXPECT_EQ(a.name, "tiny@a100");
    EXPECT_EQ(a.manifest.device, "a100");
    EXPECT_EQ(a.manifest.schema_version, prof::kBenchSchemaVersion);
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (std::size_t i = 0; i < a.rows.size(); ++i) {
        ASSERT_EQ(a.rows[i].key(), b.rows[i].key());
        ASSERT_EQ(a.rows[i].metrics.size(), b.rows[i].metrics.size());
        for (std::size_t j = 0; j < a.rows[i].metrics.size(); ++j) {
            EXPECT_EQ(a.rows[i].metrics[j].second,
                      b.rows[i].metrics[j].second)
                << a.rows[i].key() << "." << a.rows[i].metrics[j].first;
        }
    }

    // The plan-cache row rides along (satellite: cache regressions gate
    // with latency) and is a per-preset delta — identical across the two
    // runs because run_bench_preset clears the process-wide cache.
    const prof::BenchRow *cache_row = nullptr;
    for (const prof::BenchRow &row : a.rows) {
        if (row.series == "plan_cache") {
            cache_row = &row;
        }
    }
    ASSERT_NE(cache_row, nullptr);
    ASSERT_NE(cache_row->find_metric("plan_cache.misses"), nullptr);
    EXPECT_GT(*cache_row->find_metric("plan_cache.misses"), 0);
}

TEST(GateTest, MemoryMetricsGateExactly)
{
    // Footprints are arithmetic, not measurements: the generic "_bytes"
    // 2 % tolerance must NOT apply to the planner's outputs.
    const prof::MetricPolicy peak =
        prof::default_metric_policy("peak_hbm_bytes");
    EXPECT_EQ(peak.direction, prof::Direction::kLowerIsBetter);
    EXPECT_DOUBLE_EQ(peak.rel_tol, 0.0);
    EXPECT_DOUBLE_EQ(peak.abs_tol, 0.0);

    const prof::MetricPolicy round =
        prof::default_metric_policy("peak_round_hbm_bytes");
    EXPECT_DOUBLE_EQ(round.rel_tol, 0.0);

    const prof::MetricPolicy savings =
        prof::default_metric_policy("pooling_savings");
    EXPECT_EQ(savings.direction, prof::Direction::kHigherIsBetter);
    EXPECT_DOUBLE_EQ(savings.rel_tol, 0.0);

    EXPECT_EQ(prof::default_metric_policy("max_queued_hbm_bytes")
                  .direction,
              prof::Direction::kInformational);
}

TEST(GateTest, GrownFootprintFailsTheGate)
{
    // The in-process half of CI's memory self-test (--perturb-mem runs
    // the env hook end-to-end in a fresh process; MULTIGRAIN_MEM_PERTURB
    // is read once per process, so it cannot be toggled here): a single
    // byte of footprint growth must regress under the exact policy.
    ::unsetenv("MULTIGRAIN_PERTURB");
    const bench::BenchPreset *tiny = bench::find_bench_preset("tiny");
    ASSERT_NE(tiny, nullptr);
    const prof::BenchRun baseline =
        bench::run_bench_preset(*tiny, {"a100"});

    prof::BenchRun grown = baseline;
    int touched = 0;
    for (prof::BenchRow &row : grown.rows) {
        for (auto &[key, value] : row.metrics) {
            if (key == "peak_hbm_bytes") {
                value += 1.0;
                ++touched;
            }
        }
    }
    ASSERT_GT(touched, 0) << "tiny rows carry no footprint metrics";

    const prof::RegressionReport report =
        prof::compare_runs(baseline, grown);
    EXPECT_TRUE(report.gate_failed());
    EXPECT_GE(report.regressed, touched);

    // A shrunk footprint is an improvement, never a regression.
    prof::BenchRun shrunk = baseline;
    for (prof::BenchRow &row : shrunk.rows) {
        for (auto &[key, value] : row.metrics) {
            if (key == "peak_hbm_bytes") {
                value -= 1.0;
            }
        }
    }
    const prof::RegressionReport better =
        prof::compare_runs(baseline, shrunk);
    EXPECT_FALSE(better.gate_failed());
    EXPECT_GT(better.improved, 0);
}

TEST(GateTest, PerturbedRunFailsAgainstCleanBaseline)
{
    ::unsetenv("MULTIGRAIN_PERTURB");
    const bench::BenchPreset *tiny = bench::find_bench_preset("tiny");
    ASSERT_NE(tiny, nullptr);
    const prof::BenchRun baseline =
        bench::run_bench_preset(*tiny, {"a100"});

    prof::BenchRun perturbed;
    {
        // A 40 % DRAM-bandwidth cut is far outside every tolerance.
        const fixtures::ScopedEnv perturb("MULTIGRAIN_PERTURB", "dram=0.6");
        perturbed = bench::run_bench_preset(*tiny, {"a100"});
    }

    const prof::RegressionReport report =
        prof::compare_runs(baseline, perturbed);
    EXPECT_TRUE(report.gate_failed());
    EXPECT_GT(report.regressed, 0);
    EXPECT_EQ(report.missing_rows, 0);

    // And the clean re-run still passes — the hook leaves no residue.
    const prof::BenchRun clean = bench::run_bench_preset(*tiny, {"a100"});
    const prof::RegressionReport clean_report =
        prof::compare_runs(baseline, clean);
    EXPECT_FALSE(clean_report.gate_failed());
    EXPECT_EQ(clean_report.regressed, 0);
}

}  // namespace
}  // namespace multigrain
