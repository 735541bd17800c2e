// The profiler subsystem: phase carving by the kernel naming convention,
// the metric registry and the schema-versioned JSON/CSV exporters.

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/timer.h"
#include "gpusim/device.h"
#include "gpusim/engine.h"
#include "profiler/export.h"
#include "profiler/metrics.h"

namespace multigrain::prof {
namespace {

sim::KernelStats
make_kernel(const std::string &name, int stream, double start_us,
            double end_us, double dram_mb = 1.0)
{
    sim::KernelStats k;
    k.name = name;
    k.stream = stream;
    k.num_tbs = 64;
    k.occupancy_per_sm = 2;
    k.ready_us = start_us;
    k.start_us = start_us;
    k.end_us = end_us;
    k.work.cuda_flops = 1e9;
    k.work.dram_read_bytes = dram_mb * 1e6;
    k.avg_concurrency = 32;
    return k;
}

/// Hand-built timeline following the repo's naming convention: one layer
/// tag, three attention ops, coarse ∥ fine overlap on separate streams.
sim::SimResult
layered_result()
{
    sim::SimResult r;
    r.kernels.push_back(make_kernel("L00.attn.sddmm.coarse", 0, 0, 10));
    r.kernels.push_back(make_kernel("L00.attn.sddmm.fine", 1, 0, 8));
    r.kernels.push_back(make_kernel("L00.attn.softmax.compound", 0, 10, 14));
    r.kernels.push_back(make_kernel("L00.attn.spmm.coarse", 0, 14, 22));
    r.kernels.push_back(make_kernel("L00.attn.spmm.fine", 1, 14, 20));
    r.kernels.push_back(make_kernel("L01.gemm.ffn1", 0, 22, 30));
    for (const auto &k : r.kernels) {
        r.work += k.work;
    }
    r.total_us = 30;
    return r;
}

// ---------------------------------------------------------- carving ------

TEST(ProfilerTest, CarvesOpsSubphasesAndLayers)
{
    const ProfiledRun run =
        profile(layered_result(), sim::DeviceSpec::a100());

    ASSERT_NE(run.find_op("sddmm"), nullptr);
    ASSERT_NE(run.find_op("softmax"), nullptr);
    ASSERT_NE(run.find_op("spmm"), nullptr);
    ASSERT_NE(run.find_op("gemm"), nullptr);
    EXPECT_EQ(run.find_op("bwd"), nullptr);

    const PhaseStats &sddmm = *run.find_op("sddmm");
    EXPECT_EQ(sddmm.kernel_count, 2);
    EXPECT_DOUBLE_EQ(sddmm.span_us, 10.0);   // max end 10 - min start 0.
    EXPECT_DOUBLE_EQ(sddmm.busy_us, 18.0);   // 10 + 8.
    EXPECT_DOUBLE_EQ(sddmm.overlap, 1.8);    // Two streams overlapping.
    EXPECT_DOUBLE_EQ(sddmm.start_us, 0.0);
    EXPECT_DOUBLE_EQ(sddmm.end_us, 10.0);

    ASSERT_NE(run.find_subphase("sddmm.coarse"), nullptr);
    ASSERT_NE(run.find_subphase("sddmm.fine"), nullptr);
    EXPECT_EQ(run.find_subphase("sddmm.coarse")->kernel_count, 1);

    ASSERT_NE(run.find_layer("L00"), nullptr);
    ASSERT_NE(run.find_layer("L01"), nullptr);
    EXPECT_EQ(run.find_layer("L00")->kernel_count, 5);
    EXPECT_EQ(run.find_layer("L01")->kernel_count, 1);

    // Groups come out ordered by first start.
    ASSERT_GE(run.ops.size(), 2u);
    for (std::size_t i = 1; i < run.ops.size(); ++i) {
        EXPECT_LE(run.ops[i - 1].start_us, run.ops[i].start_us);
    }
}

TEST(ProfilerTest, CarvePrefixMatchingNothingIsAllZero)
{
    const PhaseStats none = carve_prefix(
        layered_result(), sim::DeviceSpec::a100(), "does-not-exist");
    EXPECT_EQ(none.kernel_count, 0);
    EXPECT_EQ(none.span_us, 0.0);
    EXPECT_EQ(none.busy_us, 0.0);
    EXPECT_EQ(none.overlap, 0.0);
    EXPECT_EQ(none.achieved_occupancy, 0.0);
    EXPECT_EQ(none.dram_bytes(), 0.0);
}

TEST(ProfilerTest, CarveZeroDurationKernel)
{
    sim::SimResult r;
    r.kernels.push_back(make_kernel("ew.noop", 0, 5, 5, 0.0));
    r.total_us = 5;
    const PhaseStats p =
        carve_prefix(r, sim::DeviceSpec::a100(), "ew.noop");
    EXPECT_EQ(p.kernel_count, 1);
    EXPECT_EQ(p.span_us, 0.0);
    EXPECT_EQ(p.busy_us, 0.0);
    // Utilizations over a zero span must not blow up to inf/nan.
    EXPECT_TRUE(std::isfinite(p.overlap));
    EXPECT_TRUE(std::isfinite(p.tensor_util));
    EXPECT_TRUE(std::isfinite(p.dram_util));
    EXPECT_TRUE(std::isfinite(p.achieved_occupancy));
}

TEST(ProfilerTest, AchievedOccupancyStaysInUnitRange)
{
    const ProfiledRun run =
        profile(layered_result(), sim::DeviceSpec::a100());
    for (const auto *groups : {&run.ops, &run.subphases, &run.layers}) {
        for (const PhaseStats &p : *groups) {
            EXPECT_GE(p.achieved_occupancy, 0.0) << p.name;
            EXPECT_LE(p.achieved_occupancy, 1.0) << p.name;
        }
    }
}

TEST(ProfilerTest, MetricRegistryCoversPhaseStats)
{
    const std::vector<MetricDef> &registry = phase_metric_registry();
    ASSERT_FALSE(registry.empty());
    const ProfiledRun run =
        profile(layered_result(), sim::DeviceSpec::a100());
    ASSERT_NE(run.find_op("sddmm"), nullptr);
    const PhaseStats &sddmm = *run.find_op("sddmm");
    bool saw_span = false;
    for (const MetricDef &m : registry) {
        ASSERT_NE(m.key, nullptr);
        ASSERT_NE(m.get, nullptr);
        const double v = m.get(sddmm);
        EXPECT_TRUE(std::isfinite(v)) << m.key;
        if (std::string(m.key) == "span_us") {
            saw_span = true;
            EXPECT_DOUBLE_EQ(v, 10.0);
        }
    }
    EXPECT_TRUE(saw_span);
}

// ------------------------------------------------------------- export ----

TEST(ProfilerTest, SchemaVersionIsPinned)
{
    // Bumping the version is a deliberate act: update this test and the
    // docs/profiling.md schema section together.
    EXPECT_EQ(kSchemaVersion, 1);
    EXPECT_STREQ(kProfileSchema, "mgprof.profile");
    EXPECT_STREQ(kBenchSchema, "mgprof.bench");
    // Bench v2 added the RunManifest header (docs/benchmarking.md).
    EXPECT_EQ(kBenchSchemaVersion, 2);
    EXPECT_STREQ(kRegressionSchema, "mgperf.report");
    EXPECT_EQ(kRegressionSchemaVersion, 1);
}

TEST(ProfilerTest, ProfileJsonIsValidAndCarriesPhases)
{
    reset_host_timers();
    add_host_timer_sample("patterns.slice", 42.0);
    const ProfiledRun run =
        profile(layered_result(), sim::DeviceSpec::a100());

    const JsonValue doc = json_parse(to_json(run));
    EXPECT_EQ(doc.at("schema").as_string(), kProfileSchema);
    EXPECT_EQ(doc.at("device").as_string(), "A100");
    ASSERT_TRUE(doc.at("ops").is_array());
    ASSERT_FALSE(doc.at("ops").array.empty());

    bool found_sddmm = false;
    for (const JsonValue &phase : doc.at("ops").array) {
        if (phase.at("name").as_string() == "sddmm") {
            found_sddmm = true;
            EXPECT_DOUBLE_EQ(phase.at("span_us").as_number(), 10.0);
            EXPECT_DOUBLE_EQ(phase.at("overlap").as_number(), 1.8);
            EXPECT_FALSE(phase.at("bound").as_string().empty());
        }
    }
    EXPECT_TRUE(found_sddmm);

    // The host timers captured at profile() time ride along.
    ASSERT_TRUE(doc.at("host_timers").is_array());
    ASSERT_EQ(doc.at("host_timers").array.size(), 1u);
    EXPECT_EQ(doc.at("host_timers").array[0].at("name").as_string(),
              "patterns.slice");
    reset_host_timers();

    // So do the engine counters, as one object.
    ASSERT_TRUE(doc.at("engine").is_object());
    EXPECT_EQ(doc.at("engine").at("units").as_number(), 0.0);
}

TEST(ProfilerTest, PhaseCsvHasRegistryColumnsAndAllGroups)
{
    const ProfiledRun run =
        profile(layered_result(), sim::DeviceSpec::a100());
    std::ostringstream os;
    write_phase_csv(run, os);
    std::istringstream lines(os.str());
    std::string header;
    ASSERT_TRUE(static_cast<bool>(std::getline(lines, header)));
    EXPECT_EQ(header.rfind("group,name,", 0), 0u) << header;
    for (const MetricDef &m : phase_metric_registry()) {
        EXPECT_NE(header.find(m.key), std::string::npos) << m.key;
    }
    std::size_t rows = 0;
    std::string line;
    bool saw_layer_group = false;
    while (std::getline(lines, line)) {
        if (!line.empty()) {
            ++rows;
            saw_layer_group |= line.rfind("layer,", 0) == 0;
        }
    }
    EXPECT_EQ(rows,
              run.ops.size() + run.subphases.size() + run.layers.size());
    EXPECT_TRUE(saw_layer_group);
}

TEST(ProfilerTest, ProfileOfEmptyResultIsEmptyButValid)
{
    const ProfiledRun run =
        profile(sim::SimResult{}, sim::DeviceSpec::rtx3090());
    EXPECT_TRUE(run.ops.empty());
    EXPECT_TRUE(run.subphases.empty());
    EXPECT_TRUE(run.layers.empty());
    const JsonValue doc = json_parse(to_json(run));
    EXPECT_EQ(doc.at("schema").as_string(), kProfileSchema);
    EXPECT_TRUE(doc.at("ops").array.empty());
}

// Kernels named outside the convention still carve cleanly: the leading
// segment becomes their op group and no layer group is invented.
TEST(ProfilerTest, UnconventionalNamesFormTheirOwnGroups)
{
    sim::SimResult r;
    r.kernels.push_back(make_kernel("warmup", 0, 0, 1));
    r.kernels.push_back(make_kernel("chunk.copy", 0, 1, 2));
    r.total_us = 2;
    const ProfiledRun run = profile(r, sim::DeviceSpec::a100());
    EXPECT_EQ(run.find_op("sddmm"), nullptr);
    ASSERT_NE(run.find_op("warmup"), nullptr);
    ASSERT_NE(run.find_op("chunk"), nullptr);
    EXPECT_NE(run.find_subphase("chunk.copy"), nullptr);
    EXPECT_TRUE(run.layers.empty());
}

}  // namespace
}  // namespace multigrain::prof
