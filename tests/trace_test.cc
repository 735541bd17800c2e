// Validates the Chrome/Perfetto trace exporter on a real simulated
// multi-stream program: the emitted document must be valid JSON, carry one
// named lane per stream, keep per-lane slice timestamps monotonic, and
// draw exactly the cross-stream flow arrows the join_streams() barriers
// imply.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "gpusim/device.h"
#include "gpusim/engine.h"
#include "trace_test_util.h"

namespace multigrain::sim {
namespace {

KernelLaunch
make_kernel(const std::string &name, double cuda_flops, index_t tbs)
{
    KernelLaunch launch;
    launch.name = name;
    TbWork w;
    w.cuda_flops = cuda_flops;
    w.dram_read_bytes = 1 << 20;
    launch.add_tb(w, tbs);
    return launch;
}

/// Two-stream program with a barrier: a∥b, join, then c (waits for both).
SimResult
simulate_joined_program()
{
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    graph.launch(0, make_kernel("sddmm.coarse", 1e9, 256));
    graph.launch(s1, make_kernel("sddmm.fine", 2e9, 512));
    graph.join_streams();
    graph.launch(0, make_kernel("softmax.compound", 1e9, 256));
    return simulate(DeviceSpec::a100(), graph);
}

/// All events of a given "ph" type in document order.
std::vector<const JsonValue *>
events_of_type(const JsonValue &doc, const std::string &ph)
{
    std::vector<const JsonValue *> out;
    for (const JsonValue &e : doc.at("traceEvents").array) {
        if (e.at("ph").as_string() == ph) {
            out.push_back(&e);
        }
    }
    return out;
}

TEST(TraceTest, EmitsValidJson)
{
    const SimResult result = simulate_joined_program();
    const JsonValue doc =
        json_parse(chrome_trace_json(result, DeviceSpec::a100()));
    ASSERT_TRUE(doc.is_object());
    ASSERT_TRUE(doc.at("traceEvents").is_array());
    EXPECT_FALSE(doc.at("traceEvents").array.empty());
}

TEST(TraceTest, OneNamedLanePerStream)
{
    const SimResult result = simulate_joined_program();
    std::set<int> streams;
    for (const auto &k : result.kernels) {
        streams.insert(k.stream);
    }
    ASSERT_EQ(streams.size(), 2u);

    const JsonValue doc =
        json_parse(chrome_trace_json(result, DeviceSpec::a100()));
    std::map<int, std::string> lane_names;
    for (const JsonValue *e : events_of_type(doc, "M")) {
        ASSERT_EQ(e->at("name").as_string(), "thread_name");
        const int tid = static_cast<int>(e->at("tid").as_number());
        EXPECT_EQ(lane_names.count(tid), 0u) << "duplicate lane " << tid;
        lane_names[tid] = e->at("args").at("name").as_string();
    }
    for (const int s : streams) {
        ASSERT_EQ(lane_names.count(s), 1u);
        EXPECT_EQ(lane_names[s], "stream " + std::to_string(s));
    }
}

TEST(TraceTest, SliceTimestampsMonotonicPerLane)
{
    const SimResult result = simulate_joined_program();
    const JsonValue doc =
        json_parse(chrome_trace_json(result, DeviceSpec::a100()));
    std::map<int, double> last_ts;
    int slices = 0;
    for (const JsonValue *e : events_of_type(doc, "X")) {
        const int tid = static_cast<int>(e->at("tid").as_number());
        const double ts = e->at("ts").as_number();
        const double dur = e->at("dur").as_number();
        EXPECT_GE(ts, 0.0);
        EXPECT_GE(dur, 0.0);
        if (last_ts.count(tid)) {
            EXPECT_GE(ts, last_ts[tid])
                << "slices on lane " << tid << " not in time order";
        }
        last_ts[tid] = ts;
        ++slices;
    }
    EXPECT_EQ(slices, static_cast<int>(result.kernels.size()));
}

TEST(TraceTest, FlowEventsMatchCrossStreamJoins)
{
    const SimResult result = simulate_joined_program();

    // Ground truth from the engine: one edge per cross-stream dependency.
    int expected_edges = 0;
    for (const auto &k : result.kernels) {
        for (const int dep : k.deps) {
            if (result.kernels[static_cast<std::size_t>(dep)].stream !=
                k.stream) {
                ++expected_edges;
            }
        }
    }
    ASSERT_GT(expected_edges, 0) << "program must exercise a join";

    const JsonValue doc =
        json_parse(chrome_trace_json(result, DeviceSpec::a100()));
    const auto starts = events_of_type(doc, "s");
    const auto finishes = events_of_type(doc, "f");
    EXPECT_EQ(static_cast<int>(starts.size()), expected_edges);
    EXPECT_EQ(static_cast<int>(finishes.size()), expected_edges);

    // Every start pairs with exactly one finish by id, arrow pointing
    // forward in time and across lanes.
    std::map<int, const JsonValue *> finish_by_id;
    for (const JsonValue *f : finishes) {
        const int id = static_cast<int>(f->at("id").as_number());
        EXPECT_EQ(finish_by_id.count(id), 0u);
        finish_by_id[id] = f;
    }
    for (const JsonValue *s : starts) {
        EXPECT_EQ(s->at("cat").as_string(), "dep");
        const int id = static_cast<int>(s->at("id").as_number());
        ASSERT_EQ(finish_by_id.count(id), 1u);
        const JsonValue *f = finish_by_id[id];
        EXPECT_NE(s->at("tid").as_number(), f->at("tid").as_number());
        EXPECT_LE(s->at("ts").as_number(), f->at("ts").as_number());
    }
}

TEST(TraceTest, CounterTracksNeedDeviceAndStayInRange)
{
    const SimResult result = simulate_joined_program();
    const JsonValue doc =
        json_parse(chrome_trace_json(result, DeviceSpec::a100()));
    const auto counters = events_of_type(doc, "C");
    ASSERT_FALSE(counters.empty());
    double last_ts = 0;
    for (const JsonValue *c : counters) {
        const std::string &name = c->at("name").as_string();
        ASSERT_TRUE(name == "dram_util" || name == "resident_tbs") << name;
        EXPECT_GE(c->at("ts").as_number(), 0.0);
        last_ts = std::max(last_ts, c->at("ts").as_number());
        if (name == "dram_util") {
            const double util = c->at("args").at("util").as_number();
            EXPECT_GE(util, 0.0);
        }
    }
    // The tracks close with zero samples at the last boundary.
    EXPECT_GE(last_ts, result.total_us - 1e-9);
}

TEST(TraceTest, PhaseMarksLandOnTheirOwnLane)
{
    const SimResult result = simulate_joined_program();
    const JsonValue doc = json_parse(chrome_trace_json(
        result, DeviceSpec::a100(),
        {{"sddmm", 0.0, 10.0}, {"softmax", 10.0, 25.0}}));

    std::set<int> kernel_lanes;
    for (const auto &k : result.kernels) {
        kernel_lanes.insert(k.stream);
    }
    int marks = 0;
    int mark_lane = -1;
    for (const JsonValue *e : events_of_type(doc, "X")) {
        const int tid = static_cast<int>(e->at("tid").as_number());
        if (kernel_lanes.count(tid)) {
            continue;
        }
        mark_lane = tid;
        ++marks;
    }
    EXPECT_EQ(marks, 2);
    // The phases lane is announced like the stream lanes.
    bool lane_named = false;
    for (const JsonValue *e : events_of_type(doc, "M")) {
        if (static_cast<int>(e->at("tid").as_number()) == mark_lane) {
            lane_named = e->at("args").at("name").as_string() == "phases";
        }
    }
    EXPECT_TRUE(lane_named);
}

TEST(TraceTest, EmptyResultStillParses)
{
    const SimResult empty;
    const JsonValue doc =
        json_parse(chrome_trace_json(empty, DeviceSpec::a100()));
    EXPECT_TRUE(doc.at("traceEvents").array.empty());
}

}  // namespace
}  // namespace multigrain::sim
