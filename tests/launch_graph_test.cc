// LaunchGraph capture/replay tests: the stream-order and join edges
// capture records (checked against a naive oracle over random programs),
// append's name prefixing and stream maps, replay into a GpuSim's program
// under a stream binding, and the errors replay raises on a simulator that
// has run or on a binding naming a stream the simulator never created.
// Golden digests of whole engine and runner plans live in
// golden_digest_test.cc.

#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "gpusim/device.h"
#include "gpusim/engine.h"
#include "gpusim/launch_graph.h"

namespace multigrain {
namespace {

sim::KernelLaunch
toy_launch(const std::string &name, double flops)
{
    sim::KernelLaunch launch;
    launch.name = name;
    sim::TbWork work;
    work.tensor_flops = flops;
    work.dram_read_bytes = 1024;
    launch.add_tb(work, 4);
    return launch;
}

// ---------------------------------------------------------------------------
// Capture semantics.

TEST(LaunchGraphTest, CapturesStreamOrderAndJoinEdges)
{
    LaunchGraph graph;
    graph.launch(0, toy_launch("a", 1e6));
    const int s1 = graph.create_stream();
    EXPECT_EQ(s1, 1);
    graph.launch(s1, toy_launch("b", 1e6));
    graph.join_streams();
    graph.launch(0, toy_launch("c", 1e6));
    graph.launch(0, toy_launch("d", 1e6));

    ASSERT_EQ(graph.size(), 4u);
    EXPECT_EQ(graph.num_streams(), 2);
    EXPECT_TRUE(graph.nodes()[0].deps.empty());
    EXPECT_TRUE(graph.nodes()[1].deps.empty());
    // c waits on the join set {a, b}; d only on c (stream order).
    EXPECT_EQ(graph.nodes()[2].deps, (std::vector<int>{0, 1}));
    EXPECT_EQ(graph.nodes()[3].deps, (std::vector<int>{2}));
    // Op stream: a, b, JOIN, c, d.
    EXPECT_EQ(graph.ops(),
              (std::vector<int>{0, 1, LaunchGraph::kJoin, 2, 3}));
    graph.validate();
    EXPECT_EQ(graph.total_work().tensor_flops, 4 * 4e6);
}

TEST(LaunchGraphTest, AppendPrefixesNamesAndMapsStreams)
{
    LaunchGraph inner;
    const int s1 = inner.create_stream();
    inner.launch(0, toy_launch("x", 1e6));
    inner.launch(s1, toy_launch("y", 1e6));
    inner.join_streams();

    LaunchGraph outer;
    outer.launch(0, toy_launch("pre", 1e6));
    outer.append(inner, "g1.");
    outer.append(inner, "g2.");
    outer.validate();

    ASSERT_EQ(outer.size(), 5u);
    EXPECT_EQ(outer.nodes()[1].launch.name, "g1.x");
    EXPECT_EQ(outer.nodes()[2].launch.name, "g1.y");
    EXPECT_EQ(outer.nodes()[3].launch.name, "g2.x");
    // Null stream map: inner stream 0 -> outer stream 0, inner stream 1
    // gets a fresh outer stream per append.
    EXPECT_EQ(outer.nodes()[1].stream, 0);
    EXPECT_EQ(outer.nodes()[2].stream, 1);
    EXPECT_EQ(outer.nodes()[4].stream, 2);
    // g1.x serializes after "pre" on stream 0 (context edge recomputed).
    EXPECT_EQ(outer.nodes()[1].deps, (std::vector<int>{0}));
    // g2.x waits on g1's join set.
    EXPECT_EQ(outer.nodes()[3].deps, (std::vector<int>{1, 2}));
}

TEST(LaunchGraphTest, AppendWithExplicitStreamMap)
{
    LaunchGraph inner;
    const int s1 = inner.create_stream();
    inner.launch(s1, toy_launch("k", 1e6));

    LaunchGraph outer;
    const int a = outer.create_stream();
    const int b = outer.create_stream();
    const std::vector<int> map = {0, b};
    outer.append(inner, "", &map);
    EXPECT_EQ(outer.nodes()[0].stream, b);
    EXPECT_NE(outer.nodes()[0].stream, a);

    const std::vector<int> short_map = {0};
    EXPECT_THROW(outer.append(inner, "", &short_map), Error);
}

TEST(LaunchGraphTest, ReplayAfterExistingWorkSerializesOnStreamZero)
{
    LaunchGraph before;
    before.launch(0, toy_launch("before", 1e6));
    LaunchGraph graph;
    graph.launch(0, toy_launch("g", 1e6));

    sim::GpuSim sim(sim::DeviceSpec::a100());
    before.replay_into(sim);
    graph.replay_into(sim, "step.");
    const sim::SimResult result = sim.run();
    ASSERT_EQ(result.kernels.size(), 2u);
    EXPECT_EQ(result.kernels[1].name, "step.g");
    // The replayed kernel lands on real stream 0 behind the existing one.
    EXPECT_EQ(result.kernels[1].stream, 0);
    EXPECT_EQ(result.kernels[1].deps, (std::vector<int>{0}));
}

TEST(LaunchGraphTest, BindingReuseKeepsStreamsStableAcrossReplays)
{
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    graph.launch(s1, toy_launch("k", 1e6));
    graph.join_streams();

    sim::GpuSim sim(sim::DeviceSpec::a100());
    std::vector<int> binding;
    graph.replay_into(sim, binding, "r0.");
    const std::vector<int> first = binding;
    graph.replay_into(sim, binding, "r1.");
    EXPECT_EQ(binding, first);

    const sim::SimResult result = sim.run();
    ASSERT_EQ(result.kernels.size(), 2u);
    EXPECT_EQ(result.kernels[0].stream, result.kernels[1].stream);
}

// ---------------------------------------------------------------------------
// Replay error paths.

TEST(LaunchGraphReplay, ReplayAfterRunThrows)
{
    LaunchGraph graph;
    graph.launch(0, toy_launch("k", 1e6));
    sim::GpuSim sim(sim::DeviceSpec::a100());
    graph.replay_into(sim);
    sim.run();
    EXPECT_THROW(graph.replay_into(sim), Error);
}

TEST(LaunchGraphReplay, BindingToUnknownStreamThrows)
{
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    graph.create_stream();
    graph.launch(s1, toy_launch("k", 1e6));

    sim::GpuSim sim(sim::DeviceSpec::a100());
    std::vector<int> past_end = {0, 1};  // The sim only has stream 0.
    EXPECT_THROW(graph.replay_into(sim, past_end), Error);
    std::vector<int> negative = {-1};
    EXPECT_THROW(graph.replay_into(sim, negative), Error);
    EXPECT_EQ(past_end, (std::vector<int>{0, 1}));
    // A rejected binding left the program untouched: a fresh binding
    // still gets real streams 1 and 2, and only its kernel runs.
    graph.replay_into(sim);
    const sim::SimResult result = sim.run();
    ASSERT_EQ(result.kernels.size(), 1u);
    EXPECT_EQ(result.kernels[0].stream, 1);
}

// (A second GpuSim::run() throwing is EngineTest.RunTwiceThrows.)

// ---------------------------------------------------------------------------
// The edge rule against a naive oracle.

/// The deps of every launch of a program given as its op stream (a stream
/// per launch, LaunchGraph::kJoin per join), computed from the rule's
/// statement alone by scanning the history: a launch depends on the
/// previous launch on its stream, and the first launch on a stream after a
/// join also depends on every stream's last launch before that join.
std::vector<std::vector<int>>
oracle_deps(const std::vector<int> &ops, int streams)
{
    std::vector<int> node(ops.size(), -1);  // Node index of each launch.
    for (std::size_t p = 0, n = 0; p < ops.size(); ++p) {
        if (ops[p] != LaunchGraph::kJoin) {
            node[p] = static_cast<int>(n++);
        }
    }
    // The last launch on stream `s` before op position `end`, or -1.
    const auto last_on = [&](int s, std::size_t end) {
        int found = -1;
        for (std::size_t q = 0; q < end; ++q) {
            found = ops[q] == s ? node[q] : found;
        }
        return found;
    };
    std::vector<std::vector<int>> deps;
    for (std::size_t p = 0; p < ops.size(); ++p) {
        const int s = ops[p];
        if (s == LaunchGraph::kJoin) {
            continue;
        }
        std::set<int> d = {last_on(s, p)};
        std::size_t join = p;  // The last join before p, if any.
        for (std::size_t q = 0; q < p; ++q) {
            join = ops[q] == LaunchGraph::kJoin ? q : join;
        }
        if (join < p && last_on(s, p) == last_on(s, join)) {
            for (int t = 0; t < streams; ++t) {
                d.insert(last_on(t, join));
            }
        }
        d.erase(-1);
        deps.emplace_back(d.begin(), d.end());
    }
    return deps;
}

class LaunchGraphOracle : public ::testing::TestWithParam<int> {};

TEST_P(LaunchGraphOracle, CaptureAndReplayMatchTheNaiveEdgeRule)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919u + 3);
    const int streams = static_cast<int>(rng.next_range(2, 5));
    const int launches = static_cast<int>(rng.next_range(50, 200));

    LaunchGraph graph;
    while (graph.num_streams() < streams) {
        graph.create_stream();
    }
    std::vector<int> ops;  // The calls made: a stream per launch, or kJoin.
    for (int k = 0; k < launches; ++k) {
        if (rng.next_float() < 0.15f) {
            graph.join_streams();
            ops.push_back(LaunchGraph::kJoin);
        }
        const int s = static_cast<int>(rng.next_range(0, streams - 1));
        graph.launch(s, toy_launch("k" + std::to_string(k), 1e5));
        ops.push_back(s);
    }

    const std::vector<std::vector<int>> expected =
        oracle_deps(ops, streams);
    ASSERT_EQ(graph.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(graph.nodes()[i].deps, expected[i]) << "node " << i;
    }

    // Replay under a non-identity binding: first give the simulator its
    // streams through a kernel-free graph, then bind the program's
    // logical streams to them in reverse.
    sim::GpuSim sim(sim::DeviceSpec::a100());
    LaunchGraph streams_only;
    while (streams_only.num_streams() < streams) {
        streams_only.create_stream();
    }
    streams_only.replay_into(sim);
    std::vector<int> binding(static_cast<std::size_t>(streams));
    std::iota(binding.rbegin(), binding.rend(), 0);
    graph.replay_into(sim, binding);
    const sim::SimResult result = sim.run();

    ASSERT_EQ(result.kernels.size(), graph.size());
    for (std::size_t i = 0; i < graph.size(); ++i) {
        const LaunchGraphNode &node = graph.nodes()[i];
        const sim::KernelStats &k = result.kernels[i];
        EXPECT_EQ(k.deps, node.deps) << "kernel " << i;
        EXPECT_EQ(k.stream, binding[static_cast<std::size_t>(node.stream)])
            << "kernel " << i;
        for (const int dep : k.deps) {
            EXPECT_GE(k.ready_us,
                      result.kernels[static_cast<std::size_t>(dep)].end_us)
                << "kernel " << i << " ran before its dep " << dep;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaunchGraphOracle, ::testing::Range(0, 8));

}  // namespace
}  // namespace multigrain
