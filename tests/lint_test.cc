// Plan lint tests. The load-bearing pair of properties:
//
//  * Sensitivity: seeding a missing-edge hazard into an otherwise-correct
//    captured plan (dropping one dep via the test hook) is detected, with
//    the right endpoints, the right buffer, and a witness chain proving
//    both kernels can be in flight at once.
//  * Specificity: every plan the engines and the runner actually ship —
//    all models x devices x slice modes, forward and backward, per-phase
//    and composed per-layer — lints clean with zero hazards.
//
// Plus unit coverage for each lint kind over hand-built graphs, the
// buffer interner/namespacing, the strengthened validate(), and the
// capture-time enforcement that keeps a racy plan out of the PlanCache.

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "plan_test_util.h"

#include "common/error.h"
#include "common/rng.h"
#include "core/attention.h"
#include "core/check.h"
#include "core/lint.h"
#include "core/plan_cache.h"
#include "gpusim/device.h"
#include "gpusim/launch_graph.h"
#include "patterns/slice.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

namespace multigrain {
namespace {

using fixtures::tiny_forward_graph;
using fixtures::toy_launch;

/// Pins capture-time lint enforcement for tests that lint explicitly.
struct ScopedLintEnv : fixtures::ScopedEnv {
    explicit ScopedLintEnv(const char *value)
        : ScopedEnv("MULTIGRAIN_LINT", value) {}
};

int
find_node(const LaunchGraph &graph, const std::string &name)
{
    for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
        if (graph.nodes()[i].launch.name == name) {
            return static_cast<int>(i);
        }
    }
    ADD_FAILURE() << "no node named " << name;
    return -1;
}

bool
has_dep(const LaunchGraph &graph, int node, int dep)
{
    const std::vector<int> &deps =
        graph.nodes()[static_cast<std::size_t>(node)].deps;
    return std::find(deps.begin(), deps.end(), dep) != deps.end();
}

/// The witness contract: oldest-first, consecutive elements connected by
/// real dep edges, ending at the endpoint, never passing through the
/// other endpoint.
void
check_witness(const LaunchGraph &graph, const std::vector<int> &chain,
              int endpoint, int other)
{
    ASSERT_FALSE(chain.empty());
    EXPECT_EQ(chain.back(), endpoint);
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
        EXPECT_TRUE(has_dep(graph, chain[i + 1], chain[i]))
            << chain[i] << " -> " << chain[i + 1] << " is not an edge";
    }
    EXPECT_EQ(std::find(chain.begin(), chain.end(), other), chain.end())
        << "witness for node " << endpoint
        << " passes through the other endpoint " << other;
}

// ---------------------------------------------------------------------------
// Sensitivity: seeded missing-edge hazards are caught with correct witness.

TEST(LintHazards, DroppedSoftmaxToSpmmEdgeIsRawHazard)
{
    const ScopedLintEnv env("0");
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    LaunchGraph graph = tiny_forward_graph(device);
    EXPECT_TRUE(lint_graph(graph).clean());

    // spmm.fine reads the compound scores softmax.compound rewrote; the
    // join barrier between the phases carries that edge. Drop it.
    const int softmax = find_node(graph, "softmax.compound");
    const int spmm = find_node(graph, "spmm.fine");
    graph.drop_dep_for_test(spmm, softmax);

    const LintReport report = lint_graph(graph);
    ASSERT_EQ(report.hazards(), 1u);
    const LintFinding &f = report.findings.front();
    EXPECT_EQ(f.kind, LintKind::kRawHazard);
    EXPECT_EQ(f.severity, LintSeverity::kError);
    EXPECT_EQ(f.node_a, softmax);
    EXPECT_EQ(f.node_b, spmm);
    EXPECT_EQ(f.buffer, "%s.fine");
    check_witness(graph, f.witness_a, softmax, spmm);
    check_witness(graph, f.witness_b, spmm, softmax);
    EXPECT_NE(f.message.find("softmax.compound"), std::string::npos);
    EXPECT_NE(f.message.find("spmm.fine"), std::string::npos);
}

TEST(LintHazards, DroppedSddmmToSoftmaxEdgeIsHazard)
{
    const ScopedLintEnv env("0");
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    LaunchGraph graph = tiny_forward_graph(device);

    // The paper-critical cross-stream edge: the fine SDDMM feeds the
    // compound softmax on the coarse stream. softmax.compound rewrites
    // the scores in place, so the dropped edge surfaces as a
    // write-after-write on the fine score buffer.
    const int sddmm = find_node(graph, "sddmm.fine");
    const int softmax = find_node(graph, "softmax.compound");
    graph.drop_dep_for_test(softmax, sddmm);

    const LintReport report = lint_graph(graph);
    ASSERT_GE(report.hazards(), 1u);
    const LintFinding &f = report.findings.front();
    EXPECT_TRUE(is_hazard(f.kind));
    EXPECT_EQ(f.node_a, sddmm);
    EXPECT_EQ(f.node_b, softmax);
    EXPECT_EQ(f.buffer, "%s.fine");
    check_witness(graph, f.witness_a, sddmm, softmax);
    check_witness(graph, f.witness_b, softmax, sddmm);
}

TEST(LintHazards, HazardsComeOutInBufferNameOrder)
{
    // Intern "b" before "a": the interning table is process-global, so
    // ordering hazards by buffer id would report b's race first.
    const sim::BufferId b = sim::intern_buffer("%lint_order.b");
    const sim::BufferId a = sim::intern_buffer("%lint_order.a");
    ASSERT_LT(b, a);
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    for (const char *buffer : {"%lint_order.b", "%lint_order.a"}) {
        graph.launch(0, sim::annotate(toy_launch("gemm.w"), {}, {buffer}));
        graph.launch(s1, sim::annotate(toy_launch("gemm.r"), {buffer}, {}));
    }
    const LintReport report = lint_graph(graph);
    ASSERT_EQ(report.hazards(), 2u);
    EXPECT_EQ(report.findings[0].buffer, "%lint_order.a");
    EXPECT_EQ(report.findings[1].buffer, "%lint_order.b");
}

TEST(LintHazards, FragmentHazardSurfacesOnComposedLayer)
{
    // A race between two streams of the engine's forward plan survives
    // composition: layer.infer appends the forward stream-for-stream, so
    // linting the composed plan finds it.
    const ScopedLintEnv env("0");
    const fixtures::ScopedEnv check_env("MULTIGRAIN_CHECK", "0");
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    const ModelConfig model = ModelConfig::tiny_test();
    Rng rng(2022);
    const WorkloadSample sample = sample_for_model(rng, model);
    const TransformerRunner runner(model, SliceMode::kMultigrain, sample,
                                   /*batch=*/1);
    const AttentionEngine &engine = runner.attention();

    // Make the first SpMM accumulating into "o" also write it: it now
    // races the other streams' accumulations.
    auto corrupted =
        std::make_shared<LaunchGraph>(*engine.forward_graph(device));
    const sim::BufferId o = sim::intern_buffer("o");
    std::string writer;
    for (std::size_t n = 0; n < corrupted->size() && writer.empty(); ++n) {
        sim::KernelLaunch &l =
            corrupted->launch_for_test(static_cast<int>(n));
        if (std::find(l.accums.begin(), l.accums.end(), o) !=
            l.accums.end()) {
            l.writes.push_back(o);
            writer = l.name;
        }
    }
    ASSERT_FALSE(writer.empty()) << "no accumulation of o in the forward";
    const LintReport forward = lint_graph(*corrupted);
    ASSERT_GT(forward.hazards(), 0u);
    EXPECT_EQ(forward.findings.front().buffer, "o");

    // Serve the corrupted forward from the cache, then compose.
    PlanCache::instance().clear();
    const std::string key =
        engine.plan_key() + "|fwd|" + device_plan_key(device);
    PlanCache::instance().get_or_build<LaunchGraph>(
        key, [&] { return corrupted; });
    ASSERT_EQ(engine.forward_graph(device).get(), corrupted.get());
    const LintReport layer = lint_graph(*runner.layer_graph(
        device, TransformerRunner::LayerKind::kInference));
    EXPECT_EQ(layer.hazards(), forward.hazards());
    bool found = false;
    for (const LintFinding &f : layer.findings) {
        found = found || (is_hazard(f.kind) && f.buffer == "o" &&
                          f.message.find("attn." + writer) !=
                              std::string::npos);
    }
    EXPECT_TRUE(found) << "the forward's race on o is missing from"
                          " layer.infer";
    PlanCache::instance().clear();
}

// ---------------------------------------------------------------------------
// Specificity: every shipped preset plan lints clean, and every shipped
// kernel is annotated.

TEST(LintPresets, AllPresetPlansAreHazardFree)
{
    const ScopedLintEnv env("0");
    const char *models[] = {"longformer", "qds", "bigbird",
                            "poolingformer", "tiny"};
    const char *devices[] = {"a100", "rtx3090"};
    const char *modes[] = {"multigrain", "coarse-only", "fine-only",
                           "dense"};
    for (const char *model_name : models) {
        for (const char *device_name : devices) {
            for (const char *mode_name : modes) {
                SCOPED_TRACE(std::string(model_name) + "|" + device_name +
                             "|" + mode_name);
                const ModelConfig model = model_config_by_name(model_name);
                const sim::DeviceSpec device =
                    sim::device_spec_by_name(device_name);
                Rng rng(2022);
                const WorkloadSample sample = sample_for_model(rng, model);
                const TransformerRunner runner(
                    model, slice_mode_by_name(mode_name), sample, 1);

                LintOptions options;
                options.device = &device;
                const auto check = [&](const LaunchGraph &graph,
                                       const char *what) {
                    SCOPED_TRACE(what);
                    const LintReport report = lint_graph(graph, options);
                    EXPECT_EQ(report.hazards(), 0u) << report.summary();
                    // The shipped kernels never silently clamp occupancy
                    // and always carve into mgprof phases.
                    for (const LintFinding &f : report.findings) {
                        EXPECT_NE(f.kind, LintKind::kOccupancyClamp)
                            << f.message;
                        EXPECT_NE(f.kind, LintKind::kPhaseName)
                            << f.message;
                        EXPECT_NE(f.kind, LintKind::kEmptyKernel)
                            << f.message;
                    }
                    // Dataflow annotation coverage: every kernel family
                    // declares what it touches.
                    for (const LaunchGraphNode &node : graph.nodes()) {
                        EXPECT_FALSE(node.launch.reads.empty() &&
                                     node.launch.writes.empty() &&
                                     node.launch.accums.empty())
                            << node.launch.name << " is unannotated";
                    }
                };
                check(*runner.attention().forward_graph(device),
                      "engine.forward");
                check(*runner.attention().backward_graph(device),
                      "engine.backward");
                check(*runner.layer_graph(
                          device, TransformerRunner::LayerKind::kInference),
                      "layer.infer");
                check(*runner.layer_graph(
                          device,
                          TransformerRunner::LayerKind::kTrainForward),
                      "layer.train_fwd");
                check(*runner.layer_graph(
                          device,
                          TransformerRunner::LayerKind::kTrainBackward),
                      "layer.train_bwd");
            }
        }
        // Bound the process-wide cache across the matrix sweep.
        PlanCache::instance().clear();
    }
}

// ---------------------------------------------------------------------------
// Hazard classification over hand-built graphs.

TEST(LintKinds, UnorderedWriteThenReadIsRaw)
{
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    graph.launch(0, sim::annotate(toy_launch("gemm.a"), {}, {"t"}));
    graph.launch(s1, sim::annotate(toy_launch("gemm.b"), {"t"}, {}));
    const LintReport report = lint_graph(graph);
    ASSERT_EQ(report.hazards(), 1u);
    EXPECT_EQ(report.findings.front().kind, LintKind::kRawHazard);
    EXPECT_EQ(report.findings.front().buffer, "t");
}

TEST(LintKinds, UnorderedReadThenWriteIsWar)
{
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    graph.launch(0, sim::annotate(toy_launch("gemm.a"), {"t"}, {}));
    graph.launch(s1, sim::annotate(toy_launch("gemm.b"), {}, {"t"}));
    const LintReport report = lint_graph(graph);
    ASSERT_EQ(report.hazards(), 1u);
    EXPECT_EQ(report.findings.front().kind, LintKind::kWarHazard);
}

TEST(LintKinds, UnorderedWritesAreWaw)
{
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    graph.launch(0, sim::annotate(toy_launch("gemm.a"), {}, {"t"}));
    graph.launch(s1, sim::annotate(toy_launch("gemm.b"), {}, {"t"}));
    const LintReport report = lint_graph(graph);
    ASSERT_EQ(report.hazards(), 1u);
    EXPECT_EQ(report.findings.front().kind, LintKind::kWawHazard);
}

TEST(LintKinds, ConcurrentAccumulationCommutes)
{
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    graph.launch(0, sim::annotate(toy_launch("spmm.a"), {}, {}, {"o"}));
    graph.launch(s1, sim::annotate(toy_launch("spmm.b"), {}, {}, {"o"}));
    EXPECT_TRUE(lint_graph(graph).clean());
}

TEST(LintKinds, ConcurrentReadsAreFine)
{
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    graph.launch(0, sim::annotate(toy_launch("gemm.a"), {"q"}, {"x"}));
    graph.launch(s1, sim::annotate(toy_launch("gemm.b"), {"q"}, {"y"}));
    EXPECT_TRUE(lint_graph(graph).clean());
}

TEST(LintKinds, StreamOrderAndJoinBarriersEstablishHappensBefore)
{
    {
        // Same stream: ordered by stream order.
        LaunchGraph graph;
        graph.launch(0, sim::annotate(toy_launch("gemm.a"), {}, {"t"}));
        graph.launch(0, sim::annotate(toy_launch("gemm.b"), {"t"}, {}));
        EXPECT_TRUE(lint_graph(graph).clean());
    }
    {
        // Cross stream with a join barrier in between.
        LaunchGraph graph;
        const int s1 = graph.create_stream();
        graph.launch(s1, sim::annotate(toy_launch("gemm.a"), {}, {"t"}));
        graph.join_streams();
        graph.launch(0, sim::annotate(toy_launch("gemm.b"), {"t"}, {}));
        EXPECT_TRUE(lint_graph(graph).clean());
    }
}

// ---------------------------------------------------------------------------
// Schedule lints over hand-built graphs.

TEST(LintKinds, DeadStreamIsFlagged)
{
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    const int s2 = graph.create_stream();
    graph.launch(s1, sim::annotate(toy_launch("gemm.a"), {"x"}, {"y"}));
    (void)s2;
    const LintReport report = lint_graph(graph);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings.front().kind, LintKind::kDeadStream);
    EXPECT_EQ(report.findings.front().node_a, s2);
    // Stream 0 sitting empty is the normal engine-graph shape, never
    // flagged.
    EXPECT_EQ(report.findings.front().severity, LintSeverity::kWarning);
}

TEST(LintKinds, TransitivelyRedundantEdgeIsFlagged)
{
    // a(s0) ; join ; b(s1) ; join ; c(s0): c's dep on a is implied by its
    // dep on b (which already waits on a).
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    graph.launch(0, sim::annotate(toy_launch("gemm.a"), {}, {"a"}));
    graph.join_streams();
    graph.launch(s1, sim::annotate(toy_launch("gemm.b"), {"a"}, {"b"}));
    graph.join_streams();
    graph.launch(0, sim::annotate(toy_launch("gemm.c"), {"b"}, {"c"}));
    const LintReport report = lint_graph(graph);
    bool found = false;
    for (const LintFinding &f : report.findings) {
        if (f.kind == LintKind::kRedundantEdge) {
            EXPECT_EQ(f.node_a, 0);
            EXPECT_EQ(f.node_b, 2);
            found = true;
        }
    }
    EXPECT_TRUE(found);
    EXPECT_TRUE(report.clean());
}

TEST(LintKinds, OverSerializingJoinNamesTheLoadBearingTail)
{
    // a and b run concurrently; the join serializes both under c, but c
    // only consumes a's output.
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    const int s2 = graph.create_stream();
    graph.launch(s1, sim::annotate(toy_launch("gemm.a"), {}, {"a"}));
    graph.launch(s2, sim::annotate(toy_launch("gemm.b"), {}, {"b"}));
    graph.join_streams();
    graph.launch(0, sim::annotate(toy_launch("gemm.c"), {"a"}, {"c"}));
    const LintReport report = lint_graph(graph);
    bool found = false;
    for (const LintFinding &f : report.findings) {
        if (f.kind == LintKind::kOverSerializingJoin) {
            EXPECT_EQ(f.node_b, 0) << "load-bearing tail should be gemm.a";
            EXPECT_NE(f.message.find("gemm.a"), std::string::npos);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(LintKinds, NecessaryJoinIsNotFlagged)
{
    // Same shape, but c consumes both tails: the barrier earns its keep.
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    const int s2 = graph.create_stream();
    graph.launch(s1, sim::annotate(toy_launch("gemm.a"), {}, {"a"}));
    graph.launch(s2, sim::annotate(toy_launch("gemm.b"), {}, {"b"}));
    graph.join_streams();
    graph.launch(0, sim::annotate(toy_launch("gemm.c"), {"a", "b"}, {"c"}));
    for (const LintFinding &f : lint_graph(graph).findings) {
        EXPECT_NE(f.kind, LintKind::kOverSerializingJoin) << f.message;
    }
}

TEST(LintKinds, TrailingJoinIsCompositionContract)
{
    // Every engine graph ends with a join for append()-composition; with
    // no consumer after it, it must not be analyzed.
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    const int s2 = graph.create_stream();
    graph.launch(s1, sim::annotate(toy_launch("gemm.a"), {}, {"a"}));
    graph.launch(s2, sim::annotate(toy_launch("gemm.b"), {}, {"b"}));
    graph.join_streams();
    for (const LintFinding &f : lint_graph(graph).findings) {
        EXPECT_NE(f.kind, LintKind::kOverSerializingJoin) << f.message;
        EXPECT_NE(f.kind, LintKind::kEmptyJoin) << f.message;
    }
}

TEST(LintKinds, EmptyJoinIsFlagged)
{
    LaunchGraph graph;
    graph.join_streams();  // Nothing submitted yet.
    graph.launch(0, sim::annotate(toy_launch("gemm.a"), {"x"}, {"y"}));
    bool found = false;
    for (const LintFinding &f : lint_graph(graph).findings) {
        found = found || f.kind == LintKind::kEmptyJoin;
    }
    EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Per-node lints.

TEST(LintKinds, OccupancyClampIsFlaggedOnlyWithDevice)
{
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    LaunchGraph graph;
    sim::KernelLaunch launch = toy_launch("gemm.huge");
    launch.shape.threads = device.max_threads_per_sm + 1;
    graph.launch(0, sim::annotate(std::move(launch), {"x"}, {"y"}));

    EXPECT_TRUE(lint_graph(graph).findings.empty());

    LintOptions options;
    options.device = &device;
    const LintReport report = lint_graph(graph, options);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings.front().kind, LintKind::kOccupancyClamp);
    EXPECT_EQ(report.findings.front().severity, LintSeverity::kWarning);

    // Matching the clamp the simulator applies.
    EXPECT_EQ(sim::occupancy_per_sm(device, graph.nodes()[0].launch.shape),
              1);
}

TEST(LintKinds, SmemAndRegisterPressureClampsAreFlagged)
{
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    LintOptions options;
    options.device = &device;
    {
        LaunchGraph graph;
        sim::KernelLaunch launch = toy_launch("gemm.smem");
        launch.shape.smem_bytes = device.smem_per_sm_bytes + 1;
        graph.launch(0, sim::annotate(std::move(launch), {"x"}, {"y"}));
        const LintReport report = lint_graph(graph, options);
        ASSERT_EQ(report.findings.size(), 1u);
        EXPECT_EQ(report.findings.front().kind,
                  LintKind::kOccupancyClamp);
    }
    {
        LaunchGraph graph;
        sim::KernelLaunch launch = toy_launch("gemm.regs");
        launch.shape.threads = 1024;
        launch.shape.regs_per_thread = device.regs_per_sm / 1024 + 1;
        graph.launch(0, sim::annotate(std::move(launch), {"x"}, {"y"}));
        const LintReport report = lint_graph(graph, options);
        ASSERT_EQ(report.findings.size(), 1u);
        EXPECT_EQ(report.findings.front().kind,
                  LintKind::kOccupancyClamp);
    }
}

TEST(LintKinds, EmptyKernelIsFlagged)
{
    LaunchGraph graph;
    sim::KernelLaunch launch;
    launch.name = "gemm.empty";
    graph.launch(0, sim::annotate(std::move(launch), {"x"}, {"y"}));
    const LintReport report = lint_graph(graph);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings.front().kind, LintKind::kEmptyKernel);
}

TEST(LintKinds, PhaseNameConventionIsChecked)
{
    const auto problem_count = [](const std::string &name) {
        LaunchGraph graph;
        graph.launch(0, sim::annotate(toy_launch(name), {"x"}, {"y"}));
        std::size_t count = 0;
        for (const LintFinding &f : lint_graph(graph).findings) {
            count += f.kind == LintKind::kPhaseName ? 1 : 0;
        }
        return count;
    };
    // The shipped naming shapes all carve.
    EXPECT_EQ(problem_count("sddmm.fine"), 0u);
    EXPECT_EQ(problem_count("L03.attn.softmax.compound"), 0u);
    EXPECT_EQ(problem_count("B12.attn.bwd.spmm.dq.global"), 0u);
    EXPECT_EQ(problem_count("F00.gemm.qkv"), 0u);
    EXPECT_EQ(problem_count("ew.ln1"), 0u);
    // Off-convention names land in one-off phase buckets.
    EXPECT_EQ(problem_count("weird_kernel"), 1u);
    EXPECT_EQ(problem_count("attn."), 1u);
    EXPECT_EQ(problem_count("L03.attn"), 1u);
    EXPECT_EQ(problem_count("my.sddmm"), 1u);  // "my" is not a layer tag.
}

// ---------------------------------------------------------------------------
// Buffer interning and append() namespacing.

TEST(BufferTable, InternsAndRoundTrips)
{
    const sim::BufferId a = sim::intern_buffer("lint_test.buf");
    EXPECT_EQ(sim::intern_buffer("lint_test.buf"), a);
    EXPECT_NE(sim::intern_buffer("lint_test.other"), a);
    EXPECT_EQ(sim::buffer_name(a), "lint_test.buf");
    EXPECT_FALSE(sim::buffer_is_plan_local(a));
    EXPECT_TRUE(sim::buffer_is_plan_local(sim::intern_buffer("%tmp")));
}

TEST(LaunchGraphAppend, PlanLocalBuffersGetFreshNamespaces)
{
    LaunchGraph phase;
    phase.launch(0, sim::annotate(toy_launch("gemm.t"), {"q"}, {"%scratch"}));

    LaunchGraph composed;
    composed.append(phase);
    composed.append(phase);
    const sim::BufferId first = composed.nodes()[0].launch.writes[0];
    const sim::BufferId second = composed.nodes()[1].launch.writes[0];
    // Two blind appends must not alias their intermediates...
    EXPECT_NE(first, second);
    EXPECT_TRUE(sim::buffer_is_plan_local(first));
    // ...while the shared input passes through untouched.
    EXPECT_EQ(composed.nodes()[0].launch.reads[0],
              sim::intern_buffer("q"));

    // Appends sharing an explicit namespace do alias (one engine's
    // phases see each other's scores).
    LaunchGraph shared;
    const std::string ns = "e0";
    shared.append(phase, "", nullptr, &ns);
    shared.append(phase, "", nullptr, &ns);
    EXPECT_EQ(shared.nodes()[0].launch.writes[0],
              shared.nodes()[1].launch.writes[0]);
    EXPECT_EQ(sim::buffer_name(shared.nodes()[0].launch.writes[0]),
              "%e0.scratch");
}

// ---------------------------------------------------------------------------
// Strengthened validate().

TEST(LaunchGraphValidate, RejectsSkippedAndDuplicatedOps)
{
    LaunchGraph graph;
    graph.launch(0, toy_launch("gemm.a"));
    graph.launch(0, toy_launch("gemm.b"));
    EXPECT_NO_THROW(graph.validate());

    LaunchGraph dup = graph;
    dup.set_ops_for_test({0, 0});
    EXPECT_THROW(dup.validate(), Error);

    LaunchGraph skip = graph;
    skip.set_ops_for_test({1, 0});
    EXPECT_THROW(skip.validate(), Error);

    LaunchGraph missing = graph;
    missing.set_ops_for_test({0});
    EXPECT_THROW(missing.validate(), Error);

    LaunchGraph unknown = graph;
    unknown.set_ops_for_test({0, 5});
    EXPECT_THROW(unknown.validate(), Error);
}

TEST(LaunchGraphValidate, AppendRejectsMalformedSource)
{
    LaunchGraph malformed;
    malformed.launch(0, toy_launch("gemm.a"));
    malformed.launch(0, toy_launch("gemm.b"));
    malformed.set_ops_for_test({0, 0});

    LaunchGraph target;
    EXPECT_THROW(target.append(malformed), Error);
    EXPECT_TRUE(target.empty());
}

TEST(LaunchGraphValidate, LintValidatesFirst)
{
    LaunchGraph graph;
    graph.launch(0, toy_launch("gemm.a"));
    graph.set_ops_for_test({0, 0});
    EXPECT_THROW(lint_graph(graph), Error);
}

// ---------------------------------------------------------------------------
// Capture-time enforcement: a hazardous plan never enters the PlanCache.

TEST(LintEnforcement, EnvironmentControlsEnforcement)
{
    {
        const ScopedLintEnv env("0");
        EXPECT_FALSE(capture_lint_enabled());
    }
    {
        const ScopedLintEnv env("1");
        EXPECT_TRUE(capture_lint_enabled());
    }
}

TEST(LintEnforcement, CleanPlanPassesWithEnforcementOn)
{
    const ScopedLintEnv env("1");
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    // Building every tiny-model graph under enforcement must not throw.
    const LaunchGraph graph = tiny_forward_graph(device);
    EXPECT_NO_THROW(require_hazard_free(graph, device, "tiny fwd"));
}

TEST(LintEnforcement, HazardousPlanNeverEntersTheCache)
{
    const ScopedLintEnv env("1");
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    const std::string key = "lint_test|hazardous|v1";
    int builds = 0;
    const auto build = [&]() {
        ++builds;
        auto graph = std::make_shared<LaunchGraph>();
        const int s1 = graph->create_stream();
        graph->launch(0, sim::annotate(toy_launch("gemm.w"), {}, {"hz"}));
        graph->launch(s1, sim::annotate(toy_launch("gemm.r"), {"hz"}, {}));
        // The builders call this right before returning into the cache.
        verify_capture(*graph, device, key);
        return graph;
    };
    EXPECT_THROW(PlanCache::instance().get_or_build<LaunchGraph>(key, build),
                 PlanLintError);
    EXPECT_THROW(PlanCache::instance().get_or_build<LaunchGraph>(key, build),
                 PlanLintError);
    // The second call re-ran the builder: the throw kept the racy plan
    // out of the cache entirely.
    EXPECT_EQ(builds, 2);

    // With enforcement off the same plan caches fine (mgplan reports it
    // instead).
    const ScopedLintEnv off("0");
    EXPECT_NO_THROW(
        PlanCache::instance().get_or_build<LaunchGraph>(key, build));
    EXPECT_EQ(builds, 3);
}

TEST(LintReportApi, SummaryAndCounts)
{
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    const int s2 = graph.create_stream();
    graph.launch(0, sim::annotate(toy_launch("gemm.a"), {}, {"t"}));
    graph.launch(s1, sim::annotate(toy_launch("gemm.b"), {"t"}, {}));
    (void)s2;  // Dead stream -> one warning.
    const LintReport report = lint_graph(graph);
    EXPECT_EQ(report.num_nodes, 2u);
    EXPECT_EQ(report.num_streams, 3);
    EXPECT_EQ(report.count(LintSeverity::kError), 1u);
    EXPECT_EQ(report.count(LintSeverity::kWarning), 1u);
    EXPECT_EQ(report.hazards(), 1u);
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.summary(), "1 error(s), 1 warning(s), 0 info(s)");
    // Hazards sort first regardless of discovery order.
    EXPECT_TRUE(is_hazard(report.findings.front().kind));
}

}  // namespace
}  // namespace multigrain
