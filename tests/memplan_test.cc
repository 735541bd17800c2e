// Static memory planner tests. The load-bearing pair of properties:
//
//  * Safety: two pooled buffers share arena bytes only when every use of
//    one happens-before every use of the other — validated independently
//    of the allocator, and a seeded aliasing perturbation is caught.
//  * Usefulness: the composed plans the runner actually ships (inference
//    and backward layer graphs) genuinely pool — peak_hbm_bytes comes out
//    strictly below the naive sum — because the %s.* score fragments die
//    into the SpMMs before the FFN intermediates are born.
//
// Plus unit coverage for buffer classification (shared / input / pooled),
// accumulation chains, liveness across join_streams(), zero-sized
// buffers, namespace behavior under append, determinism, and the
// PlanCache integration.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "plan_test_util.h"

#include "common/error.h"
#include "common/rng.h"
#include "core/attention.h"
#include "core/memplan.h"
#include "core/plan_cache.h"
#include "gpusim/device.h"
#include "gpusim/launch_graph.h"
#include "patterns/slice.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

namespace multigrain {
namespace {

using fixtures::toy_launch;

const MemPlanBuffer &
find_buffer(const MemPlan &plan, const std::string &name)
{
    for (const MemPlanBuffer &buf : plan.buffers) {
        if (buf.name == name) {
            return buf;
        }
    }
    throw Error("no buffer named " + name + " in plan");
}

bool
overlaps(const MemPlanBuffer &a, const MemPlanBuffer &b)
{
    return a.offset < b.offset + b.bytes && b.offset < a.offset + a.bytes;
}

// ---------------------------------------------------------------------------
// Classification.

TEST(MemPlanClassify, SharedInputAndPooled)
{
    LaunchGraph graph;
    // shared "mp.x" read; "%mp.in" read-first (inbound state);
    // "%mp.tmp" write-first (born here).
    graph.launch(0, sim::annotate(toy_launch("k1"),
                                  {{"mp.x", 1024}, {"%mp.in", 2048}},
                                  {{"%mp.tmp", 4096}}));
    graph.launch(0, sim::annotate(toy_launch("k2"), {{"%mp.tmp", 4096}},
                                  {{"mp.x", 1024}}));
    const MemPlan plan = plan_memory(graph);

    EXPECT_EQ(find_buffer(plan, "mp.x").cls, BufferClass::kShared);
    EXPECT_EQ(find_buffer(plan, "%mp.in").cls, BufferClass::kInput);
    EXPECT_EQ(find_buffer(plan, "%mp.tmp").cls, BufferClass::kPooled);

    EXPECT_EQ(plan.external_bytes, 1024u + 2048u);
    EXPECT_EQ(plan.pooled_request_bytes, 4096u);
    EXPECT_EQ(plan.arena_bytes, 4096u);
    EXPECT_EQ(plan.naive_hbm_bytes(), 1024u + 2048u + 4096u);
    EXPECT_EQ(plan.peak_hbm_bytes(), plan.naive_hbm_bytes());
    validate_memplan(graph, plan);
}

TEST(MemPlanClassify, AccumFirstUseIsInput)
{
    // Accumulating into a buffer observes its prior contents (zero-fill
    // or an inbound partial), so accum-first classifies like read-first.
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("k1"), {}, {},
                                  {{"%mp.acc", 512}}));
    const MemPlan plan = plan_memory(graph);
    EXPECT_EQ(find_buffer(plan, "%mp.acc").cls, BufferClass::kInput);
}

TEST(MemPlanClassify, InPlaceFirstUseIsInput)
{
    // A kernel that reads and writes the buffer in place (softmax style)
    // as its first use observes inbound contents.
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("k1"), {{"%mp.io", 512}},
                                  {{"%mp.io", 512}}));
    const MemPlan plan = plan_memory(graph);
    EXPECT_EQ(find_buffer(plan, "%mp.io").cls, BufferClass::kInput);
}

TEST(MemPlanClassify, BytesAreMaxAcrossUses)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("k1"), {},
                                  {{"%mp.grow", 100}}));
    graph.launch(0, sim::annotate(toy_launch("k2"), {{"%mp.grow", 300}},
                                  {}));
    const MemPlan plan = plan_memory(graph);
    EXPECT_EQ(find_buffer(plan, "%mp.grow").bytes, 300u);
}

// ---------------------------------------------------------------------------
// Live ranges and pooling.

TEST(MemPlanLiveness, SequentialBuffersShareOneSlot)
{
    // %mp.a dies into k2 strictly before %mp.b is born at k3: same
    // stream orders them, so both land at offset 0. (Note k2 writing
    // %mp.b directly would keep both live at k2 — draining and birthing
    // in one kernel overlaps the ranges.)
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("k1"), {}, {{"%mp.a", 4096}}));
    graph.launch(0, sim::annotate(toy_launch("k2"), {{"%mp.a", 4096}},
                                  {{"mp.mid", 4096}}));
    graph.launch(0, sim::annotate(toy_launch("k3"), {{"mp.mid", 4096}},
                                  {{"%mp.b", 4096}}));
    graph.launch(0, sim::annotate(toy_launch("k4"), {{"%mp.b", 4096}},
                                  {{"mp.out", 4096}}));
    const MemPlan plan = plan_memory(graph);
    EXPECT_EQ(find_buffer(plan, "%mp.a").offset, 0u);
    EXPECT_EQ(find_buffer(plan, "%mp.b").offset, 0u);
    EXPECT_EQ(plan.arena_bytes, 4096u);
    EXPECT_EQ(plan.pooled_request_bytes, 8192u);
    EXPECT_LT(plan.peak_hbm_bytes(), plan.naive_hbm_bytes());
    validate_memplan(graph, plan);
}

TEST(MemPlanLiveness, AccumChainSharesOneSlotAndReusesAfterDrain)
{
    // The SpMM shape: an init write, three parallel streams accumulating
    // into the same plan-local target, a join, then a consumer — one
    // buffer, one slot. A later intermediate born after the drain reuses
    // that slot.
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    const int s2 = graph.create_stream();
    graph.launch(0, sim::annotate(toy_launch("init"), {},
                                  {{"%mp.o", 8192}}));
    graph.join_streams();
    graph.launch(0, sim::annotate(toy_launch("spmm.coarse"), {}, {},
                                  {{"%mp.o", 8192}}));
    graph.launch(s1, sim::annotate(toy_launch("spmm.fine"), {}, {},
                                   {{"%mp.o", 8192}}));
    graph.launch(s2, sim::annotate(toy_launch("spmm.special"), {}, {},
                                   {{"%mp.o", 8192}}));
    graph.join_streams();
    graph.launch(0, sim::annotate(toy_launch("drain"), {{"%mp.o", 8192}},
                                  {{"%mp.late", 8192}}));
    graph.launch(0, sim::annotate(toy_launch("sink"), {{"%mp.late", 8192}},
                                  {{"mp.out", 8192}}));
    const MemPlan plan = plan_memory(graph);

    const MemPlanBuffer &o = find_buffer(plan, "%mp.o");
    EXPECT_EQ(o.cls, BufferClass::kPooled);
    EXPECT_EQ(o.uses.size(), 5u);  // init + 3 accums + drain: one buffer.
    // %mp.late is born by the very node that last reads %mp.o, so their
    // live ranges overlap at the drain: distinct arena spans.
    EXPECT_FALSE(overlaps(o, find_buffer(plan, "%mp.late")));
    EXPECT_NE(o.offset, find_buffer(plan, "%mp.late").offset);
    EXPECT_EQ(plan.arena_bytes, 2u * 8192u);
    validate_memplan(graph, plan);
}

TEST(MemPlanLiveness, BufferLiveAcrossJoinBlocksReuse)
{
    // %mp.a's uses straddle a join_streams() barrier: %mp.b, born between
    // them, must not reuse its bytes — but %mp.c, born after %mp.a's last
    // read, must.
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("k1"), {}, {{"%mp.a", 4096}}));
    graph.join_streams();
    graph.launch(0, sim::annotate(toy_launch("k2"), {}, {{"%mp.b", 4096}}));
    graph.launch(0, sim::annotate(toy_launch("k3"),
                                  {{"%mp.a", 4096}, {"%mp.b", 4096}},
                                  {{"%mp.c", 4096}}));
    graph.launch(0, sim::annotate(toy_launch("k4"), {{"%mp.c", 4096}},
                                  {{"mp.out", 4096}}));
    const MemPlan plan = plan_memory(graph);

    const MemPlanBuffer &a = find_buffer(plan, "%mp.a");
    const MemPlanBuffer &b = find_buffer(plan, "%mp.b");
    const MemPlanBuffer &c = find_buffer(plan, "%mp.c");
    EXPECT_FALSE(overlaps(a, b));
    EXPECT_FALSE(overlaps(b, c));  // k3 uses both: live simultaneously
    EXPECT_FALSE(overlaps(a, c));  // k3 reads a and writes c
    EXPECT_EQ(plan.arena_bytes, 3u * 4096u);
    validate_memplan(graph, plan);
}

TEST(MemPlanLiveness, UnorderedStreamsNeverPool)
{
    // Two streams with no join: their intermediates can be in flight
    // simultaneously under some legal schedule, so no reuse.
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    graph.launch(0, sim::annotate(toy_launch("k1"), {}, {{"%mp.a", 4096}}));
    graph.launch(0, sim::annotate(toy_launch("k2"), {{"%mp.a", 4096}},
                                  {{"mp.out", 4096}}));
    graph.launch(s1, sim::annotate(toy_launch("k3"), {},
                                   {{"%mp.z", 4096}}));
    graph.launch(s1, sim::annotate(toy_launch("k4"), {{"%mp.z", 4096}},
                                   {{"mp.out2", 4096}}));
    const MemPlan plan = plan_memory(graph);
    EXPECT_FALSE(overlaps(find_buffer(plan, "%mp.a"),
                          find_buffer(plan, "%mp.z")));
    EXPECT_EQ(plan.arena_bytes, 2u * 4096u);
    validate_memplan(graph, plan);
}

TEST(MemPlanLiveness, ZeroSizedBuffersTrackLivenessWithoutSpace)
{
    // Unsized (legacy) annotations still get live ranges but occupy no
    // arena bytes and never trip aliasing validation.
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("k1"), {},
                                  {{"%mp.u1"}, {"%mp.u2"}}));
    graph.launch(0, sim::annotate(toy_launch("k2"),
                                  {{"%mp.u1"}, {"%mp.u2"}},
                                  {{"mp.out"}}));
    const MemPlan plan = plan_memory(graph);
    EXPECT_EQ(plan.arena_bytes, 0u);
    EXPECT_EQ(plan.naive_hbm_bytes(), 0u);
    EXPECT_EQ(plan.pooling_savings(), 0.0);
    EXPECT_EQ(find_buffer(plan, "%mp.u1").cls, BufferClass::kPooled);
    validate_memplan(graph, plan);
}

TEST(MemPlanLiveness, ArenaOffsetsAreAligned)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("k1"), {},
                                  {{"%mp.odd", 100}, {"%mp.odd2", 100}}));
    graph.launch(0, sim::annotate(toy_launch("k2"),
                                  {{"%mp.odd", 100}, {"%mp.odd2", 100}},
                                  {{"mp.out", 100}}));
    const MemPlan plan = plan_memory(graph);
    for (const MemPlanBuffer &buf : plan.buffers) {
        EXPECT_EQ(buf.offset % kArenaAlign, 0u) << buf.name;
    }
    // Two live-overlapping 100-byte buffers: second starts at the next
    // aligned offset, not at 100.
    EXPECT_EQ(plan.arena_bytes, kArenaAlign + 100u);
    validate_memplan(graph, plan);
}

// ---------------------------------------------------------------------------
// Namespacing under append.

TEST(MemPlanAppend, FreshNamespacesPoolOnlyWhenOrdered)
{
    LaunchGraph unit;
    unit.launch(0, sim::annotate(toy_launch("w"), {}, {{"%mp.t", 4096}}));
    unit.launch(0, sim::annotate(toy_launch("r"), {{"%mp.t", 4096}},
                                 {{"mp.out", 4096}}));

    // Appended back-to-back on one stream (ordered): the two copies'
    // distinct re-namespaced buffers share one slot.
    LaunchGraph seq;
    seq.append(unit, "a.");
    seq.append(unit, "b.");
    const MemPlan seq_plan = plan_memory(seq);
    EXPECT_EQ(seq_plan.buffers.size(), 3u);  // two locals + shared out
    EXPECT_EQ(seq_plan.arena_bytes, 4096u);
    EXPECT_EQ(seq_plan.pooled_request_bytes, 8192u);
    validate_memplan(seq, seq_plan);

    // Appended onto parallel streams (unordered): no pooling.
    LaunchGraph par;
    const int s1 = par.create_stream();
    std::vector<int> map0 = {0};
    std::vector<int> map1 = {s1};
    par.append(unit, "a.", &map0);
    par.append(unit, "b.", &map1);
    const MemPlan par_plan = plan_memory(par);
    EXPECT_EQ(par_plan.arena_bytes, 8192u);
    validate_memplan(par, par_plan);
}

TEST(MemPlanAppend, SharedNamespaceMergesIntoOneBuffer)
{
    // Two appends under the same namespace denote the same intermediate
    // (an engine's forward and backward sharing %p.*): one buffer, its
    // size the max across both graphs' annotations.
    LaunchGraph writer;
    writer.launch(0, sim::annotate(toy_launch("w"), {}, {{"%mp.t", 4096}}));
    LaunchGraph reader;
    reader.launch(0, sim::annotate(toy_launch("r"), {{"%mp.t", 4096}},
                                   {{"mp.out", 4096}}));

    LaunchGraph step;
    const std::string ns = "e0";
    step.append(writer, "f.", nullptr, &ns);
    step.append(reader, "b.", nullptr, &ns);
    const MemPlan plan = plan_memory(step);
    EXPECT_EQ(plan.buffers.size(), 2u);
    const MemPlanBuffer &t = find_buffer(plan, "%e0.mp.t");
    EXPECT_EQ(t.cls, BufferClass::kPooled);
    EXPECT_EQ(t.uses.size(), 2u);
    validate_memplan(step, plan);
}

// ---------------------------------------------------------------------------
// Validation.

TEST(MemPlanValidate, SeededAliasingIsCaught)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("k1"), {},
                                  {{"%mp.a", 4096}, {"%mp.b", 4096}}));
    graph.launch(0, sim::annotate(toy_launch("k2"),
                                  {{"%mp.a", 4096}, {"%mp.b", 4096}},
                                  {{"mp.out", 4096}}));
    MemPlan plan = plan_memory(graph);
    validate_memplan(graph, plan);  // clean as planned

    for (MemPlanBuffer &buf : plan.buffers) {
        buf.offset = 0;  // force the two live-overlapping locals together
    }
    EXPECT_THROW(validate_memplan(graph, plan), MemPlanError);
}

TEST(MemPlanValidate, MisalignedAndOverrunningOffsetsAreCaught)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("k1"), {},
                                  {{"%mp.a", 4096}}));
    graph.launch(0, sim::annotate(toy_launch("k2"), {{"%mp.a", 4096}},
                                  {{"mp.out", 4096}}));
    MemPlan plan = plan_memory(graph);

    MemPlan misaligned = plan;
    find_buffer(misaligned, "%mp.a");
    for (MemPlanBuffer &buf : misaligned.buffers) {
        if (buf.name == "%mp.a") {
            buf.offset = 8;
        }
    }
    EXPECT_THROW(validate_memplan(graph, misaligned), MemPlanError);

    MemPlan overrun = plan;
    overrun.arena_bytes = 1024;
    EXPECT_THROW(validate_memplan(graph, overrun), MemPlanError);
}

TEST(MemPlanValidate, NodeCountMismatchIsCaught)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("k1"), {}, {{"%mp.a", 64}}));
    const MemPlan plan = plan_memory(graph);
    LaunchGraph bigger = graph;
    bigger.launch(0, toy_launch("k2"));
    EXPECT_THROW(validate_memplan(bigger, plan), MemPlanError);
}

// ---------------------------------------------------------------------------
// The plans the engines and runner actually ship.

TEST(MemPlanShipped, LayerGraphsPoolAndValidate)
{
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    const ModelConfig model = ModelConfig::tiny_test();
    Rng rng(2022);
    const WorkloadSample sample = sample_for_model(rng, model);
    const TransformerRunner runner(model, SliceMode::kMultigrain, sample,
                                   /*batch=*/1);

    for (const auto kind : {TransformerRunner::LayerKind::kInference,
                            TransformerRunner::LayerKind::kTrainForward,
                            TransformerRunner::LayerKind::kTrainBackward}) {
        const std::shared_ptr<const MemPlan> plan =
            runner.layer_memplan(device, kind);
        ASSERT_NE(plan, nullptr);
        validate_memplan(*runner.layer_graph(device, kind), *plan);
        EXPECT_GT(plan->arena_bytes, 0u);
        // The composed layer genuinely pools: score fragments die into
        // the SpMMs before the FFN intermediates are born.
        EXPECT_LT(plan->peak_hbm_bytes(), plan->naive_hbm_bytes())
            << "layer kind " << static_cast<int>(kind);
        EXPECT_GT(plan->pooling_savings(), 0.0);
        // Every kernel family is byte-annotated: all buffers sized.
        for (const MemPlanBuffer &buf : plan->buffers) {
            EXPECT_GT(buf.bytes, 0u) << buf.name;
        }
    }
}

TEST(MemPlanShipped, EngineMemplansValidateAndAccountEveryBuffer)
{
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    const ModelConfig model = ModelConfig::tiny_test();
    Rng rng(7);
    const WorkloadSample sample = sample_for_model(rng, model);
    const TransformerRunner runner(model, SliceMode::kMultigrain, sample,
                                   /*batch=*/1);
    const AttentionEngine &engine = runner.attention();

    const std::shared_ptr<const MemPlan> fwd =
        engine.forward_memplan(device);
    validate_memplan(*engine.forward_graph(device), *fwd);
    EXPECT_GT(fwd->naive_hbm_bytes(), 0u);
    for (const MemPlanBuffer &buf : fwd->buffers) {
        EXPECT_GT(buf.bytes, 0u) << buf.name;
    }

    const std::shared_ptr<const MemPlan> bwd =
        engine.backward_memplan(device);
    validate_memplan(*engine.backward_graph(device), *bwd);
    EXPECT_GT(bwd->naive_hbm_bytes(), 0u);
}

TEST(MemPlanShipped, DeterministicAndCached)
{
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    const ModelConfig model = ModelConfig::tiny_test();
    Rng rng(11);
    const WorkloadSample sample = sample_for_model(rng, model);
    const TransformerRunner runner(model, SliceMode::kMultigrain, sample,
                                   /*batch=*/1);

    const std::shared_ptr<const LaunchGraph> graph = runner.layer_graph(
        device, TransformerRunner::LayerKind::kInference);
    const MemPlan a = plan_memory(*graph);
    const MemPlan b = plan_memory(*graph);
    ASSERT_EQ(a.buffers.size(), b.buffers.size());
    for (std::size_t i = 0; i < a.buffers.size(); ++i) {
        EXPECT_EQ(a.buffers[i].name, b.buffers[i].name);
        EXPECT_EQ(a.buffers[i].offset, b.buffers[i].offset);
        EXPECT_EQ(a.buffers[i].bytes, b.buffers[i].bytes);
    }
    EXPECT_EQ(a.arena_bytes, b.arena_bytes);

    // Same graph key -> same cached object.
    const auto p1 = runner.layer_memplan(
        device, TransformerRunner::LayerKind::kInference);
    const auto p2 = runner.layer_memplan(
        device, TransformerRunner::LayerKind::kInference);
    EXPECT_EQ(p1.get(), p2.get());
}

}  // namespace
}  // namespace multigrain
