// PlanFacts tests: the shared per-plan facts every analyzer reads are
// pinned against obviously-correct oracles — happens-before against a
// naive per-node BFS, the per-buffer access lists against a naive scan of
// every node's annotation vectors — on hand-built graphs shaped to hit
// the edge cases (multi-word bitsets, same-node read+write, accum plus
// write, short parallel vectors, zero-byte buffers, wide fan-in).

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "plan_test_util.h"

#include "common/rng.h"
#include "core/plan_facts.h"
#include "gpusim/launch.h"
#include "gpusim/launch_graph.h"

namespace multigrain {
namespace {

using fixtures::toy_launch;

// ---------------------------------------------------------------------------
// HappensBefore vs a naive per-node BFS oracle. The bitset implementation
// packs ancestors into 64-bit words; these shapes are chosen to stress the
// packing (chains longer than one word, fan-out wider than one word) and
// the transitive closure (diamonds, randomized join schedules).

/// Reference implementation: reach[j] = ancestors of j, via backward BFS
/// over the dep edges — O(V * E), obviously correct.
std::vector<std::vector<bool>>
bfs_ancestors(const LaunchGraph &graph)
{
    const std::vector<LaunchGraphNode> &nodes = graph.nodes();
    std::vector<std::vector<bool>> reach(nodes.size());
    for (std::size_t j = 0; j < nodes.size(); ++j) {
        reach[j].assign(nodes.size(), false);
        std::vector<int> frontier = nodes[j].deps;
        while (!frontier.empty()) {
            const int i = frontier.back();
            frontier.pop_back();
            if (reach[j][static_cast<std::size_t>(i)]) {
                continue;
            }
            reach[j][static_cast<std::size_t>(i)] = true;
            const std::vector<int> &deps =
                nodes[static_cast<std::size_t>(i)].deps;
            frontier.insert(frontier.end(), deps.begin(), deps.end());
        }
    }
    return reach;
}

void
expect_matches_oracle(const LaunchGraph &graph)
{
    const HappensBefore hb(graph.nodes());
    const std::vector<std::vector<bool>> oracle = bfs_ancestors(graph);
    for (std::size_t j = 0; j < graph.nodes().size(); ++j) {
        for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
            ASSERT_EQ(hb.ordered(static_cast<int>(i), static_cast<int>(j)),
                      oracle[j][i])
                << "ordered(" << i << ", " << j << ") disagrees with the"
                << " BFS oracle";
        }
    }
}

TEST(HappensBeforeOracle, DeepChainCrossesWordBoundaries)
{
    // 150 nodes on one stream: every pair is ordered, and the ancestor
    // bitsets span three 64-bit words.
    LaunchGraph graph;
    for (int i = 0; i < 150; ++i) {
        graph.launch(0, toy_launch("chain"));
    }
    expect_matches_oracle(graph);
    const HappensBefore hb(graph.nodes());
    EXPECT_TRUE(hb.ordered(0, 149));
    EXPECT_TRUE(hb.ordered(63, 64));   // Word-boundary neighbors.
    EXPECT_TRUE(hb.ordered(64, 128));
    EXPECT_FALSE(hb.ordered(149, 0));
}

TEST(HappensBeforeOracle, WideFanOutIsMutuallyUnordered)
{
    // One producer, a join barrier, then 70 single-node streams: each
    // consumer is ordered after the producer but unordered against its
    // 69 siblings.
    LaunchGraph graph;
    graph.launch(0, toy_launch("produce"));
    graph.join_streams();
    std::vector<int> streams;
    for (int i = 0; i < 69; ++i) {
        streams.push_back(graph.create_stream());
    }
    graph.launch(0, toy_launch("consume"));
    for (const int s : streams) {
        graph.launch(s, toy_launch("consume"));
    }
    expect_matches_oracle(graph);
    const HappensBefore hb(graph.nodes());
    EXPECT_TRUE(hb.ordered(0, 35));
    EXPECT_FALSE(hb.ordered(35, 36));
    EXPECT_FALSE(hb.ordered(1, 69));
}

TEST(HappensBeforeOracle, DiamondJoins)
{
    // a -> {b, c} -> d: the classic shape where naive "dep of dep"
    // reasoning breaks and transitive closure is required.
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    graph.launch(0, toy_launch("a"));
    graph.join_streams();
    graph.launch(0, toy_launch("b"));
    graph.launch(s1, toy_launch("c"));
    graph.join_streams();
    graph.launch(0, toy_launch("d"));
    expect_matches_oracle(graph);
    const HappensBefore hb(graph.nodes());
    EXPECT_TRUE(hb.ordered(0, 3));   // a -> d through either arm.
    EXPECT_FALSE(hb.ordered(1, 2));  // The arms stay unordered.
    EXPECT_FALSE(hb.ordered(2, 1));
}

TEST(HappensBeforeOracle, RandomizedSchedulesMatchOracle)
{
    // Adversarial soup: random stream choices and join barriers across
    // enough nodes to exercise multi-word bitsets, pinned seeds so a
    // failure reproduces.
    for (const std::uint64_t seed : {1ull, 2022ull, 0xdecafull}) {
        Rng rng(seed);
        LaunchGraph graph;
        std::vector<int> streams = {0};
        for (int i = 0; i < 4; ++i) {
            streams.push_back(graph.create_stream());
        }
        for (int i = 0; i < 90; ++i) {
            if (rng.next_below(8) == 0) {
                graph.join_streams();
            }
            const std::size_t s = static_cast<std::size_t>(
                rng.next_below(streams.size()));
            graph.launch(streams[s], toy_launch("rnd"));
        }
        expect_matches_oracle(graph);
    }
}

// ---------------------------------------------------------------------------
// Access lists vs a naive scan: the oracle re-reads every node's
// annotation vectors per buffer, independently of PlanFacts' one-pass
// bookkeeping, and derives the summaries from its own access list.

using Access = std::tuple<int, AccessMode, std::uint64_t, unsigned>;

std::vector<Access>
naive_accesses(const LaunchGraph &graph, sim::BufferId id)
{
    std::vector<Access> out;
    for (std::size_t n = 0; n < graph.size(); ++n) {
        const sim::KernelLaunch &l = graph.nodes()[n].launch;
        const auto scan = [&](AccessMode mode,
                              const std::vector<sim::BufferId> &ids,
                              const std::vector<std::uint64_t> &bytes,
                              const std::vector<unsigned> &flags) {
            for (std::size_t i = 0; i < ids.size(); ++i) {
                if (ids[i] == id) {
                    out.emplace_back(static_cast<int>(n), mode,
                                     i < bytes.size() ? bytes[i] : 0,
                                     i < flags.size() ? flags[i] : 0U);
                }
            }
        };
        scan(AccessMode::kRead, l.reads, l.read_bytes, l.read_flags);
        scan(AccessMode::kAccum, l.accums, l.accum_bytes, l.accum_flags);
        scan(AccessMode::kWrite, l.writes, l.write_bytes, l.write_flags);
    }
    return out;
}

void
expect_matches_scan(const LaunchGraph &graph)
{
    std::set<sim::BufferId> ids;
    for (const LaunchGraphNode &node : graph.nodes()) {
        for (const auto *v : {&node.launch.reads, &node.launch.accums,
                              &node.launch.writes}) {
            ids.insert(v->begin(), v->end());
        }
    }
    const PlanFacts facts(graph);
    ASSERT_EQ(facts.buffers().size(), ids.size());
    EXPECT_TRUE(std::is_sorted(
        facts.buffers().begin(), facts.buffers().end(),
        [](const BufferFacts &a, const BufferFacts &b) {
            return a.name < b.name;
        }));
    for (const sim::BufferId id : ids) {
        const BufferFacts *b = facts.find(id);
        ASSERT_NE(b, nullptr);
        SCOPED_TRACE(b->name);
        EXPECT_EQ(b->name, sim::buffer_name(id));
        EXPECT_EQ(b->plan_local, sim::buffer_is_plan_local(id));
        const std::vector<Access> want = naive_accesses(graph, id);
        std::vector<Access> got;
        for (const BufferAccess &a : b->accesses) {
            got.emplace_back(a.node, a.mode, a.bytes, a.flags);
        }
        EXPECT_EQ(got, want);
        std::vector<int> uses;
        std::uint64_t bytes = 0;
        unsigned flags = 0;
        bool first_use_reads = false;
        for (const auto &[node, mode, size, flag] : want) {
            if (uses.empty() || uses.back() != node) {
                uses.push_back(node);
            }
            bytes = std::max(bytes, size);
            flags |= flag;
            first_use_reads = first_use_reads ||
                              (node == uses.front() &&
                               mode != AccessMode::kWrite);
        }
        EXPECT_EQ(b->uses, uses);
        EXPECT_EQ(b->bytes, bytes);
        EXPECT_EQ(b->flags, flags);
        EXPECT_EQ(b->first_use_reads, first_use_reads);
    }
}

TEST(PlanFactsOracle, HandBuiltEdgeCasesMatchScan)
{
    std::vector<std::pair<std::string, LaunchGraph>> cases;
    {
        // In-place first use (softmax style) keeps the first-use-reads
        // classification; a write-first buffer does not get it.
        LaunchGraph g;
        g.launch(0, sim::annotate(toy_launch("softmax.ip"),
                                  {{"%pf.inplace", 64}},
                                  {{"%pf.inplace", 64}, {"%pf.born", 32}}));
        g.launch(0, sim::annotate(toy_launch("softmax.ip"),
                                  {{"%pf.inplace", 64}, {"%pf.born", 32}},
                                  {{"%pf.born", 32}}));
        cases.emplace_back("same-node read+write", g);
    }
    {
        // One node both initializes and accumulates; another stream only
        // accumulates; a reader follows a join.
        LaunchGraph g;
        const int s1 = g.create_stream();
        g.launch(0, sim::annotate(toy_launch("spmm.a"), {},
                                  {{"pf.o", 128, sim::kBufOutput}},
                                  {{"pf.o", 128, sim::kBufZeroInit}}));
        g.launch(s1, sim::annotate(toy_launch("spmm.b"), {}, {},
                                   {{"pf.o", 256}}));
        g.join_streams();
        g.launch(0, sim::annotate(toy_launch("gemm.r"), {{"pf.o", 128}},
                                  {}));
        cases.emplace_back("accum plus write", g);
    }
    {
        // Hand-built launch: bytes/flags vectors shorter than the ids.
        sim::KernelLaunch l = toy_launch("gemm.hand");
        l.reads = {sim::intern_buffer("pf.r0"), sim::intern_buffer("pf.r1")};
        l.read_bytes = {512};
        l.writes = {sim::intern_buffer("%pf.w0"),
                    sim::intern_buffer("%pf.w1")};
        l.write_flags = {sim::kBufOutput};
        l.accums = {sim::intern_buffer("pf.acc")};
        LaunchGraph g;
        g.launch(0, l);
        cases.emplace_back("short parallel vectors", g);
    }
    {
        LaunchGraph g;
        g.launch(0, sim::annotate(toy_launch("gemm.w"), {}, {"%pf.zero"}));
        g.launch(0, sim::annotate(toy_launch("gemm.r"), {"%pf.zero"}, {}));
        cases.emplace_back("zero-byte buffer", g);
    }
    {
        // One writer, then 70 readers over four streams: the use list and
        // the happens-before rows both cross 64-bit word boundaries.
        LaunchGraph g;
        std::vector<int> streams = {0, g.create_stream(), g.create_stream(),
                                    g.create_stream()};
        g.launch(0, sim::annotate(toy_launch("gemm.w"), {},
                                  {{"%pf.wide", 4096}}));
        g.join_streams();
        for (std::size_t i = 0; i < 70; ++i) {
            g.launch(streams[i % streams.size()],
                     sim::annotate(toy_launch("gemm.r"),
                                   {{"%pf.wide", 4096}}, {}));
        }
        cases.emplace_back("more than 64 users", g);
    }
    for (const auto &[name, graph] : cases) {
        SCOPED_TRACE(name);
        expect_matches_scan(graph);
    }

    // Spot checks against hand-derived values, so the oracle itself is
    // pinned too.
    const auto facts_of = [](const LaunchGraph &g, const char *buffer) {
        return *PlanFacts(g).find(sim::intern_buffer(buffer));
    };
    EXPECT_TRUE(facts_of(cases[0].second, "%pf.inplace").first_use_reads);
    EXPECT_FALSE(facts_of(cases[0].second, "%pf.born").first_use_reads);
    const BufferFacts o = facts_of(cases[1].second, "pf.o");
    EXPECT_TRUE(o.first_use_reads);  // The accum observes old contents.
    EXPECT_EQ(o.bytes, 256u);
    EXPECT_EQ(o.flags, sim::kBufOutput | sim::kBufZeroInit);
    EXPECT_EQ(facts_of(cases[2].second, "pf.r1").bytes, 0u);
    EXPECT_EQ(facts_of(cases[2].second, "%pf.w1").flags, 0u);
    EXPECT_EQ(facts_of(cases[3].second, "%pf.zero").uses,
              (std::vector<int>{0, 1}));
    const PlanFacts wide(cases[4].second);
    EXPECT_EQ(wide.find(sim::intern_buffer("%pf.wide"))->uses.size(), 71u);
    EXPECT_TRUE(wide.ordered(0, 70));
    EXPECT_FALSE(wide.ordered(69, 70));  // Different streams.
}

}  // namespace
}  // namespace multigrain
