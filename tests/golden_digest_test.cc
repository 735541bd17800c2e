// Golden digests of simulated plans: each test replays captured plans into
// a GpuSim and pins a 64-bit digest of the SimResult, bit-exact over
// total_us and every KernelStats field (name, stream, deps, thread blocks,
// occupancy, ready / start / end, average concurrency, work).
//
// The digests were pinned at the last revision that still carried an
// imperative planning path beside capture/replay; there these same tests
// proved, case by case, that replay produced exactly what that path
// produced. Matching a digest therefore means matching it, which is why
// the test names are kept.
//
// PlanDigestTest pins the captured plans themselves, before any
// simulation: every node of every forward and backward graph with its
// stream, deps, thread blocks and annotated buffers, plus the memory
// footprints derived from them, for every mode over patterns that lack a
// part. A refactor of the plan builders that claims no plan moved must
// pass it with no digest edited.
//
// RunDigestTest pins the functional face the same way: the FP16 bits of
// run()'s output and of run_backward()'s gradients, for every mode over
// the same patterns plus a zero-padded one.
//
// EngineOrderTest pins random multi-stream programs on a two-SM toy device
// instead: ties between deadlines and threshold crossings, every occupancy
// from 1 to the device maximum, empty work components and 0-TB kernels.
// Its digests were computed before the engine's event queue was rewritten,
// so they prove the rewrite pops the same events in the same order.
//
// ServeDigestTest pins the serving reports: the bench document, the cost
// report and the trace report of every cheap serve preset, and the fleet
// report of every fleet preset, on both devices, each with its run
// manifest dropped. The steady preset is left out for its cost (about 6 s
// a device); `mgserve --all` covers it.

#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "core/attention.h"
#include "core/plan_cache.h"
#include "core/memplan.h"
#include "gpusim/device.h"
#include "gpusim/engine.h"
#include "gpusim/launch.h"
#include "gpusim/launch_graph.h"
#include "profiler/history.h"
#include "serve/cluster.h"
#include "serve/cost.h"
#include "serve/server.h"
#include "serve/trace.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

namespace multigrain {
namespace {

/// FNV-1a over raw bytes, integers widened to 64 bits.
class Fnv1a {
  public:
    void bytes(const void *data, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            h_ = (h_ ^ static_cast<const unsigned char *>(data)[i]) *
                 1099511628211ull;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    std::string hex() const
    {
        char out[24];
        std::snprintf(out, sizeof out, "%016llx",
                      static_cast<unsigned long long>(h_));
        return out;
    }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/// Digest of every field of a SimResult.
std::string
digest(const sim::SimResult &r)
{
    Fnv1a h;
    h.f64(r.total_us);
    h.u64(r.kernels.size());
    for (const sim::KernelStats &k : r.kernels) {
        h.str(k.name);
        h.u64(static_cast<std::uint64_t>(k.stream));
        h.u64(k.deps.size());
        for (const int dep : k.deps) {
            h.u64(static_cast<std::uint64_t>(dep));
        }
        h.u64(static_cast<std::uint64_t>(k.num_tbs));
        h.u64(static_cast<std::uint64_t>(k.occupancy_per_sm));
        for (const double v :
             {k.ready_us, k.start_us, k.end_us, k.avg_concurrency,
              k.work.tensor_flops, k.work.cuda_flops, k.work.dram_read_bytes,
              k.work.dram_write_bytes, k.work.l2_bytes}) {
            h.f64(v);
        }
    }
    return h.hex();
}

/// Feeds every node of `graph` into `h`: name, stream, deps, thread-block
/// groups with their work, and each read, write and accumulated buffer
/// with its name, bytes and definedness flags.
void
hash_graph(Fnv1a &h, const LaunchGraph &graph)
{
    h.u64(static_cast<std::uint64_t>(graph.num_streams()));
    h.u64(graph.ops().size());
    for (const int op : graph.ops()) {
        h.u64(static_cast<std::uint64_t>(op));
    }
    const auto buffers = [&h](const std::vector<sim::BufferId> &ids,
                              const std::vector<std::uint64_t> &bytes,
                              const std::vector<unsigned> &flags) {
        h.u64(ids.size());
        for (std::size_t i = 0; i < ids.size(); ++i) {
            h.str(sim::buffer_name(ids[i]));
            h.u64(bytes[i]);
            h.u64(flags[i]);
        }
    };
    for (const LaunchGraphNode &node : graph.nodes()) {
        const sim::KernelLaunch &k = node.launch;
        h.str(k.name);
        h.u64(static_cast<std::uint64_t>(node.stream));
        h.u64(node.deps.size());
        for (const int dep : node.deps) {
            h.u64(static_cast<std::uint64_t>(dep));
        }
        h.u64(k.tbs.size());
        for (const sim::TbGroup &g : k.tbs) {
            h.u64(static_cast<std::uint64_t>(g.count));
            for (const double v :
                 {g.work.tensor_flops, g.work.cuda_flops,
                  g.work.dram_read_bytes, g.work.dram_write_bytes,
                  g.work.l2_bytes}) {
                h.f64(v);
            }
        }
        buffers(k.reads, k.read_bytes, k.read_flags);
        buffers(k.writes, k.write_bytes, k.write_flags);
        buffers(k.accums, k.accum_bytes, k.accum_flags);
    }
}

/// Digest of an engine's captured plans: the three forward phase
/// fragments, the composed forward, the backward, both memory-plan peaks
/// and attention_memory_bytes().
std::string
plan_digest(const AttentionEngine &engine, const sim::DeviceSpec &device)
{
    Fnv1a h;
    const auto graphs = engine.forward_graphs(device);
    for (const LaunchGraph *graph :
         {&graphs->sddmm, &graphs->softmax, &graphs->spmm, &graphs->forward,
          engine.backward_graph(device).get()}) {
        hash_graph(h, *graph);
    }
    h.u64(engine.forward_memplan(device)->peak_hbm_bytes());
    h.u64(engine.backward_memplan(device)->peak_hbm_bytes());
    h.f64(engine.attention_memory_bytes());
    return h.hex();
}

AttentionConfig
small_config(bool multi_stream)
{
    AttentionConfig c;
    c.head_dim = 16;
    c.block = 16;
    c.num_heads = 2;
    c.multi_stream = multi_stream;
    return c;
}

CompoundPattern
compound(index_t seq)
{
    CompoundPattern p;
    p.seq_len = seq;
    p.atoms.push_back(AtomicPattern::local(4));
    p.atoms.push_back(AtomicPattern::selected({1, seq / 3}));
    p.atoms.push_back(AtomicPattern::global({1, seq / 3}));
    p.atoms.push_back(AtomicPattern::random(3, 21));
    return p;
}

/// Replays forward phase `phase` (0 sddmm, 1 softmax, 2 spmm) of `engine`
/// into `sim` on the engine's own `binding`.
void
replay_phase(const AttentionEngine &engine, sim::GpuSim &sim,
             std::vector<int> &binding, int phase,
             const std::string &prefix)
{
    const auto graphs = engine.forward_graphs(sim.device());
    const LaunchGraph *phases[] = {&graphs->sddmm, &graphs->softmax,
                                   &graphs->spmm};
    phases[phase]->replay_into(sim, binding, prefix);
}

class ReplayEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<SliceMode, bool /*multi_stream*/, bool /*backward*/>> {
};

TEST_P(ReplayEquivalenceTest, ReplayMatchesDirectPath)
{
    // Indexed by mode * 4 + multi_stream * 2 + backward.
    static const char *const kDigests[16] = {
        "5d9a50861e48d69a", "7c38eca404f399e7", "bb0f02323622b63d",
        "854cda93dce1be85", "8456f8d823e47eaf", "c487a44feef6fa31",
        "8456f8d823e47eaf", "c487a44feef6fa31", "cb8cca98866f53ea",
        "1adbac037a73f3f8", "cb8cca98866f53ea", "1adbac037a73f3f8",
        "b75ea45bf0fda129", "159dd5ce79af7dd4", "b75ea45bf0fda129",
        "159dd5ce79af7dd4"};
    const auto [mode, multi_stream, backward] = GetParam();
    const AttentionEngine engine(compound(64), small_config(multi_stream),
                                 mode);
    sim::GpuSim sim(sim::DeviceSpec::a100());
    if (backward) {
        engine.backward_graph(sim.device())->replay_into(sim, "T00.attn.");
    } else {
        engine.forward_graphs(sim.device())
            ->forward.replay_into(sim, "T00.attn.");
    }
    const int index = static_cast<int>(mode) * 4 + (multi_stream ? 2 : 0) +
                      (backward ? 1 : 0);
    EXPECT_EQ(digest(sim.run()), kDigests[index]);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ReplayEquivalenceTest,
    ::testing::Combine(::testing::Values(SliceMode::kMultigrain,
                                         SliceMode::kCoarseOnly,
                                         SliceMode::kFineOnly,
                                         SliceMode::kDense),
                       ::testing::Bool(), ::testing::Bool()));

TEST(ReplayPhaseTest, CoScheduledPhasesMatchDirectPath)
{
    // Two engines with different metadata, each phase of both followed
    // by one barrier, the way the heterogeneous-batch runner does it.
    const AttentionEngine e1(compound(64), small_config(true),
                             SliceMode::kMultigrain);
    CompoundPattern other = compound(64);
    other.atoms.push_back(AtomicPattern::local(8));
    const AttentionEngine e2(other, small_config(true),
                             SliceMode::kMultigrain);
    LaunchGraph barrier;
    barrier.join_streams();

    sim::GpuSim sim(sim::DeviceSpec::a100());
    std::vector<int> b1, b2;
    for (int phase = 0; phase < 3; ++phase) {
        replay_phase(e1, sim, b1, phase, "attn.");
        replay_phase(e2, sim, b2, phase, "attn.");
        barrier.replay_into(sim);
    }
    EXPECT_EQ(digest(sim.run()), "82a62d084bceb189");
}

TEST(ReplayPhaseTest, OneEngineCanPlanIntoTwoSimsConcurrently)
{
    // Captured graphs are shared and immutable and the stream binding is
    // the caller's, so interleaving one engine's phases across two
    // simulators gives each exactly the whole forward plan.
    const AttentionEngine engine(compound(64), small_config(true),
                                 SliceMode::kMultigrain);
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    LaunchGraph barrier;
    barrier.join_streams();

    sim::GpuSim a(device), b(device), whole(device);
    std::vector<int> ba, bb;
    for (int phase = 0; phase < 3; ++phase) {
        replay_phase(engine, a, ba, phase, "");
        replay_phase(engine, b, bb, phase, "");
        barrier.replay_into(a);
        barrier.replay_into(b);
    }
    engine.forward_graphs(device)->forward.replay_into(whole);
    EXPECT_EQ(digest(a.run()), "75a1dd3560ab3af5");
    EXPECT_EQ(digest(b.run()), "75a1dd3560ab3af5");
    EXPECT_EQ(digest(whole.run()), "75a1dd3560ab3af5");
}

TEST(RunnerComposedReplayTest, InferencePassMatchesImperativeLoop)
{
    const ModelConfig model = ModelConfig::tiny_test();
    Rng rng(2022);
    const TransformerRunner runner(model, SliceMode::kMultigrain,
                                   sample_for_model(rng, model),
                                   /*batch=*/2);
    EXPECT_EQ(digest(runner.simulate(sim::DeviceSpec::a100()).sim),
              "92dbde600911ef57");
}

TEST(RunnerComposedReplayTest, TrainingPassMatchesImperativeLoop)
{
    const ModelConfig model = ModelConfig::tiny_test();
    Rng rng(7);
    const TransformerRunner runner(model, SliceMode::kMultigrain,
                                   sample_for_model(rng, model),
                                   /*batch=*/1);
    EXPECT_EQ(digest(runner.simulate_training(sim::DeviceSpec::a100()).sim),
              "e0e9e695047f2966");
}

/// The patterns the plan and run digests cover, each with its config:
/// Multigrain plans with every part, without a fine part, without a
/// coarse part, with only fine and special parts, with global rows kept
/// fine, and under the 1D-tiling fine SDDMM.
std::vector<std::pair<CompoundPattern, AttentionConfig>>
digest_cases(bool multi_stream)
{
    const index_t seq = 64;
    CompoundPattern local;
    local.seq_len = seq;
    local.atoms.push_back(AtomicPattern::local(4));
    CompoundPattern random;
    random.seq_len = seq;
    random.atoms.push_back(AtomicPattern::random(3, 21));
    CompoundPattern global_random = random;
    global_random.atoms.push_back(AtomicPattern::global({1, seq / 3}));
    std::vector<std::pair<CompoundPattern, AttentionConfig>> cases;
    for (const CompoundPattern &pattern :
         {compound(seq), local, random, global_random, compound(seq),
          compound(seq)}) {
        cases.emplace_back(pattern, small_config(multi_stream));
    }
    cases[4].second.route_global_to_dense = false;
    cases[5].second.fine_scheme = kernels::FineSddmmScheme::k1dTiling;
    return cases;
}

constexpr SliceMode kAllModes[] = {SliceMode::kMultigrain,
                                   SliceMode::kCoarseOnly,
                                   SliceMode::kFineOnly, SliceMode::kDense};

TEST(PlanDigestTest, CapturedPlansKeepTheirDigests)
{
    // Indexed by pattern * 8 + mode * 2 + multi_stream.
    static const char *const kDigests[48] = {
        "e46d1aa65d810b54", "1b960d8d4366958e", "668600313e469393",
        "668600313e469393", "942d69c07cb64b94", "942d69c07cb64b94",
        "b2d497d072f29944", "b2d497d072f29944", "df6c9ecbaf21eb5b",
        "df6c9ecbaf21eb5b", "053fbdf1b6434fa9", "053fbdf1b6434fa9",
        "d912374636c2e73e", "d912374636c2e73e", "b2d497d072f29944",
        "b2d497d072f29944", "20ce3fdc1a79897b", "20ce3fdc1a79897b",
        "668600313e469393", "668600313e469393", "81b9472ba0cd7001",
        "81b9472ba0cd7001", "b2d497d072f29944", "b2d497d072f29944",
        "e1dbd5f66e068296", "43d842e545bfc193", "668600313e469393",
        "668600313e469393", "20fb046619545014", "20fb046619545014",
        "b2d497d072f29944", "b2d497d072f29944", "062d6ddae280fd41",
        "3797f2bac935f961", "668600313e469393", "668600313e469393",
        "942d69c07cb64b94", "942d69c07cb64b94", "b2d497d072f29944",
        "b2d497d072f29944", "d8e2cd8bc815d094", "2b750a3ca282ac5e",
        "668600313e469393", "668600313e469393", "942d69c07cb64b94",
        "942d69c07cb64b94", "b2d497d072f29944", "b2d497d072f29944"};
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    for (const bool multi_stream : {false, true}) {
        const auto cases = digest_cases(multi_stream);
        for (std::size_t pattern = 0; pattern < cases.size(); ++pattern) {
            for (const SliceMode mode : kAllModes) {
                const std::size_t index = pattern * 8 +
                                          static_cast<std::size_t>(mode) * 2 +
                                          (multi_stream ? 1 : 0);
                SCOPED_TRACE("pattern " + std::to_string(pattern) +
                             " mode " + to_string(mode) +
                             (multi_stream ? " multi-stream" : ""));
                const AttentionEngine engine(cases[pattern].first,
                                             cases[pattern].second, mode);
                EXPECT_EQ(plan_digest(engine, device), kDigests[index]);
            }
        }
    }
}

/// Feeds the FP16 bits of `m` into `h`.
void
hash_half(Fnv1a &h, const HalfMatrix &m)
{
    for (index_t i = 0; i < m.rows() * m.cols(); ++i) {
        h.u64(m.data()[i].bits());
    }
}

TEST(RunDigestTest, FunctionalOutputsKeepTheirDigests)
{
    // Indexed by pattern * 8 + mode * 2 + (0 run(), 1 run_backward()).
    // The last pattern is the compound one padded to 50 valid tokens.
    static const char *const kDigests[56] = {
        "c88da11a1fba628c", "d162808565aa39c5", "c88da11a1fba628c",
        "d162808565aa39c5", "c88da11a1fba628c", "d162808565aa39c5",
        "c88da11a1fba628c", "d162808565aa39c5", "5afee2570deeff4d",
        "bdf05f19b8d7e723", "5afee2570deeff4d", "bdf05f19b8d7e723",
        "5afee2570deeff4d", "bdf05f19b8d7e723", "5afee2570deeff4d",
        "bdf05f19b8d7e723", "b98e695f0a9cd4ca", "424afd58cd4e5920",
        "b98e695f0a9cd4ca", "424afd58cd4e5920", "b98e695f0a9cd4ca",
        "424afd58cd4e5920", "b98e695f0a9cd4ca", "424afd58cd4e5920",
        "42adf85413d94caa", "98fc20a227953570", "42adf85413d94caa",
        "98fc20a227953570", "42adf85413d94caa", "98fc20a227953570",
        "42adf85413d94caa", "98fc20a227953570", "c88da11a1fba628c",
        "d162808565aa39c5", "c88da11a1fba628c", "d162808565aa39c5",
        "c88da11a1fba628c", "d162808565aa39c5", "c88da11a1fba628c",
        "d162808565aa39c5", "c88da11a1fba628c", "d162808565aa39c5",
        "c88da11a1fba628c", "d162808565aa39c5", "c88da11a1fba628c",
        "d162808565aa39c5", "c88da11a1fba628c", "d162808565aa39c5",
        "0c5bf6e645b87a7b", "9cdd9af83ddb03d4", "0c5bf6e645b87a7b",
        "f629744221b930ae", "0c5bf6e645b87a7b", "f629744221b930ae",
        "0c5bf6e645b87a7b", "f629744221b930ae"};
    const index_t seq = 64;
    Rng rng(2022);
    const HalfMatrix q = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const HalfMatrix k = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const HalfMatrix v = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const HalfMatrix d_out = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    auto cases = digest_cases(true);
    CompoundPattern padded = compound(seq);
    padded.valid_len = 50;
    cases.emplace_back(padded, small_config(true));
    for (std::size_t pattern = 0; pattern < cases.size(); ++pattern) {
        for (const SliceMode mode : kAllModes) {
            const std::size_t index =
                pattern * 8 + static_cast<std::size_t>(mode) * 2;
            SCOPED_TRACE("pattern " + std::to_string(pattern) + " mode " +
                         to_string(mode));
            const AttentionEngine engine(cases[pattern].first,
                                         cases[pattern].second, mode);
            Fnv1a forward;
            hash_half(forward, engine.run(q, k, v));
            EXPECT_EQ(forward.hex(), kDigests[index]);
            const AttentionEngine::Grads grads =
                engine.run_backward(q, k, v, d_out);
            Fnv1a backward;
            for (const HalfMatrix *m : {&grads.dq, &grads.dk, &grads.dv}) {
                hash_half(backward, *m);
            }
            EXPECT_EQ(backward.hex(), kDigests[index + 1]);
        }
    }
}

/// Two SMs with round rates (per-SM CUDA 0.5e6 flops/us, tensor 1e6
/// flops/us, DRAM 1e5 B/us, L2 4e5 B/us), four block slots per SM, and the
/// latency-bound cap on or off.
sim::DeviceSpec
toy_device(bool unit_saturation)
{
    sim::DeviceSpec d;
    d.name = "toy";
    d.num_sms = 2;
    d.tensor_tflops = 2.0;
    d.cuda_tflops = 1.0;
    d.dram_gbps = 100.0;
    d.l2_gbps = 400.0;
    d.max_tb_per_sm = 4;
    d.max_threads_per_sm = 1024;
    d.regs_per_sm = 65536;
    d.smem_per_sm_bytes = 64 * 1024;
    d.tensor_efficiency = 1.0;
    d.cuda_efficiency = 1.0;
    d.dram_efficiency = 1.0;
    d.kernel_launch_us = 1.0;
    d.tb_overhead_us = 0.5;
    d.sm_mem_burst = 2.0;
    d.unit_saturation = unit_saturation ? 2.0 : 0.0;
    return d;
}

/// A random program: 2-5 streams, 20-200 launches, a join before about one
/// launch in eight. Shapes give occupancies 1 to 4 on the toy device, and
/// the small menu of work values makes identical blocks (and so tied
/// deadlines and crossings) common. About one group in eight has no work
/// at all and one kernel in eight has no thread blocks.
LaunchGraph
random_program(std::uint64_t seed)
{
    static const sim::TbShape kShapes[] = {
        {128, 0, 32},  {256, 0, 32},    {512, 0, 32},
        {1024, 0, 32}, {128, 20480, 32}, {256, 0, 128}};
    static const double kValues[] = {0, 0, 1e4, 5e4, 1e5, 1e6};
    Rng rng(seed);
    LaunchGraph graph;
    const auto streams = static_cast<int>(rng.next_range(2, 5));
    for (int s = 1; s < streams; ++s) {
        graph.create_stream();
    }
    const std::int64_t launches = rng.next_range(20, 200);
    for (std::int64_t i = 0; i < launches; ++i) {
        if (rng.next_below(8) == 0) {
            graph.join_streams();
        }
        sim::KernelLaunch launch;
        launch.name = "k" + std::to_string(i);
        launch.shape = kShapes[rng.next_below(6)];
        const std::int64_t groups =
            rng.next_below(8) == 0 ? 0 : rng.next_range(1, 3);
        for (std::int64_t g = 0; g < groups; ++g) {
            sim::TbWork work;
            if (rng.next_below(8) != 0) {
                work.tensor_flops = kValues[rng.next_below(6)];
                work.cuda_flops = kValues[rng.next_below(6)];
                work.dram_read_bytes = kValues[rng.next_below(6)];
                work.dram_write_bytes = kValues[rng.next_below(6)];
                work.l2_bytes = kValues[rng.next_below(6)];
            }
            launch.add_tb(work, rng.next_range(1, 40));
        }
        graph.launch(static_cast<int>(rng.next_below(
                         static_cast<std::uint64_t>(streams))),
                     std::move(launch));
    }
    return graph;
}

TEST(EngineOrderTest, RandomGraphsKeepTheirDigests)
{
    // Indexed by seed * 2 + unit_saturation.
    static const char *const kDigests[16] = {
        "ca066c77a2627b86", "73f4c6d8dfc52742", "a7486b068df8d2cb",
        "b80754d218586d08", "dd3e4173d3856742", "82cc059e6e8f4104",
        "15db0d99146699f7", "aa271edcce5a43cd", "b98cd15dcfec1373",
        "4215cdd5c690af1d", "e14db06b8b619166", "e8ec00a6d80d33de",
        "b40416c8bd5f5295", "20e9c0406fd2b608", "bfa1046817c9dc2c",
        "f9b93cf438bf7402"};
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const LaunchGraph graph = random_program(seed);
        for (const bool saturation : {false, true}) {
            SCOPED_TRACE("seed " + std::to_string(seed) +
                         (saturation ? " saturation on" : " saturation off"));
            EXPECT_EQ(digest(sim::simulate(toy_device(saturation), graph)),
                      kDigests[seed * 2 + (saturation ? 1 : 0)]);
        }
    }
}

TEST(EngineOrderTest, CountersOfATinyRunnerPass)
{
    const ModelConfig model = ModelConfig::tiny_test();
    Rng rng(2022);
    const TransformerRunner runner(model, SliceMode::kMultigrain,
                                   sample_for_model(rng, model),
                                   /*batch=*/2);
    const sim::EngineCounters c =
        runner.simulate(sim::DeviceSpec::a100()).sim.engine;
    EXPECT_EQ(c.units, 5204);
    EXPECT_EQ(c.crossing_events, 3380);
    EXPECT_EQ(c.ready_events, 30);
    EXPECT_EQ(c.activation_events, 5204);
    EXPECT_EQ(c.deadline_events, 5204);
    EXPECT_EQ(c.predictions, 21284);
    EXPECT_EQ(c.peak_queue, 1354);
    // Every crossing popped was predicted and not overwritten since.
    EXPECT_LE(c.crossing_events, c.predictions);
    // Each admitted unit activates once and queues at most one deadline.
    EXPECT_EQ(c.activation_events, c.units);
    EXPECT_LE(c.deadline_events, c.activation_events);
}

// ---- Serving reports ----------------------------------------------------

/// Feeds a parsed JSON value into `h`, skipping the top-level "manifest"
/// member: it stamps the wall clock and the git revision.
void
hash_json(Fnv1a &h, const JsonValue &v, bool top)
{
    h.u64(static_cast<std::uint64_t>(v.type));
    switch (v.type) {
      case JsonValue::Type::kNull:
        break;
      case JsonValue::Type::kBool:
        h.u64(v.boolean ? 1 : 0);
        break;
      case JsonValue::Type::kNumber:
        h.f64(v.number);
        break;
      case JsonValue::Type::kString:
        h.str(v.string);
        break;
      case JsonValue::Type::kArray:
        h.u64(v.array.size());
        for (const JsonValue &e : v.array) {
            hash_json(h, e, false);
        }
        break;
      case JsonValue::Type::kObject:
        for (const auto &[key, e] : v.object) {
            if (top && key == "manifest") {
                continue;
            }
            h.str(key);
            hash_json(h, e, false);
        }
        break;
    }
}

std::string
json_digest(const std::string &text)
{
    Fnv1a h;
    hash_json(h, json_parse(text), true);
    return h.hex();
}

TEST(ServeDigestTest, ServePresetReportsKeepTheirDigests)
{
    // Indexed by preset * 6 + device * 3 + (bench, cost, trace report).
    static const char *const kDigests[30] = {
        "028443de54516524", "92ca4feb0a011bd3", "d2e7dc526b48e5c7",
        "605d9cbd183f0b0f", "4b428d792a304a1b", "6866062fb0879c29",
        "6e161d43712e3c3b", "c827d37be6c57251", "a76eac006a6f9506",
        "5e804fe16a30d40b", "060896fbeec76946", "e4ef616843337d0d",
        "9b9c42aeccc6c3e2", "6b70ec85f96cb27a", "a124cdacce3ffc4d",
        "001a7c19cd48afdc", "90ff1dc5440a7d53", "1159671250762d1e",
        "de9e365fdd9e4708", "76a0450a9badd5c3", "4ae418b74e294209",
        "49d59d235a965693", "e6a039d2a87e9547", "6916a198e8369adf",
        "5411d1d5bcc158a5", "e570ae0ec0d6d7ae", "200fede3a5b4d999",
        "e57059f5d11e1f84", "55dc1d836fafbf12", "c64057c752056001"};
    const char *const presets[] = {"tiny", "overload", "closed",
                                   "memtight", "noisy"};
    const char *const devices[] = {"a100", "rtx3090"};
    for (std::size_t p = 0; p < 5; ++p) {
        for (std::size_t d = 0; d < 2; ++d) {
            SCOPED_TRACE(std::string(presets[p]) + "@" + devices[d]);
            // Each run starts cold, as each mgserve preset does: the
            // bench rows carry the run's plan-cache counters.
            PlanCache::instance().clear();
            const serve::ServeConfig config =
                serve::serve_preset_by_name(presets[p]);
            serve::TraceLog log;
            serve::Server server(config,
                                 sim::device_spec_by_name(devices[d]));
            server.set_trace(&log);
            const serve::ServeReport report = server.run();
            const std::uint64_t seed = config.traffic.seed;
            const std::size_t at = p * 6 + d * 3;
            EXPECT_EQ(json_digest(
                          serve::serve_bench_run(report, devices[d])
                              .to_json()),
                      kDigests[at]);
            EXPECT_EQ(json_digest(serve::cost_report_json(
                          report.cost, {presets[p], devices[d], seed},
                          serve::reconcile_cost(report.cost, report),
                          prof::RunManifest{})),
                      kDigests[at + 1]);
            EXPECT_EQ(json_digest(serve::trace_report_json(
                          serve::build_trace_report(
                              log, report, {presets[p], devices[d], seed}))),
                      kDigests[at + 2]);
        }
    }
    PlanCache::instance().clear();
}

TEST(ServeDigestTest, FleetReportsKeepTheirDigests)
{
    // fleet2, fleet4 and failover on a100 then rtx3090; hetero pins its
    // own device pair and runs once, labelled "mixed".
    const std::vector<std::pair<std::string, std::string>> runs = {
        {"fleet2", "a100"},   {"fleet4", "a100"},
        {"failover", "a100"}, {"fleet2", "rtx3090"},
        {"fleet4", "rtx3090"}, {"failover", "rtx3090"},
        {"hetero", "a100"}};
    static const char *const kDigests[7] = {
        "cc6da3f3ac33214c", "2752cc0297e60ab3", "64252194c1116486",
        "7e521eb6a4ebe1ce", "fcc2ab50a5c7a951", "0faba343629d96f8",
        "e7f681fad1563c31"};
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto &[preset, device] = runs[i];
        SCOPED_TRACE(preset + "@" + device);
        PlanCache::instance().clear();
        serve::ClusterConfig config =
            serve::cluster_preset_by_name(preset, device);
        const serve::ClusterRunInfo info{
            preset, preset == "hetero" ? "mixed" : device,
            config.serve.traffic.seed};
        serve::Cluster cluster(std::move(config));
        const serve::ClusterReport report = cluster.run();
        EXPECT_EQ(json_digest(serve::cluster_report_json(
                      report, info, serve::reconcile_cluster(report),
                      prof::RunManifest{})),
                  kDigests[i]);
    }
    PlanCache::instance().clear();
}

}  // namespace
}  // namespace multigrain
