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
// pass it with no digest edited. LayerGraphDigestTest does the same for
// the runner's three layer graphs of four models on both devices.
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
// ProfileDigestTest pins the mgprof JSON (host timers aside) of a tiny
// inference pass and training step, and the exact bytes of the Chrome
// trace mgprof writes for the inference pass.
//
// ServeDigestTest pins the serving reports: the bench document, the cost
// report and the trace report of every cheap serve preset, and the fleet
// report of every fleet preset, on both devices, each with its run
// manifest dropped. The steady preset is left out for its cost (about 6 s
// a device); `mgserve --all` covers it. ServeExportDigestTest pins the
// exact bytes of the Perfetto timelines (tiny, overload and noisy on
// both devices, and the failover fleet) and of the noisy telemetry CSV.

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
#include "profiler/export.h"
#include "profiler/history.h"
#include "profiler/metrics.h"
#include "serve/cluster.h"
#include "serve/cost.h"
#include "serve/server.h"
#include "serve/trace.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"
#include "trace_test_util.h"

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
        engine.forward_graph(sim.device())->replay_into(sim, "T00.attn.");
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

TEST(ReplayPhaseTest, OneEngineCanPlanIntoTwoSimsConcurrently)
{
    // Captured graphs are shared and immutable and the stream binding is
    // the caller's, so one engine's forward replayed into two simulators
    // gives each exactly the plan the engine simulates on its own.
    const AttentionEngine engine(compound(64), small_config(true),
                                 SliceMode::kMultigrain);
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    sim::GpuSim a(device), b(device);
    std::vector<int> ba, bb;
    engine.forward_graph(device)->replay_into(a, ba);
    engine.forward_graph(device)->replay_into(b, bb);
    EXPECT_EQ(digest(a.run()), "75a1dd3560ab3af5");
    EXPECT_EQ(digest(b.run()), "75a1dd3560ab3af5");
    EXPECT_EQ(digest(engine.simulate(device)), "75a1dd3560ab3af5");
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

/// Digest of an engine's whole captured plans: the forward, the
/// backward, both memory-plan peaks and attention_memory_bytes().
std::string
whole_plan_digest(const AttentionEngine &engine,
                  const sim::DeviceSpec &device)
{
    Fnv1a h;
    hash_graph(h, *engine.forward_graph(device));
    hash_graph(h, *engine.backward_graph(device));
    h.u64(engine.forward_memplan(device)->peak_hbm_bytes());
    h.u64(engine.backward_memplan(device)->peak_hbm_bytes());
    h.f64(engine.attention_memory_bytes());
    return h.hex();
}

TEST(PlanDigestTest, WholePlansKeepTheirDigests)
{
    // Indexed by pattern * 8 + mode * 2 + multi_stream.
    static const char *const kDigests[48] = {
        "d2563a5a579333ef", "621f3b140f3a8cc2", "3591a2b2ea772fbe",
        "3591a2b2ea772fbe", "7ed9b38116c3522f", "7ed9b38116c3522f",
        "e2c991f1b519f329", "e2c991f1b519f329", "062e1839732f008f",
        "062e1839732f008f", "4fb053e07ef9cb19", "4fb053e07ef9cb19",
        "d6b9b587937f77c5", "d6b9b587937f77c5", "e2c991f1b519f329",
        "e2c991f1b519f329", "546f25767c0dacfc", "546f25767c0dacfc",
        "3591a2b2ea772fbe", "3591a2b2ea772fbe", "6826d85a08f203c8",
        "6826d85a08f203c8", "e2c991f1b519f329", "e2c991f1b519f329",
        "2983b8673bf1ba49", "08dbfd1b739b4007", "3591a2b2ea772fbe",
        "3591a2b2ea772fbe", "2e64d30fb34e2507", "2e64d30fb34e2507",
        "e2c991f1b519f329", "e2c991f1b519f329", "821ca4c9189da6e9",
        "0eb8d2c0e8868160", "3591a2b2ea772fbe", "3591a2b2ea772fbe",
        "7ed9b38116c3522f", "7ed9b38116c3522f", "e2c991f1b519f329",
        "e2c991f1b519f329", "3a592b0b9f845cef", "37ee956f335c35d2",
        "3591a2b2ea772fbe", "3591a2b2ea772fbe", "7ed9b38116c3522f",
        "7ed9b38116c3522f", "e2c991f1b519f329", "e2c991f1b519f329"};
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
                EXPECT_EQ(whole_plan_digest(engine, device),
                          kDigests[index]);
            }
        }
    }
}

TEST(LayerGraphDigestTest, RunnerLayerGraphsKeepTheirDigests)
{
    // Every layer graph a runner replays (inference, training forward,
    // training backward), each with its memory-plan peak, hashed
    // together per (model, device, mode). Indexed by
    // (model * 2 + device) * 4 + mode.
    static const char *const kDigests[32] = {
        "1c0910a884fc64a2", "bfb0463c99614376", "f244f58c752d58c4",
        "47f5b77c5e1cae47", "1c0910a884fc64a2", "bfb0463c99614376",
        "f244f58c752d58c4", "47f5b77c5e1cae47", "be5e649d9b0a7559",
        "ac42bee59ac5a4d4", "1bfb1d9ae7153a7f", "266bf85109f65a32",
        "49c30934cd8c80c5", "d2948e310aece663", "b6cd8d7095b0e509",
        "0837714c86005bf8", "875df97603a97f39", "e635dc93ca93868d",
        "16e7963f9be5e8c7", "d47cb4a0addc9d9d", "db0435e3a27e0517",
        "1bc7f5a5feb764c8", "22f6cffb7d63606d", "588b6dfbf0b4f3a4",
        "8d6a3b44f3ccdb6d", "39277859ed3125f5", "b5e3ba761fa6d246",
        "b1b4622f3ba133e4", "33a260e622064c98", "cdc8fd945db61eb0",
        "de3d5fc338113e9d", "e02745ff3ad12c51"};
    using LayerKind = TransformerRunner::LayerKind;
    const char *const models[] = {"tiny", "longformer", "qds", "bigbird"};
    const char *const devices[] = {"a100", "rtx3090"};
    for (std::size_t m = 0; m < 4; ++m) {
        const ModelConfig model = model_config_by_name(models[m]);
        Rng rng(2022);
        const WorkloadSample sample = sample_for_model(rng, model);
        for (std::size_t d = 0; d < 2; ++d) {
            const sim::DeviceSpec device =
                sim::device_spec_by_name(devices[d]);
            for (const SliceMode mode : kAllModes) {
                SCOPED_TRACE(std::string(models[m]) + "@" + devices[d] +
                             " " + to_string(mode));
                const TransformerRunner runner(model, mode, sample,
                                               /*batch=*/1);
                Fnv1a h;
                for (const LayerKind kind :
                     {LayerKind::kInference, LayerKind::kTrainForward,
                      LayerKind::kTrainBackward}) {
                    hash_graph(h, *runner.layer_graph(device, kind));
                    h.u64(runner.layer_memplan(device, kind)
                              ->peak_hbm_bytes());
                }
                EXPECT_EQ(h.hex(), kDigests[(m * 2 + d) * 4 +
                                            static_cast<std::size_t>(mode)]);
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

// ---- Documents ----------------------------------------------------------

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

/// Digest of a document's exact bytes.
std::string
text_digest(const std::string &text)
{
    Fnv1a h;
    h.str(text);
    return h.hex();
}

// ---- Profiler exports ---------------------------------------------------

/// The tiny model's Multigrain passes on an a100: inference at batch 2,
/// then one training step.
std::vector<sim::SimResult>
tiny_passes(const sim::DeviceSpec &device)
{
    const ModelConfig model = ModelConfig::tiny_test();
    Rng rng(2022);
    const TransformerRunner runner(model, SliceMode::kMultigrain,
                                   sample_for_model(rng, model),
                                   /*batch=*/2);
    return {runner.simulate(device).sim,
            runner.simulate_training(device).sim};
}

TEST(ProfileDigestTest, TinyPassProfilesKeepTheirDigests)
{
    // The mgprof JSON of each pass, without its host timers: their
    // values are wall clock and their names depend on what else the
    // process ran.
    static const char *const kDigests[2] = {"32dea2a6063c7a81", "4a2c7858d89c9db8"};
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    const std::vector<sim::SimResult> passes = tiny_passes(device);
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const prof::ProfiledRun run = prof::profile(passes[i], device);
        EXPECT_FALSE(run.host_timers.empty());
        JsonValue doc = json_parse(prof::to_json(run));
        std::erase_if(doc.object, [](const auto &member) {
            return member.first == "host_timers";
        });
        Fnv1a h;
        hash_json(h, doc, true);
        EXPECT_EQ(h.hex(), kDigests[i]) << (i == 0 ? "inference" : "training");
    }
}

TEST(ProfileDigestTest, ChromeTraceKeepsItsBytes)
{
    // The trace mgprof writes: kernel slices, flow arrows, the device's
    // counter tracks and one phase mark per carved op.
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    const sim::SimResult pass = tiny_passes(device).front();
    std::vector<sim::PhaseMark> marks;
    for (const prof::PhaseStats &p : prof::profile(pass, device).ops) {
        marks.push_back({p.name, p.start_us, p.end_us});
    }
    EXPECT_EQ(text_digest(sim::chrome_trace_json(pass, device, marks)),
              "e1b4c0677ab52755");
}

// ---- Serving reports ----------------------------------------------------

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

TEST(ServeExportDigestTest, TimelinesAndTelemetryKeepTheirDigests)
{
    // The Perfetto timeline with its tele.* tracks, as `mgserve --trace`
    // writes it, indexed by preset * 2 + device; then the noisy preset's
    // telemetry CSV on each device.
    static const char *const kTraceDigests[6] = {
        "c32d3786f28f5159", "3be82a045f3b7bbc", "390d9002769e9d4c",
        "93e45e1abf0cb8a1", "54c4ad9ca156ea6e", "8320199451666a7f"};
    static const char *const kCsvDigests[2] = {"84529c5b0400a0e7",
                                               "b5f5c6cf68a63676"};
    const char *const presets[] = {"tiny", "overload", "noisy"};
    const char *const devices[] = {"a100", "rtx3090"};
    for (std::size_t p = 0; p < 3; ++p) {
        for (std::size_t d = 0; d < 2; ++d) {
            SCOPED_TRACE(std::string(presets[p]) + "@" + devices[d]);
            PlanCache::instance().clear();
            const serve::ServeConfig config =
                serve::serve_preset_by_name(presets[p]);
            serve::TraceConfig trace_config;
            trace_config.capture_sim = true;
            serve::TraceLog log(trace_config);
            serve::Server server(config,
                                 sim::device_spec_by_name(devices[d]));
            server.set_trace(&log);
            server.run();
            serve::TelemetryRecorder telemetry(config.traffic.tenants);
            for (const serve::TraceEvent &e : log.events()) {
                telemetry.apply(e);
            }
            telemetry.finish(log.events().back().t_us);
            EXPECT_EQ(text_digest(serve::serve_trace_json(log, &telemetry)),
                      kTraceDigests[p * 2 + d]);
            if (std::string(presets[p]) == "noisy") {
                EXPECT_EQ(text_digest(serve::telemetry_csv(telemetry)),
                          kCsvDigests[d]);
            }
        }
    }
    PlanCache::instance().clear();
}

TEST(ServeExportDigestTest, FailoverTimelineKeepsItsDigest)
{
    // The fleet timeline `mgserve --preset failover --trace` writes: a
    // killed replica's lost and drained requests, and their re-arrivals
    // on the survivor.
    PlanCache::instance().clear();
    serve::ClusterConfig config =
        serve::cluster_preset_by_name("failover", "a100");
    std::vector<serve::TraceLog> logs(config.devices.size());
    serve::Cluster cluster(std::move(config));
    for (std::size_t k = 0; k < logs.size(); ++k) {
        cluster.set_trace(k, &logs[k]);
    }
    cluster.run();
    std::vector<serve::FleetReplicaTrace> replicas;
    for (std::size_t k = 0; k < logs.size(); ++k) {
        replicas.push_back({&logs[k], nullptr, "r" + std::to_string(k)});
    }
    EXPECT_EQ(text_digest(serve::fleet_trace_json(replicas)),
              "c905ef254a97f70d");
    PlanCache::instance().clear();
}

}  // namespace
}  // namespace multigrain
