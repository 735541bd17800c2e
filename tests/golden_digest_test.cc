// Golden digests of simulated plans: each test replays captured plans into
// a GpuSim and pins a 64-bit digest of the SimResult, bit-exact over
// total_us and every KernelStats field (name, stream, deps, thread blocks,
// occupancy, ready / start / end, average concurrency, work).
//
// The digests were pinned at the last revision that still carried an
// imperative planning path beside capture/replay; there these same tests
// proved, case by case, that replay produced exactly what that path
// produced. Matching a digest therefore means matching it, which is why
// the test names are kept. Every simulated digest was re-pinned once
// since, when the engine began rebasing time at quiescent points; a build
// that never splices a segment reproduces the re-pinned values.
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
// Its first digests were computed before the engine's event queue was
// rewritten, and proved the rewrite popped the same events in the same
// order; they were re-pinned with the rest for the rebase.
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
#include "engine_test_util.h"
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
        "8bb2b99a1700637e", "97637b410c669fc7", "981231b28b834220",
        "434047722d6b0f68", "8368ae7a2b667153", "7383506bd2fe59fc",
        "8368ae7a2b667153", "7383506bd2fe59fc", "1dbdf8a3522bd460",
        "002cfe615845007c", "1dbdf8a3522bd460", "002cfe615845007c",
        "ca3a623df7fbd6c3", "ff8144f13fb09595", "ca3a623df7fbd6c3",
        "ff8144f13fb09595"};
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
    EXPECT_EQ(digest(a.run()), "610bd611ccdc73e8");
    EXPECT_EQ(digest(b.run()), "610bd611ccdc73e8");
    EXPECT_EQ(digest(engine.simulate(device)), "610bd611ccdc73e8");
}

TEST(RunnerComposedReplayTest, InferencePassMatchesImperativeLoop)
{
    const ModelConfig model = ModelConfig::tiny_test();
    Rng rng(2022);
    const TransformerRunner runner(model, SliceMode::kMultigrain,
                                   sample_for_model(rng, model),
                                   /*batch=*/2);
    EXPECT_EQ(digest(runner.simulate(sim::DeviceSpec::a100()).sim),
              "e010758e4cd7845e");
}

TEST(RunnerComposedReplayTest, TrainingPassMatchesImperativeLoop)
{
    const ModelConfig model = ModelConfig::tiny_test();
    Rng rng(7);
    const TransformerRunner runner(model, SliceMode::kMultigrain,
                                   sample_for_model(rng, model),
                                   /*batch=*/1);
    EXPECT_EQ(digest(runner.simulate_training(sim::DeviceSpec::a100()).sim),
              "0c95a495949e753d");
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

TEST(EngineOrderTest, RandomGraphsKeepTheirDigests)
{
    // Indexed by seed * 2 + unit_saturation.
    static const char *const kDigests[16] = {
        "a85be24367c4b73f", "ac28b3ed1c5b2858", "b6978ed77b217225",
        "4f9917d75cbc94e0", "fe91d68ecc106883", "94a4bed82d196a73",
        "e9ab746840aedfa5", "27bdcc1b76aa9255", "30dd8c03e40aae85",
        "fd5bbed2b340d83c", "d26251b89d038e2c", "c9986c0a6c2fe67f",
        "520e8d4ba75a670d", "e5884b0cb266cbeb", "fe3309accaf29435",
        "fe8e7cde0ea7b949"};
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const LaunchGraph graph = sim::random_program(seed);
        for (const bool saturation : {false, true}) {
            SCOPED_TRACE("seed " + std::to_string(seed) +
                         (saturation ? " saturation on" : " saturation off"));
            EXPECT_EQ(digest(sim::simulate(sim::order_toy_device(saturation),
                                            graph)),
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
    EXPECT_EQ(c.units, 3682);
    EXPECT_EQ(c.crossing_events, 2340);
    EXPECT_EQ(c.ready_events, 18);
    EXPECT_EQ(c.activation_events, 3682);
    EXPECT_EQ(c.deadline_events, 3682);
    EXPECT_EQ(c.predictions, 15026);
    EXPECT_EQ(c.peak_queue, 1354);
    // Segments that repeat an earlier one are spliced, not simulated.
    EXPECT_EQ(c.segments, 11);
    EXPECT_EQ(c.segment_hits, 9);
    EXPECT_EQ(c.spliced_kernels, 12);
    // Each of the 30 kernels is either simulated, its ready event popped,
    // or spliced.
    EXPECT_EQ(c.ready_events + c.spliced_kernels, 30);
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
    static const char *const kDigests[2] = {"94f35d5d8a17912c", "5a37ae5daa50085e"};
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
              "27759b5c57400b2f");
}

// ---- Serving reports ----------------------------------------------------

TEST(ServeDigestTest, ServePresetReportsKeepTheirDigests)
{
    // Indexed by preset * 6 + device * 3 + (bench, cost, trace report).
    static const char *const kDigests[30] = {
        "b52ce00f5b024776", "9e6206afaae437ea", "2de41dcabfd42bb8",
        "92a9385cf0d4f0c7", "a1f1feee3accecc5", "7e5c466ea2b4abea",
        "6e161d43712e3c3b", "c827d37be6c57251", "a76eac006a6f9506",
        "5e804fe16a30d40b", "060896fbeec76946", "e4ef616843337d0d",
        "264f4836cea9db6a", "78c06e8c98a6c620", "233bbb4f1113be7d",
        "0fbeb9cba067111b", "e806cf34858d2d80", "73bddda8d6d4896b",
        "de9e365fdd9e4708", "4f82c0a8ac899329", "e0d6b68e3624791c",
        "49d59d235a965693", "e6a039d2a87e9547", "6916a198e8369adf",
        "575a51beebc03f44", "dab4d9ab35cf1e58", "1649dc325ca5069b",
        "c18620b6c338609c", "8556683d0595d7bc", "ce2ca5f1cd63051c"};
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
        "cc6da3f3ac33214c", "f2ab42daf867683e", "4603bac0a87d8264",
        "8d766367833dc540", "3f4005a0917f3a1d", "b02081c6fc354f21",
        "cb163525259a2ae4"};
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
        "45e46652a9bc5313", "4ee45ff01657c5fd", "e9a550ff39e5f368",
        "b5cbf0fa86b5c52e", "0a1e733a23b00159", "aedac21e57105fb7"};
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
              "16c56cb91a500c74");
    PlanCache::instance().clear();
}

}  // namespace
}  // namespace multigrain
