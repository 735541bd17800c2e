// mgbench — the repository benchmark.
//
// Runs one named workload against the multigrain libraries, checks its
// outputs, and prints every metric by name with its unit. Host-clock
// metrics time this process; simulated-clock metrics read the gpusim
// device timeline. Per-layer numbers come from spans the benchmark records
// around its own calls into each module's public functions (--trace 1).
// README.md in this directory documents the metrics, the workloads, and
// how to read the trace.
//
//   mgbench --workload infer_longformer|plan_cold|serve_steady
//           [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//           [--repo-root DIR]
//
// The last line of standard output is one JSON object with the keys
// "correct", "attempted", "failed" and "metrics". Exit status: 0 clean,
// 1 a correctness check failed, 2 a usage error or a build that must not
// be measured (assertions on, or capture-time lint/check enabled).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/gitinfo.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/check.h"
#include "core/lint.h"
#include "core/memplan.h"
#include "core/plan_cache.h"
#include "gpusim/device.h"
#include "gpusim/engine.h"
#include "profiler/metrics.h"
#include "profiler/percentile.h"
#include "serve/cost.h"
#include "serve/server.h"
#include "serve/trace.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

namespace {

using namespace multigrain;
using Clock = std::chrono::steady_clock;
using LayerKind = TransformerRunner::LayerKind;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Set-up repeats until it has run at least kSetupMinReps times and for
/// kSetupBudgetMs in total; setup_s is the median of the repetitions.
constexpr int kSetupMinReps = 5;
constexpr double kSetupBudgetMs = 2000;
/// Smallest share of a root span its child spans must cover in the traced
/// run, in percent.
constexpr double kMinCoveragePct = 95;
/// The seed the committed fig7@a100 baseline row was sampled with.
constexpr std::uint64_t kFig7Seed = 2022;
/// mgperf's relative tolerance on simulated times.
constexpr double kFig7RelTol = 0.02;

double
ms_since(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/// True while set-up still has to repeat, given the times of the
/// repetitions so far.
bool
more_setup(const std::vector<double> &setup_ms)
{
    double total = 0;
    for (const double ms : setup_ms) {
        total += ms;
    }
    return static_cast<int>(setup_ms.size()) < kSetupMinReps ||
           total < kSetupBudgetMs;
}

// ---- Metric names ---------------------------------------------------------

struct MetricDef {
    const char *name;
    const char *unit;
};

/// Printed with --trace 0; BENCHMARK.json lists the same names.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_ms", "ms"},
    {"sim_hbm_mb", "MB"},
};

/// Printed with --trace 1; every workload prints every name, 0 where the
/// workload does not exercise that layer.
constexpr MetricDef kPerLayer[] = {
    {"patterns.slice_ms", "ms"},
    {"patterns.validate_ms", "ms"},
    {"patterns.coarse_blocks", "count"},
    {"patterns.fine_nnz", "count"},
    {"patterns.global_rows", "count"},
    {"core.cache_clear_ms", "ms"},
    {"core.capture_ms", "ms"},
    {"core.graph_nodes", "count"},
    {"core.lint_ms", "ms"},
    {"core.memplan_ms", "ms"},
    {"core.check_ms", "ms"},
    {"core.replay_ms", "ms"},
    {"core.plan_cache.hits", "count"},
    {"core.plan_cache.misses", "count"},
    {"core.plan_cache.hit_rate", "ratio"},
    {"gpusim.run_ms", "ms"},
    {"gpusim.kernels", "count"},
    {"gpusim.thread_blocks", "count"},
    {"gpusim.ns_per_tb", "ns"},
    {"gpusim.kernel_spread_pct", "%"},
    {"transformer.runner_ms", "ms"},
    {"transformer.gemm_us", "us"},
    {"transformer.sddmm_us", "us"},
    {"transformer.softmax_us", "us"},
    {"transformer.spmm_us", "us"},
    {"transformer.ew_us", "us"},
    {"transformer.attention_us", "us"},
    {"transformer.dram_gb", "GB"},
    {"transformer.attention_dram_gb", "GB"},
    {"serve.dispatch_ms", "ms"},
    {"serve.loop_ms", "ms"},
    {"serve.rounds", "count"},
    {"serve.avg_batch", "requests"},
    {"serve.gpu_util", "ratio"},
    {"serve.peak_round_hbm_mb", "MB"},
    {"serve.queue_p50_ms", "ms"},
    {"serve.rejected", "count"},
    {"serve.deadline_miss", "count"},
    {"profiler.profile_ms", "ms"},
    {"sim_pass_us", "us"},
    {"sim_peak_hbm_mb", "MB"},
    {"serve_p50_ms", "ms"},
    {"serve_tail_ms", "ms"},
    {"serve_goodput_rps", "req/s"},
    {"fail_ratio", "ratio"},
    {"host_rss_mb", "MB"},
    {"host_ms_tail", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.coverage_pct", "%"},
};

/// Span-derived per-layer metrics: the per-op sum of these spans' times.
struct SpanMetric {
    const char *metric;
    std::vector<const char *> spans;
};

const std::vector<SpanMetric> &
span_metrics()
{
    static const std::vector<SpanMetric> metrics = {
        {"patterns.slice_ms", {"patterns.slice"}},
        {"patterns.validate_ms", {"patterns.validate"}},
        {"core.cache_clear_ms", {"core.cache_clear"}},
        {"core.capture_ms", {"core.capture"}},
        {"core.lint_ms", {"core.lint"}},
        {"core.memplan_ms", {"core.memplan"}},
        {"core.check_ms", {"core.check"}},
        {"core.replay_ms", {"core.replay"}},
        {"gpusim.run_ms", {"gpusim.run"}},
        {"transformer.runner_ms", {"transformer.runner"}},
        {"serve.dispatch_ms", {"serve.dispatch"}},
        {"serve.loop_ms",
         {"serve.begin", "serve.ingest", "serve.expire", "serve.observe",
          "serve.complete", "serve.finish"}},
        {"profiler.profile_ms", {"profiler.profile"}},
    };
    return metrics;
}

// ---- Spans ----------------------------------------------------------------

/// One traced call. `parent` indexes the enclosing span (-1 for a root);
/// every span under one root — one set-up, pass, input or serving run —
/// shares that root's `op`.
struct Span {
    const char *name = "";
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
    int op = -1;

    double dur_us() const { return end_us - start_us; }
};

/// In-memory span recorder. A disabled tracer records nothing and reads no
/// clock, so the untraced run pays one branch per call site.
class Tracer {
  public:
    explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now())
    {
    }

    bool enabled() const { return enabled_; }

    int open(const char *name)
    {
        if (!enabled_) {
            return -1;
        }
        Span s;
        s.name = name;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.op = s.parent < 0
                   ? next_op_++
                   : spans_[static_cast<std::size_t>(s.parent)].op;
        s.start_us = now_us();
        spans_.push_back(s);
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void close(int index)
    {
        if (index < 0) {
            return;
        }
        spans_[static_cast<std::size_t>(index)].end_us = now_us();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    double now_us() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    int next_op_ = 0;
};

/// RAII span around one call into a module.
class SpanScope {
  public:
    SpanScope(Tracer &tracer, const char *name)
        : tracer_(tracer), index_(tracer.open(name))
    {
    }
    ~SpanScope() { tracer_.close(index_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &tracer_;
    int index_;
};

// ---- Statistics -----------------------------------------------------------

double
median(const std::vector<double> &values)
{
    return values.empty() ? 0.0 : prof::percentile(values, 50);
}

struct Tail {
    double pct = 0;
    double value = 0;
    std::size_t beyond = 0;
};

/// The highest of p99/p95/p90/p75 with at least ten samples beyond it.
std::optional<Tail>
tail_of(const std::vector<double> &values)
{
    for (const double p : {99.0, 95.0, 90.0, 75.0}) {
        const auto beyond = static_cast<std::size_t>(std::floor(
            static_cast<double>(values.size()) * (100.0 - p) / 100.0 +
            1e-9));
        if (beyond >= 10) {
            return Tail{p, prof::percentile(values, p), beyond};
        }
    }
    return std::nullopt;
}

/// Per-op sums of the named spans' durations, in ms, over the ops whose
/// root span is named `root`; ops with none of the spans are skipped.
std::vector<double>
per_op_ms(const std::vector<Span> &spans,
          const std::vector<const char *> &names, const char *root)
{
    std::map<int, const char *> root_of;
    for (const Span &s : spans) {
        if (s.parent < 0) {
            root_of[s.op] = s.name;
        }
    }
    std::map<int, double> sums;
    for (const Span &s : spans) {
        if (std::strcmp(root_of[s.op], root) != 0) {
            continue;
        }
        for (const char *name : names) {
            if (std::strcmp(s.name, name) == 0) {
                sums[s.op] += s.dur_us() / 1e3;
            }
        }
    }
    std::vector<double> out;
    for (const auto &[op, ms] : sums) {
        out.push_back(ms);
    }
    return out;
}

/// Smallest share of a root span's time that its child spans cover.
double
min_coverage(const std::vector<Span> &spans)
{
    std::vector<double> covered(spans.size(), 0.0);
    for (const Span &s : spans) {
        if (s.parent >= 0) {
            covered[static_cast<std::size_t>(s.parent)] += s.dur_us();
        }
    }
    double worst = 1.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent < 0 && spans[i].dur_us() > 0) {
            worst = std::min(worst, covered[i] / spans[i].dur_us());
        }
    }
    return worst;
}

// ---- Results --------------------------------------------------------------

struct Options {
    std::string workload;
    std::optional<std::uint64_t> seed;
    double seconds = 10;
    bool trace = false;
    std::string out_dir = ".bench_out";
    std::string repo_root = ".";
};

/// What one workload run measured. Host samples are per op; `values` holds
/// every other reported metric by name.
struct Result {
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<double> setup_ms;
    std::vector<double> op_ms;
    /// The workload-level name of op_ms: pass_ms, plan_ms or ktoken_host_ms
    /// (host ms per 1000 offered tokens, padded to their bucket).
    const char *op_name = "host_ms";
    /// Name of the root span of one op: "pass", "input" or "serving_run".
    const char *op_root = "";
    std::map<std::string, double> values;
    /// Peak resident memory, read after a fixed amount of work so that it
    /// does not grow with the run length.
    double rss_mb = 0;
    std::vector<std::string> notes;

    void check(bool ok, const std::string &what)
    {
        if (!ok) {
            ++failed;
            failures.push_back(what);
        }
    }
};

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

std::uint64_t
total_tbs(const sim::SimResult &result)
{
    std::uint64_t tbs = 0;
    for (const sim::KernelStats &k : result.kernels) {
        tbs += static_cast<std::uint64_t>(k.num_tbs);
    }
    return tbs;
}

bool
close_rel(double a, double b, double tol)
{
    return std::abs(a - b) <= tol * std::max({std::abs(a), std::abs(b), 1.0});
}

bool
same_work(const sim::TbWork &a, const sim::TbWork &b, double tol)
{
    return close_rel(a.tensor_flops, b.tensor_flops, tol) &&
           close_rel(a.cuda_flops, b.cuda_flops, tol) &&
           close_rel(a.dram_read_bytes, b.dram_read_bytes, tol) &&
           close_rel(a.dram_write_bytes, b.dram_write_bytes, tol) &&
           close_rel(a.l2_bytes, b.l2_bytes, tol);
}

void
record_slice_counts(const SlicePlan &plan, Result &r)
{
    r.values["patterns.coarse_blocks"] +=
        plan.has_coarse() ? static_cast<double>(plan.coarse->nnz_blocks())
                          : 0.0;
    r.values["patterns.fine_nnz"] +=
        plan.has_fine() ? static_cast<double>(plan.fine->nnz()) : 0.0;
    r.values["patterns.global_rows"] +=
        static_cast<double>(plan.global_rows.size());
}

void
record_cache_counts(const PlanCacheStats &s, Result &r)
{
    r.values["core.plan_cache.hits"] = static_cast<double>(s.hits);
    r.values["core.plan_cache.misses"] = static_cast<double>(s.misses);
    r.values["core.plan_cache.hit_rate"] = s.hit_rate();
}

/// Union length of [start, end) intervals.
double
union_us(std::vector<std::pair<double, double>> spans)
{
    std::sort(spans.begin(), spans.end());
    double total = 0;
    double lo = 0;
    double hi = -kInf;
    for (const auto &[s, e] : spans) {
        if (s > hi) {
            total += hi > lo ? hi - lo : 0.0;
            lo = s;
            hi = e;
        } else {
            hi = std::max(hi, e);
        }
    }
    return total + (hi > lo ? hi - lo : 0.0);
}

// ---- infer_longformer -----------------------------------------------------

/// The committed fig7@a100 Longformer multigrain total_us, or nullopt when
/// the baseline file or its row is absent.
std::optional<double>
fig7_baseline_us(const std::string &repo_root)
{
    std::ifstream file(repo_root + "/bench/baselines/fig7@a100.json");
    if (!file) {
        return std::nullopt;
    }
    std::ostringstream text;
    text << file.rdbuf();
    const JsonValue doc = json_parse(text.str());
    for (const JsonValue &row : doc.at("rows").array) {
        const JsonValue *model = row.find("model");
        const JsonValue *mode = row.find("mode");
        if (model != nullptr && mode != nullptr &&
            model->as_string() == "Longformer-large" &&
            mode->as_string() == "multigrain") {
            return row.at("total_us").as_number();
        }
    }
    return std::nullopt;
}

/// Per-layer × per-phase simulated time, summed over layers: each phase's
/// time in a layer is the union of its kernels' busy intervals, so a
/// multi-stream phase counts its wall time and a serial one its sum.
void
record_phases(const sim::SimResult &result, index_t layers, Result &r)
{
    static const std::pair<const char *, const char *> kPhases[] = {
        {"transformer.gemm_us", "gemm."},
        {"transformer.sddmm_us", "attn.sddmm."},
        {"transformer.softmax_us", "attn.softmax."},
        {"transformer.spmm_us", "attn.spmm."},
        {"transformer.ew_us", "ew."},
    };
    double attention_us = 0;
    double attention_dram = 0;
    // Kernel durations by name with the layer tag stripped, for the
    // cross-layer spread of structurally identical kernels.
    std::map<std::string, std::vector<double>> by_kernel;
    for (index_t l = 0; l < layers; ++l) {
        char tag[16];
        std::snprintf(tag, sizeof tag, "L%02d.", static_cast<int>(l));
        const std::string layer = tag;
        for (const auto &[metric, phase] : kPhases) {
            const std::string prefix = layer + phase;
            std::vector<std::pair<double, double>> spans;
            for (const sim::KernelStats &k : result.kernels) {
                if (k.name.compare(0, prefix.size(), prefix) == 0) {
                    spans.emplace_back(k.start_us, k.end_us);
                }
            }
            r.values[metric] += union_us(std::move(spans));
        }
        attention_us += result.span(layer + "attn.");
        attention_dram += result.dram_bytes_for(layer + "attn.");
    }
    for (const sim::KernelStats &k : result.kernels) {
        if (k.name.size() > 4 && k.name[0] == 'L') {
            by_kernel[k.name.substr(4)].push_back(k.duration_us());
        }
    }
    double spread = 0;
    for (const auto &[name, durations] : by_kernel) {
        const auto [lo, hi] =
            std::minmax_element(durations.begin(), durations.end());
        if (durations.size() > 1 && *lo > 0) {
            spread = std::max(spread, (*hi - *lo) / *lo * 100.0);
        }
    }
    r.values["transformer.attention_us"] = attention_us;
    r.values["transformer.dram_gb"] = result.dram_bytes() / 1e9;
    r.values["transformer.attention_dram_gb"] = attention_dram / 1e9;
    r.values["gpusim.kernel_spread_pct"] = spread;
}

/// The model's dataset sample stream, redrawn until a sample fills the
/// model's window: valid length sets most of the work a sample causes, so
/// fixing it keeps seeds comparable while the special-token layout (query
/// length, separator positions) still varies.
WorkloadSample
full_window_sample(Rng &rng, const ModelConfig &model)
{
    for (;;) {
        WorkloadSample s = sample_for_model(rng, model);
        if (s.valid_len == model.max_seq_len) {
            return s;
        }
    }
}

Result
run_infer(const Options &opt, Tracer &tracer)
{
    Result r;
    r.op_name = "pass_ms";
    r.op_root = "pass";
    const ModelConfig model = model_config_by_name("longformer");
    const sim::DeviceSpec device = sim::device_spec_by_name("a100");
    const SliceMode mode = SliceMode::kMultigrain;
    const std::uint64_t seed = opt.seed.value_or(kFig7Seed);
    Rng rng(seed);
    const WorkloadSample sample = full_window_sample(rng, model);
    const double layers = static_cast<double>(model.num_layers);

    // Set-up: from an empty plan cache, slice the input and capture the
    // inference layer graph with its memory plan.
    std::shared_ptr<const LaunchGraph> graph;
    std::shared_ptr<const MemPlan> mem;
    std::unique_ptr<TransformerRunner> planned;
    while (more_setup(r.setup_ms)) {
        const auto t0 = Clock::now();
        {
            SpanScope root(tracer, "setup");
            {
                SpanScope s(tracer, "core.cache_clear");
                planned.reset();
                graph.reset();
                mem.reset();
                PlanCache::instance().clear();
            }
            {
                SpanScope s(tracer, "patterns.slice");
                planned = std::make_unique<TransformerRunner>(model, mode,
                                                              sample, 1);
            }
            {
                SpanScope s(tracer, "core.capture");
                graph = planned->layer_graph(device, LayerKind::kInference);
                mem = planned->layer_memplan(device, LayerKind::kInference);
            }
        }
        r.setup_ms.push_back(ms_since(t0));
    }
    record_slice_counts(planned->attention().plan(), r);
    r.values["core.graph_nodes"] = static_cast<double>(graph->size());
    const double peak_mb =
        static_cast<double>(mem->peak_hbm_bytes()) * layers / 1e6;
    r.values["sim_hbm_mb"] = peak_mb;
    r.values["sim_peak_hbm_mb"] = peak_mb;
    sim::TbWork expected;
    for (index_t l = 0; l < model.num_layers; ++l) {
        expected += graph->total_work();
    }

    // Timed passes, each over a fresh runner on the warm plan cache.
    std::optional<sim::SimResult> first;
    sim::SimResult last;
    const auto loop_start = Clock::now();
    for (int pass = 0; pass == 0 || ms_since(loop_start) < opt.seconds * 1e3;
         ++pass) {
        const PlanCacheStats before = PlanCache::instance().stats();
        const auto t0 = Clock::now();
        {
            SpanScope root(tracer, "pass");
            std::unique_ptr<TransformerRunner> runner;
            {
                SpanScope s(tracer, "transformer.runner");
                runner = std::make_unique<TransformerRunner>(model, mode,
                                                             sample, 1);
            }
            sim::GpuSim sim(device);
            {
                SpanScope s(tracer, "core.replay");
                std::vector<int> binding;
                runner->plan_inference_into(sim, binding);
            }
            {
                SpanScope s(tracer, "gpusim.run");
                last = sim.run();
            }
            {
                SpanScope s(tracer, "profiler.profile");
                prof::profile(last, device);
            }
        }
        r.op_ms.push_back(ms_since(t0));
        ++r.attempted;
        if (pass == 0) {
            record_cache_counts(
                stats_delta(before, PlanCache::instance().stats()), r);
            first = last;
            r.rss_mb = peak_rss_mb();
        }
        const std::string tag = "pass " + std::to_string(pass) + ": ";
        const std::int64_t failed_before = r.failed;
        r.check(last.total_us == first->total_us &&
                    same_work(last.work, first->work, 0.0) &&
                    last.kernels.size() == first->kernels.size(),
                tag + "SimResult totals differ from the first pass");
        r.check(same_work(last.work, expected, 1e-9),
                tag + "simulated work differs from total_work() x layers");
        r.failed = std::min(r.failed, failed_before + 1);
    }

    r.values["sim_pass_us"] = last.total_us;
    r.values["gpusim.kernels"] = static_cast<double>(last.kernels.size());
    r.values["gpusim.thread_blocks"] = static_cast<double>(total_tbs(last));
    record_phases(last, model.num_layers, r);

    if (seed == kFig7Seed) {
        const std::optional<double> baseline =
            fig7_baseline_us(opt.repo_root);
        if (baseline) {
            r.check(close_rel(last.total_us, *baseline, kFig7RelTol),
                    "sim_pass_us " + std::to_string(last.total_us) +
                        " differs from fig7@a100 " +
                        std::to_string(*baseline));
            r.notes.push_back("sim_pass_us vs fig7@a100 baseline " +
                              std::to_string(*baseline) + " us");
        } else {
            r.check(false, "no Longformer-large multigrain row in "
                           "bench/baselines/fig7@a100.json");
        }
    }
    return r;
}

// ---- plan_cold ------------------------------------------------------------

struct PlanInput {
    ModelConfig model;
    SliceMode mode = SliceMode::kMultigrain;
    WorkloadSample sample;
};

constexpr int kModelModeCombos = 12;

/// Input `i` of the cold-planning stream: models × modes in a fixed cycle,
/// each input with a fresh full-window sample from `rng`.
PlanInput
plan_input(int i, Rng &rng)
{
    static const char *const kModels[] = {"longformer", "qds", "bigbird",
                                          "poolingformer"};
    static const SliceMode kModes[] = {SliceMode::kMultigrain,
                                       SliceMode::kCoarseOnly,
                                       SliceMode::kFineOnly};
    PlanInput in;
    in.model = model_config_by_name(kModels[(i / 3) % 4]);
    in.mode = kModes[i % 3];
    in.sample = full_window_sample(rng, in.model);
    return in;
}

struct PlanOutcome {
    std::size_t graph_nodes = 0;
    double peak_hbm_mb = 0;
    PlanCacheStats cache;
};

/// Plans and verifies one input from an empty plan cache: slice, capture
/// all three layer kinds with their memory plans, then lint, re-plan and
/// validate memory, and check each graph.
PlanOutcome
plan_and_verify(const PlanInput &in, const sim::DeviceSpec &device,
                Tracer &tracer, Result &r, const std::string &tag)
{
    static const LayerKind kKinds[] = {LayerKind::kInference,
                                       LayerKind::kTrainForward,
                                       LayerKind::kTrainBackward};
    PlanOutcome out;
    {
        SpanScope s(tracer, "core.cache_clear");
        PlanCache::instance().clear();
    }
    std::unique_ptr<TransformerRunner> runner;
    {
        SpanScope s(tracer, "patterns.slice");
        runner = std::make_unique<TransformerRunner>(in.model, in.mode,
                                                     in.sample, 1);
    }
    try {
        SpanScope s(tracer, "patterns.validate");
        runner->attention().plan().validate_partition();
    } catch (const Error &e) {
        r.check(false, tag + "validate_partition: " + e.what());
    }
    std::vector<std::shared_ptr<const LaunchGraph>> graphs;
    {
        SpanScope s(tracer, "core.capture");
        for (const LayerKind kind : kKinds) {
            graphs.push_back(runner->layer_graph(device, kind));
            const auto mem = runner->layer_memplan(device, kind);
            if (kind == LayerKind::kInference) {
                out.peak_hbm_mb = static_cast<double>(mem->peak_hbm_bytes()) *
                                  static_cast<double>(in.model.num_layers) /
                                  1e6;
            }
        }
    }
    out.cache = PlanCache::instance().stats();
    for (const auto &g : graphs) {
        out.graph_nodes += g->size();
    }
    {
        SpanScope s(tracer, "core.lint");
        LintOptions options;
        options.device = &device;
        for (const auto &g : graphs) {
            const LintReport report = lint_graph(*g, options);
            r.check(report.hazards() == 0,
                    tag + "lint: " + report.summary());
        }
    }
    std::vector<MemPlan> plans;
    {
        SpanScope s(tracer, "core.memplan");
        for (const auto &g : graphs) {
            plans.push_back(plan_memory(*g));
            try {
                validate_memplan(*g, plans.back());
            } catch (const Error &e) {
                r.check(false, tag + "validate_memplan: " + e.what());
            }
        }
    }
    {
        SpanScope s(tracer, "core.check");
        for (std::size_t k = 0; k < graphs.size(); ++k) {
            CheckOptions options;
            options.memplan = &plans[k];
            const CheckReport report = check_graph(*graphs[k], options);
            r.check(report.errors() == 0,
                    tag + "check: " + report.summary());
        }
    }
    record_slice_counts(runner->attention().plan(), r);
    return out;
}

Result
run_plan_cold(const Options &opt, Tracer &tracer)
{
    Result r;
    r.op_name = "plan_ms";
    r.op_root = "input";
    const sim::DeviceSpec device = sim::device_spec_by_name("a100");
    const std::uint64_t seed = opt.seed.value_or(2022);

    // Set-up: plan one fixed warm-up input, the same for every seed, so
    // allocator growth and lazy statics are paid before timing; the plan
    // cache is emptied again by the first measured input.
    Rng warm_rng(kFig7Seed);
    const PlanInput warm = plan_input(0, warm_rng);
    Result scratch;
    while (more_setup(r.setup_ms)) {
        const auto t0 = Clock::now();
        {
            SpanScope root(tracer, "setup");
            plan_and_verify(warm, device, tracer, scratch, "set-up: ");
        }
        r.setup_ms.push_back(ms_since(t0));
    }
    r.failures = scratch.failures;
    r.failed = scratch.failed > 0 ? 1 : 0;

    // Timed inputs, in whole cycles of the 12 model × mode combinations so
    // every combination is sampled equally often.
    Rng rng(seed);
    std::vector<double> peaks;
    std::map<std::string, double> first_cycle;
    const auto loop_start = Clock::now();
    for (int i = 0; i < kModelModeCombos ||
                    i % kModelModeCombos != 0 ||
                    ms_since(loop_start) < opt.seconds * 1e3;
         ++i) {
        const PlanInput in = plan_input(i, rng);
        const std::string tag = "input " + std::to_string(i) + " (" +
                                in.model.name + ", " + to_string(in.mode) +
                                "): ";
        const std::int64_t failed_before = r.failed;
        PlanOutcome out;
        const auto t0 = Clock::now();
        {
            SpanScope root(tracer, "input");
            out = plan_and_verify(in, device, tracer, r, tag);
        }
        r.op_ms.push_back(ms_since(t0));
        ++r.attempted;
        // Several failed checks on one input count as one failed input.
        r.failed = std::min(r.failed, failed_before + 1);
        if (i < kModelModeCombos) {
            peaks.push_back(out.peak_hbm_mb);
            first_cycle["core.graph_nodes"] +=
                static_cast<double>(out.graph_nodes);
            first_cycle["core.plan_cache.hits"] +=
                static_cast<double>(out.cache.hits);
            first_cycle["core.plan_cache.misses"] +=
                static_cast<double>(out.cache.misses);
            for (const char *key : {"patterns.coarse_blocks",
                                    "patterns.fine_nnz",
                                    "patterns.global_rows"}) {
                first_cycle[key] = r.values[key];
            }
            r.rss_mb = peak_rss_mb();
        }
    }
    // Counts cover exactly the first cycle, whatever the run length.
    for (const auto &[key, value] : first_cycle) {
        r.values[key] = value;
    }
    const double lookups = first_cycle["core.plan_cache.hits"] +
                           first_cycle["core.plan_cache.misses"];
    r.values["core.plan_cache.hit_rate"] =
        lookups > 0 ? first_cycle["core.plan_cache.hits"] / lookups : 0.0;
    r.values["sim_hbm_mb"] = median(peaks);
    r.notes.push_back("counts and sim_hbm_mb cover the first " +
                      std::to_string(kModelModeCombos) +
                      " inputs (one per model x mode)");
    return r;
}

// ---- serve_steady ---------------------------------------------------------

/// Serving runs that the simulated serving metrics pool; a run always
/// makes at least this many, so those metrics do not depend on host speed.
constexpr int kServeSimRuns = 2;
/// Open-loop arrival rate, requests per virtual second.
constexpr double kServeRateRps = 200;
/// Traffic seed stride between the serving runs of one benchmark run.
constexpr std::uint64_t kServeSeedStride = 0x9e3779b97f4a7c15ull;

/// One serving run from an empty plan cache over the steady preset's
/// TrafficSource, driven through the Server's step-wise API in the same
/// per-event order as Server::run(). Each request is ingested at exactly
/// its scheduled arrival on the virtual clock, so the generator is never
/// late.
serve::ServeReport
serve_once(const serve::ServeConfig &config, const sim::DeviceSpec &device,
           Tracer &tracer, serve::TraceLog *log, Result &r,
           const std::string &tag)
{
    {
        SpanScope s(tracer, "core.cache_clear");
        PlanCache::instance().clear();
    }
    serve::Server server(config, device);
    server.set_trace(log);
    std::optional<serve::TrafficSource> source;
    {
        SpanScope s(tracer, "serve.begin");
        source.emplace(config.traffic);
        server.begin();
    }
    double now = 0;
    for (;;) {
        while (source->peek_us() <= now) {
            SpanScope s(tracer, "serve.ingest");
            server.ingest(source->pop(), now);
        }
        {
            SpanScope s(tracer, "serve.expire");
            server.expire(now);
        }
        if (server.can_dispatch()) {
            {
                SpanScope s(tracer, "serve.dispatch");
                server.dispatch(now);
            }
            SpanScope s(tracer, "serve.observe");
            server.observe(now);
            continue;
        }
        {
            SpanScope s(tracer, "serve.observe");
            server.observe(now);
        }
        const double t = std::min(source->peek_us(), server.busy_until());
        if (t == kInf) {
            break;
        }
        now = t;
        if (server.busy() && now >= server.busy_until()) {
            SpanScope s(tracer, "serve.complete");
            server.complete(*source);
        }
    }
    r.check(source->exhausted() && !server.busy() && !server.can_dispatch(),
            tag + "serving loop ended with work in the system");
    SpanScope s(tracer, "serve.finish");
    return server.finish(now);
}

Result
run_serve(const Options &opt, Tracer &tracer)
{
    Result r;
    r.op_name = "ktoken_host_ms";
    r.op_root = "serving_run";
    serve::ServeConfig config = serve::serve_preset_by_name("steady");
    config.traffic.rate_rps = kServeRateRps;
    const sim::DeviceSpec device = sim::device_spec_by_name("a100");
    const std::uint64_t seed = opt.seed.value_or(2022);

    // Set-up: size the server by capturing the largest plan it can
    // dispatch — the cap bucket at the largest padded batch — and reading
    // its modelled HBM, then build a server ready for its first arrival.
    // Each serving run starts from an empty plan cache again.
    const ModelConfig model =
        model_config_by_name(config.traffic.models.front());
    const index_t cap_bucket =
        bucket_len(model.max_seq_len, config.scheduler.bucket_granularity,
                   model.max_seq_len);
    const ModelConfig largest_model = bucketed_model(model, cap_bucket);
    const WorkloadSample largest_sample =
        canonical_bucket_sample(largest_model, cap_bucket);
    const auto largest_batch = static_cast<index_t>(
        std::bit_ceil(static_cast<unsigned>(config.scheduler.max_batch)));
    while (more_setup(r.setup_ms)) {
        const auto t0 = Clock::now();
        {
            SpanScope root(tracer, "setup");
            {
                SpanScope s(tracer, "core.cache_clear");
                PlanCache::instance().clear();
            }
            std::optional<TransformerRunner> largest;
            {
                SpanScope s(tracer, "patterns.slice");
                largest.emplace(largest_model, config.mode, largest_sample,
                                largest_batch);
            }
            {
                SpanScope s(tracer, "core.capture");
                r.values["sim_hbm_mb"] =
                    static_cast<double>(
                        largest->layer_memplan(device, LayerKind::kInference)
                            ->peak_hbm_bytes()) *
                    static_cast<double>(model.num_layers) / 1e6;
            }
            SpanScope s(tracer, "serve.begin");
            serve::Server server(config, device);
            server.begin();
        }
        r.setup_ms.push_back(ms_since(t0));
    }

    std::vector<double> latencies;
    std::vector<double> queued;
    double makespan_us = 0;
    double busy_us = 0;
    double good = 0;
    double rounds = 0;
    double batched = 0;
    double batches = 0;
    double rejected = 0;
    double deadline_miss = 0;
    std::vector<double> round_bytes;
    std::uint64_t kernels = 0;
    std::uint64_t tbs = 0;
    std::vector<double> request_ms;
    const auto loop_start = Clock::now();
    for (int run = 0;
         run < kServeSimRuns || ms_since(loop_start) < opt.seconds * 1e3;
         ++run) {
        // Run 0 offers the preset's traffic at the benchmark seed itself.
        config.traffic.seed = seed + static_cast<std::uint64_t>(run) *
                                         kServeSeedStride;
        const std::string tag = "serving run " + std::to_string(run) + ": ";
        serve::TraceConfig trace_config;
        trace_config.retain_full = false;
        trace_config.capture_sim = true;
        std::optional<serve::TraceLog> log;
        if (tracer.enabled() && run < kServeSimRuns) {
            log.emplace(trace_config);
        }
        serve::ServeReport report;
        const auto t0 = Clock::now();
        {
            SpanScope root(tracer, "serving_run");
            report = serve_once(config, device, tracer,
                                log ? &*log : nullptr, r, tag);
        }
        const double host_ms = ms_since(t0);
        const std::uint64_t offered = report.admission.offered;
        // Host cost follows the tokens simulated, and the seed's length
        // draws move a run's tokens per request by about 10 %; per padded
        // token, runs of different seeds compare.
        double padded_tokens = 0;
        for (const serve::RequestRecord &rec : report.records) {
            padded_tokens += static_cast<double>(
                bucket_len(rec.request.valid_len,
                           config.scheduler.bucket_granularity,
                           model.max_seq_len));
        }
        r.op_ms.push_back(host_ms / padded_tokens * 1e3);
        request_ms.push_back(host_ms / static_cast<double>(offered));

        // A rejected, timed-out or late request is a failed operation; a
        // failed check below is also a wrong result.
        r.attempted += static_cast<std::int64_t>(offered);
        const std::uint64_t lost = report.admission.rejected +
                                   report.admission.timed_out +
                                   report.deadline_miss;
        r.failed += static_cast<std::int64_t>(lost);
        if (lost > 0) {
            r.notes.push_back(tag + std::to_string(lost) +
                              " requests rejected, timed out or late");
        }
        r.check(offered == static_cast<std::uint64_t>(
                               config.traffic.num_requests) &&
                    offered == report.completed + report.admission.rejected +
                                   report.admission.timed_out,
                tag + "offered != completed + rejected + timed out");
        for (const std::string &m : serve::reconcile_cost(report.cost,
                                                          report)) {
            r.check(false, tag + "reconcile_cost: " + m);
        }
        if (run == 0) {
            record_cache_counts(report.plan_cache, r);
        }
        if (run >= kServeSimRuns) {
            continue;
        }
        for (const serve::RequestRecord &rec : report.records) {
            if (rec.outcome == serve::RequestRecord::Outcome::kCompleted) {
                latencies.push_back(rec.latency_us() / 1e3);
                queued.push_back(rec.queue_us() / 1e3);
                good += rec.deadline_met ? 1.0 : 0.0;
            }
        }
        makespan_us += report.makespan_us;
        busy_us += report.busy_us;
        rounds += report.rounds;
        for (const auto &[size, count] : report.batch_histogram) {
            batched += static_cast<double>(size) * count;
            batches += count;
        }
        rejected += static_cast<double>(report.admission.rejected);
        deadline_miss += static_cast<double>(report.deadline_miss);
        for (const std::uint64_t bytes : report.round_hbm_bytes) {
            round_bytes.push_back(static_cast<double>(bytes) / 1e6);
        }
        if (run == kServeSimRuns - 1) {
            r.rss_mb = peak_rss_mb();
        }
        if (log) {
            for (const auto &round : log->round_sims()) {
                kernels += round.result.kernels.size();
                tbs += total_tbs(round.result);
            }
        }
    }

    r.values["serve_p50_ms"] = median(latencies);
    if (const std::optional<Tail> tail = tail_of(latencies)) {
        r.values["serve_tail_ms"] = tail->value;
        char note[96];
        std::snprintf(note, sizeof note,
                      "serve_tail_ms is p%g of %zu requests, %zu beyond it",
                      tail->pct, latencies.size(), tail->beyond);
        r.notes.push_back(note);
    }
    r.values["serve_goodput_rps"] =
        makespan_us > 0 ? good / (makespan_us / 1e6) : 0.0;
    r.values["serve.rounds"] = rounds / kServeSimRuns;
    r.values["serve.avg_batch"] = batches > 0 ? batched / batches : 0.0;
    r.values["serve.gpu_util"] = makespan_us > 0 ? busy_us / makespan_us : 0;
    r.values["serve.queue_p50_ms"] = median(queued);
    r.values["serve.rejected"] = rejected;
    r.values["serve.deadline_miss"] = deadline_miss;
    // Which rounds form depends on which batches happen to meet, so the
    // peak round moves by a third from seed to seed; sim_hbm_mb holds the
    // largest plan's footprint instead.
    r.values["serve.peak_round_hbm_mb"] =
        round_bytes.empty()
            ? 0.0
            : *std::max_element(round_bytes.begin(), round_bytes.end());
    r.values["gpusim.kernels"] = static_cast<double>(kernels) / kServeSimRuns;
    r.values["gpusim.thread_blocks"] =
        static_cast<double>(tbs) / kServeSimRuns;
    char note[160];
    std::snprintf(note, sizeof note,
                  "request_host_ms %.6g ms: host time of a serving run / "
                  "requests offered, median of %zu",
                  median(request_ms), request_ms.size());
    r.notes.push_back(note);
    std::snprintf(note, sizeof note,
                  "open loop at %g req/s on the virtual clock; generator "
                  "lateness 0 ms by construction; simulated metrics pool "
                  "the first %d serving runs",
                  kServeRateRps, kServeSimRuns);
    r.notes.push_back(note);
    return r;
}

// ---- Output ---------------------------------------------------------------

bool
assertions_enabled()
{
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
}

std::string
manifest_json(const Options &opt)
{
    const GitInfo &git = git_info();
    const sim::DeviceSpec device = sim::device_spec_by_name("a100");
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.begin_object();
        w.field("git_sha", git.sha);
        w.field("git_dirty", git.dirty);
        w.field("build_type", MGBENCH_BUILD_TYPE);
        w.field("ndebug", !assertions_enabled());
        w.field("capture_lint", capture_lint_enabled());
        w.field("capture_check", capture_check_enabled());
        w.field("compiler", MGBENCH_COMPILER);
        w.field("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
        w.key("device");
        w.begin_object();
        w.field("name", device.name);
        w.field("num_sms", device.num_sms);
        w.field("tensor_tflops", device.tensor_tflops);
        w.field("dram_gbps", device.dram_gbps);
        w.field("hbm_gbytes", device.hbm_gbytes);
        w.end_object();
        w.field("workload", opt.workload);
        w.field("seconds", opt.seconds);
        w.field("trace", opt.trace);
        w.end_object();
    }
    return os.str();
}

void
write_trace(const std::string &path, const std::vector<Span> &spans,
            const std::string &manifest)
{
    std::ofstream file(path);
    if (!file) {
        std::fprintf(stderr, "mgbench: cannot write %s\n", path.c_str());
        return;
    }
    JsonWriter w(file);
    w.begin_object();
    w.key("manifest");
    w.value(manifest);
    w.field("displayTimeUnit", "ms");
    w.key("traceEvents");
    w.begin_array();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        w.begin_object();
        w.field("name", s.name);
        w.field("ph", "X");
        w.field("ts", s.start_us);
        w.field("dur", s.dur_us());
        w.field("pid", 1);
        w.field("tid", 1);
        w.key("args");
        w.begin_object();
        w.field("id", static_cast<std::int64_t>(i));
        w.field("parent", s.parent);
        w.field("op", s.op);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

void
print_metric(const char *name, double value, const char *unit,
             const char *note = "")
{
    std::printf("  %-30s %16.6g %-8s %s\n", name, value, unit, note);
}

void
print_result_line(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<std::pair<MetricDef, double>> &metrics)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.begin_object();
        w.field("correct", correct);
        w.field("attempted", attempted);
        w.field("failed", failed);
        w.key("metrics");
        w.begin_object();
        for (const auto &[def, value] : metrics) {
            w.key(def.name);
            w.begin_object();
            w.field("value", value);
            w.field("unit", def.unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
    }
    std::printf("%s\n", os.str().c_str());
}

Result
run_workload(const Options &opt, Tracer &tracer)
{
    if (opt.workload == "infer_longformer") {
        return run_infer(opt, tracer);
    }
    if (opt.workload == "plan_cold") {
        return run_plan_cold(opt, tracer);
    }
    return run_serve(opt, tracer);
}

void
usage(std::ostream &os)
{
    os << "usage: mgbench --workload infer_longformer|plan_cold|"
          "serve_steady\n"
          "               [--seed N] [--seconds S] [--trace 0|1]\n"
          "               [--out-dir DIR] [--repo-root DIR]\n";
}

Options
parse_args(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            MG_CHECK(i + 1 < argc) << arg << " needs a value";
            return argv[++i];
        };
        if (arg == "--workload") {
            opt.workload = next();
        } else if (arg == "--seed") {
            opt.seed = std::stoull(next());
        } else if (arg == "--seconds") {
            opt.seconds = std::stod(next());
        } else if (arg == "--trace") {
            const std::string v = next();
            MG_CHECK(v == "0" || v == "1") << "--trace takes 0 or 1";
            opt.trace = v == "1";
        } else if (arg == "--out-dir") {
            opt.out_dir = next();
        } else if (arg == "--repo-root") {
            opt.repo_root = next();
        } else {
            usage(std::cerr);
            throw Error("unknown argument \"" + arg + "\"");
        }
    }
    if (opt.workload != "infer_longformer" && opt.workload != "plan_cold" &&
        opt.workload != "serve_steady") {
        usage(std::cerr);
        throw Error("unknown --workload \"" + opt.workload + "\"");
    }
    MG_CHECK(opt.seconds > 0) << "--seconds must be positive";
    return opt;
}

int
run(const Options &opt)
{
    // Capture-time lint and check run by default in builds without
    // NDEBUG; such a build measures a different program.
    if (assertions_enabled() || capture_lint_enabled() ||
        capture_check_enabled()) {
        std::fprintf(stderr,
                     "mgbench: refusing to measure: build type %s, "
                     "NDEBUG %s, capture lint %s, capture check %s\n",
                     MGBENCH_BUILD_TYPE,
                     assertions_enabled() ? "off" : "on",
                     capture_lint_enabled() ? "on" : "off",
                     capture_check_enabled() ? "on" : "off");
        return 2;
    }
    const std::string manifest = manifest_json(opt);
    std::printf("mgbench %s, seed %s, %g s, trace %d\n",
                opt.workload.c_str(),
                opt.seed ? std::to_string(*opt.seed).c_str() : "default",
                opt.seconds, opt.trace ? 1 : 0);
    std::printf("manifest %s\n", manifest.c_str());

    Tracer untraced(false);
    const Result base = run_workload(opt, untraced);
    std::optional<Tracer> tracer;
    std::optional<Result> traced;
    if (opt.trace) {
        tracer.emplace(true);
        traced = run_workload(opt, *tracer);
    }

    // End-to-end metrics, from the untraced run.
    const double setup_s = median(base.setup_ms) / 1e3;
    const double host_ms = median(base.op_ms);
    const double rss_mb = base.rss_mb;
    const double sim_hbm_mb = base.values.at("sim_hbm_mb");
    std::printf("\nend to end (host clock unless marked simulated):\n");
    char note[128];
    std::snprintf(note, sizeof note, "median of %zu set-ups",
                  base.setup_ms.size());
    print_metric("setup_s", setup_s, "s", note);
    std::snprintf(note, sizeof note, "= %s, median of %zu", base.op_name,
                  base.op_ms.size());
    print_metric("host_ms", host_ms, "ms", note);
    const std::optional<Tail> host_tail = tail_of(base.op_ms);
    if (host_tail) {
        std::snprintf(note, sizeof note, "%s_tail: p%g, %zu beyond",
                      base.op_name, host_tail->pct, host_tail->beyond);
        print_metric("host_ms_tail", host_tail->value, "ms", note);
    }
    print_metric("host_rss_mb", rss_mb, "MB",
                 "peak resident set after set-up and the first op(s)");
    print_metric("sim_hbm_mb", sim_hbm_mb, "MB", "simulated device memory");
    const double fail_ratio =
        base.attempted > 0 ? static_cast<double>(base.failed) /
                                 static_cast<double>(base.attempted)
                           : 0.0;
    std::snprintf(note, sizeof note, "%lld of %lld",
                  static_cast<long long>(base.failed),
                  static_cast<long long>(base.attempted));
    print_metric("fail_ratio", fail_ratio, "ratio", note);
    for (const MetricDef &def : kPerLayer) {
        const std::string name = def.name;
        const auto it = base.values.find(name);
        if (it != base.values.end() &&
            (name.rfind("sim_", 0) == 0 || name.rfind("serve_", 0) == 0)) {
            print_metric(def.name, it->second, def.unit, "simulated");
        }
    }
    for (const std::string &n : base.notes) {
        std::printf("  note: %s\n", n.c_str());
    }

    bool correct = base.failures.empty();
    std::int64_t attempted = base.attempted;
    std::int64_t failed = base.failed;
    std::vector<std::pair<MetricDef, double>> metrics;
    if (!opt.trace) {
        metrics = {{kEndToEnd[0], setup_s},
                   {kEndToEnd[1], host_ms},
                   {kEndToEnd[2], sim_hbm_mb}};
    } else {
        correct = correct && traced->failures.empty();
        attempted += traced->attempted;
        failed += traced->failed;
        const std::vector<Span> &spans = tracer->spans();
        std::map<std::string, double> layer = traced->values;
        // Per op where the workload's ops make the call, else per set-up
        // (slicing and capture happen only in infer_longformer's set-up).
        for (const SpanMetric &m : span_metrics()) {
            std::vector<double> ms =
                per_op_ms(spans, m.spans, traced->op_root);
            if (ms.empty()) {
                ms = per_op_ms(spans, m.spans, "setup");
            }
            layer[m.metric] = median(ms);
        }
        const double run_ms = layer["gpusim.run_ms"] > 0
                                  ? layer["gpusim.run_ms"]
                                  : layer["serve.dispatch_ms"];
        const double tbs = layer["gpusim.thread_blocks"];
        layer["gpusim.ns_per_tb"] = tbs > 0 ? run_ms * 1e6 / tbs : 0.0;
        layer["fail_ratio"] = fail_ratio;
        layer["host_rss_mb"] = rss_mb;
        layer["host_ms_tail"] = host_tail ? host_tail->value : 0.0;
        const double traced_ms = median(traced->op_ms);
        layer["trace.overhead_pct"] =
            host_ms > 0 ? (traced_ms - host_ms) / host_ms * 100.0 : 0.0;
        layer["trace.coverage_pct"] = min_coverage(spans) * 100.0;

        std::printf("\nper layer (traced run; times are medians per op):\n");
        for (const MetricDef &def : kPerLayer) {
            metrics.push_back({def, layer[def.name]});
            print_metric(def.name, layer[def.name], def.unit);
        }
        std::printf("\ntracing overhead (traced - untraced):\n");
        print_metric("host_ms", traced_ms - host_ms, "ms");
        print_metric("setup_s", median(traced->setup_ms) / 1e3 - setup_s,
                     "s");
        const std::string path =
            opt.out_dir + "/trace-" + opt.workload + "-" +
            (opt.seed ? std::to_string(*opt.seed) : "default") + ".json";
        write_trace(path, spans, manifest);
        std::printf("  trace: %zu spans written to %s\n", spans.size(),
                    path.c_str());
        if (layer["trace.coverage_pct"] < kMinCoveragePct) {
            char what[96];
            std::snprintf(what, sizeof what,
                          "child spans cover only %.1f%% of a root span",
                          layer["trace.coverage_pct"]);
            traced->check(false, what);
            correct = false;
            ++failed;
        }
    }
    std::vector<const Result *> results = {&base};
    if (traced) {
        results.push_back(&*traced);
    }
    for (const Result *r : results) {
        for (std::size_t i = 0; i < r->failures.size() && i < 10; ++i) {
            std::printf("  FAILED: %s\n", r->failures[i].c_str());
        }
    }
    std::fflush(stdout);
    print_result_line(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

}  // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mgbench: %s\n", e.what());
        return 2;
    }
}
