// mgplan — plan-level analysis over the LaunchGraph IR.
//
// Builds every captured execution plan of the preset matrix — for each
// (model, device, mode) combo the eight composition units below, 320
// plans by default — derives each plan's PlanFacts (core/plan_facts.h)
// once, and reads them three times: lint (races with witness chains,
// advisory schedule lints), mem (the arena plan, re-validated, peak vs
// naive HBM bytes) and check (definedness, liveness, size consistency,
// the arena-aliasing proof). All three land in one manifest-stamped
// `mgplan.report` v1.
//
// The --defect hooks are the gate's self-test: each seeds one concrete
// corruption into a copy of every applicable plan — dropping an init
// write, shrinking a kernel's SizedBuffer annotations, shifting an arena
// offset onto a live slot-mate — and the run must exit 2 with a check
// finding naming the corrupted buffer in every seeded plan.
//
// Exit status: 0 = every plan clean; 2 = a hazard, an aliasing
// violation, a plan that pools nothing, or a check error; 1 = bad
// invocation or internal error (including a defect hook that seeded
// nothing or missed a plan).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/check.h"
#include "core/lint.h"
#include "core/memplan.h"
#include "core/plan_cache.h"
#include "gpusim/device.h"
#include "patterns/slice.h"
#include "profiler/export.h"
#include "profiler/history.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

namespace {

using namespace multigrain;

enum class Defect { kNone, kDropInit, kShrinkSize, kShiftOffset };

/// --defect names, indexed by Defect.
constexpr const char *kDefectNames[] = {"none", "drop-init", "shrink-size",
                                        "shift-offset"};

struct Options {
    std::vector<std::string> models = {"longformer", "qds", "bigbird",
                                       "poolingformer", "tiny"};
    std::vector<std::string> devices = {"a100", "rtx3090"};
    std::vector<std::string> modes = {"multigrain", "coarse-only",
                                      "fine-only", "dense"};
    std::uint64_t seed = 2022;
    std::string report_path;
    Defect defect = Defect::kNone;
    bool quiet = false;
};

/// One analyzed plan: where it came from and what each analyzer said.
struct PlanResult {
    std::string model;
    std::string device;
    std::string mode;
    std::string unit;
    LintReport lint;
    MemPlan mem;
    std::string mem_error;  ///< validate_memplan's message; empty = valid.
    CheckReport check;
    std::string corrupted;  ///< Buffer the defect hook corrupted, if any.
    bool defect_fired = false;

    bool mem_valid() const { return mem_error.empty(); }
    bool unpooled() const { return mem_valid() && mem.pooling_savings() == 0; }
};

cli::Table
flag_table(Options &opt)
{
    return {
        "mgplan",
        "Lints, memory-plans and checks every captured execution plan of "
        "the preset matrix (models x devices x slice modes x eight "
        "composition units) and writes one report of all three.",
        {
            cli::list("--models", "M1,M2",
                      "comma-separated subset of: longformer | qds | "
                      "bigbird | poolingformer | tiny (default: all)",
                      &opt.models),
            cli::list("--devices", "D1,D2",
                      "subset of: a100 | rtx3090 (default: both)",
                      &opt.devices),
            cli::list("--modes", "P1,P2",
                      "subset of: multigrain | coarse-only | fine-only | "
                      "dense (default: all)",
                      &opt.modes),
            cli::number("--seed", "S", "workload sampling seed (default 2022)",
                        &opt.seed),
            cli::text("--report", "PATH",
                      "write the mgplan.report JSON document",
                      &opt.report_path),
            {"--defect", "KIND",
             "seed one corruption into a copy of every applicable plan and "
             "require the checker to catch it: drop-init | shrink-size | "
             "shift-offset",
             [&opt](const std::string &kind) {
                 const auto *it = std::find(std::begin(kDefectNames) + 1,
                                            std::end(kDefectNames), kind);
                 if (it == std::end(kDefectNames)) {
                     throw Error("unknown --defect \"" + kind +
                                 "\" (drop-init | shrink-size | "
                                 "shift-offset)");
                 }
                 opt.defect =
                     static_cast<Defect>(it - std::begin(kDefectNames));
             }},
            cli::toggle("--quiet", "only print the summary", &opt.quiet),
        }};
}

/// Runs `body(model, device, mode)` for every combination of the matrix
/// and clears the process-wide PlanCache after each, so one-shot plans
/// don't accumulate across the full matrix.
template <typename Body>
void
for_each_combo(const Options &opt, Body &&body)
{
    for (const std::string &model : opt.models) {
        for (const std::string &device : opt.devices) {
            for (const std::string &mode : opt.modes) {
                body(model, device, mode);
                PlanCache::instance().clear();
            }
        }
    }
}

// ---- The composition units -------------------------------------------------

/// Appends `a` then `b` onto the same logical streams, so b's copy
/// serializes after a's per stream — the layer-to-layer ordering the
/// runner's replay loop produces, and the ordering that lets consecutive
/// copies pool. Under one buffer namespace when `ns` is given (b consumes
/// what a stashed), else each under a fresh one.
LaunchGraph
compose(const LaunchGraph &a, const std::string &prefix_a,
        const LaunchGraph &b, const std::string &prefix_b,
        const std::string *ns)
{
    LaunchGraph out;
    while (out.num_streams() < std::max(a.num_streams(), b.num_streams())) {
        out.create_stream();
    }
    std::vector<int> identity(static_cast<std::size_t>(out.num_streams()));
    std::iota(identity.begin(), identity.end(), 0);
    out.append(a, prefix_a, &identity, ns);
    out.append(b, prefix_b, &identity, ns);
    return out;
}

/// Builds the eight captured execution plans of one combo — the three
/// layer kinds, a batch-4 inference layer, and the composed units
/// (training step, stacked layers, engine step, double forward) that
/// exercise append's re-namespacing — and calls `fn(unit, graph)` for
/// each. Composed copies take the runner's "F00."/"B00."/"L00." name
/// prefixes, so their kernels still carve into mgprof phases. Graphs are
/// only valid for the duration of the callback.
void
for_each_plan_unit(
    std::uint64_t seed, const std::string &model_name,
    const sim::DeviceSpec &device, const std::string &mode_name,
    const std::function<void(const std::string &, const LaunchGraph &)>
        &fn)
{
    const ModelConfig model = model_config_by_name(model_name);
    const SliceMode mode = slice_mode_by_name(mode_name);

    Rng rng(seed);
    const WorkloadSample sample = sample_for_model(rng, model);
    const TransformerRunner runner(model, mode, sample, /*batch=*/1);
    const TransformerRunner batched(model, mode, sample, /*batch=*/4);

    using LayerKind = TransformerRunner::LayerKind;
    const LaunchGraph &infer =
        *runner.layer_graph(device, LayerKind::kInference);
    const LaunchGraph &train_fwd =
        *runner.layer_graph(device, LayerKind::kTrainForward);
    const LaunchGraph &train_bwd =
        *runner.layer_graph(device, LayerKind::kTrainBackward);
    const std::string step_ns = "step";

    // Single captured plans, exactly as the runner replays them.
    fn("layer.infer.b1", infer);
    fn("layer.infer.b4",
       *batched.layer_graph(device, LayerKind::kInference));
    fn("layer.train_fwd.b1", train_fwd);
    fn("layer.train_bwd.b1", train_bwd);
    // A training step shares one namespace, so the backward reads the
    // forward's stashed activations while both sides' scratch pools.
    fn("layer.train_step.b1",
       compose(train_fwd, "F00.", train_bwd, "B00.", &step_ns));
    // Two stacked inference layers, each with fresh intermediates:
    // layer 1's scratch reuses layer 0's arena slots once they drain.
    fn("model.infer.x2.b1", compose(infer, "L00.", infer, "L01.", nullptr));

    // Attention-engine units: a forward+backward step sharing one
    // namespace (backward consumes the stashed probabilities), and a
    // double forward.
    const LaunchGraph &fwd = *runner.attention().forward_graph(device);
    const LaunchGraph &bwd = *runner.attention().backward_graph(device);
    fn("engine.step.b1", compose(fwd, "F00.", bwd, "B00.", &step_ns));
    fn("engine.fwd.x2.b1", compose(fwd, "L00.", fwd, "L01.", nullptr));
}

// ---- Seeded-defect corruption hooks ----------------------------------------

/// drop-init: finds a read of a plan-local undeclared buffer that
/// exactly one write is ordered before, and removes that write from
/// `copy` (a copy of the graph `facts` describes) — the exact bug of a
/// phase builder forgetting to record its store. Returns the corrupted
/// buffer's name, or "" when the plan has no candidate.
std::string
seed_drop_init(const PlanFacts &facts, LaunchGraph &copy)
{
    for (const BufferFacts &b : facts.buffers()) {
        if (!b.plan_local || b.declared(sim::kBufInput | sim::kBufZeroInit)) {
            continue;  // Declared inbound: dropping a write is legal.
        }
        for (const BufferAccess &r : b.accesses) {
            std::vector<int> definers;
            for (const BufferAccess &w : b.accesses) {
                if (r.mode == AccessMode::kRead &&
                    w.mode == AccessMode::kWrite && w.node != r.node &&
                    facts.ordered(w.node, r.node)) {
                    definers.push_back(w.node);
                }
            }
            if (definers.size() != 1) {
                continue;
            }
            sim::KernelLaunch &l = copy.launch_for_test(definers.front());
            const auto i = static_cast<std::size_t>(
                std::find(l.writes.begin(), l.writes.end(), b.id) -
                l.writes.begin());
            const auto erase_at = [i](auto &v) {
                if (i < v.size()) {
                    v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
                }
            };
            erase_at(l.writes);
            erase_at(l.write_bytes);
            erase_at(l.write_flags);
            return b.name;
        }
    }
    return "";
}

/// shrink-size: collapses every SizedBuffer annotation on the kernel
/// with the largest annotated footprint to a single byte — the exact
/// bug of a plan site sizing a buffer with the wrong dimensions.
/// Returns the name of the buffer the size finding will name, or "".
std::string
seed_shrink_size(LaunchGraph &graph)
{
    const std::vector<LaunchGraphNode> &nodes = graph.nodes();
    int victim = -1;
    std::uint64_t best = 0;
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        const sim::KernelLaunch &l = nodes[n].launch;
        std::uint64_t sum = 0;
        for (const auto *bytes :
             {&l.read_bytes, &l.accum_bytes, &l.write_bytes}) {
            for (const std::uint64_t b : *bytes) {
                sum += b;
            }
        }
        if (sum > best && l.total_work().mem_bytes() > 0) {
            best = sum;
            victim = static_cast<int>(n);
        }
    }
    if (victim < 0) {
        return "";
    }
    sim::KernelLaunch &l = graph.launch_for_test(victim);
    // Post-shrink every sized entry is 1 byte, so the finding will name
    // the kernel's *first* sized buffer in reads/accums/writes order —
    // predict exactly that one so the self-check stays a name match.
    sim::BufferId named = sim::kNoBuffer;
    const auto shrink = [&named](const std::vector<sim::BufferId> &ids,
                                 std::vector<std::uint64_t> &bytes) {
        for (std::size_t i = 0; i < bytes.size(); ++i) {
            if (bytes[i] == 0) {
                continue;
            }
            bytes[i] = 1;
            if (named == sim::kNoBuffer && i < ids.size()) {
                named = ids[i];
            }
        }
    };
    shrink(l.reads, l.read_bytes);
    shrink(l.accums, l.accum_bytes);
    shrink(l.writes, l.write_bytes);
    return named == sim::kNoBuffer ? "" : sim::buffer_name(named);
}

/// shift-offset: moves one pooled buffer's arena offset onto a live
/// slot-mate's — two buffers that interfere (some accesses unordered)
/// made to share bytes, the exact bug of an off-by-one in the planner's
/// first-fit walk. Mutates `plan`; returns the shifted buffer's name,
/// or "" when every pooled pair is strictly ordered (single-stream
/// plans).
std::string
seed_shift_offset(const PlanFacts &facts, MemPlan &plan)
{
    const auto interferes = [&](const MemPlanBuffer &a,
                                const MemPlanBuffer &b) {
        for (const int u : a.uses) {
            for (const int v : b.uses) {
                if (u != v && !facts.ordered(u, v) && !facts.ordered(v, u)) {
                    return true;
                }
            }
        }
        return false;
    };
    for (std::size_t i = 0; i < plan.buffers.size(); ++i) {
        const MemPlanBuffer &a = plan.buffers[i];
        if (a.cls != BufferClass::kPooled || a.bytes == 0) {
            continue;
        }
        for (std::size_t j = i + 1; j < plan.buffers.size(); ++j) {
            MemPlanBuffer &b = plan.buffers[j];
            if (b.cls != BufferClass::kPooled || b.bytes == 0) {
                continue;
            }
            const bool disjoint = a.offset + a.bytes <= b.offset ||
                                  b.offset + b.bytes <= a.offset;
            if (!disjoint || !interferes(a, b)) {
                continue;
            }
            b.offset = a.offset;
            return b.name;
        }
    }
    return "";
}

// ---- Analysis --------------------------------------------------------------

PlanResult
analyze(const Options &opt, const sim::DeviceSpec &device,
        const LaunchGraph &graph)
{
    PlanResult r;
    LaunchGraph corrupted;
    const LaunchGraph *subject = &graph;
    if (opt.defect == Defect::kDropInit ||
        opt.defect == Defect::kShrinkSize) {
        corrupted = graph;
        r.corrupted = opt.defect == Defect::kDropInit
                          ? seed_drop_init(graph, corrupted)
                          : seed_shrink_size(corrupted);
        subject = &corrupted;
    }

    const PlanFacts facts(*subject);
    LintOptions lint_options;
    lint_options.device = &device;
    r.lint = lint_graph(facts, lint_options);
    r.mem = plan_memory(facts);
    try {
        validate_memplan(facts, r.mem);
    } catch (const MemPlanError &e) {
        r.mem_error = e.what();
    }

    CheckOptions check_options;
    check_options.memplan = &r.mem;
    MemPlan shifted;
    if (opt.defect == Defect::kShiftOffset) {
        shifted = r.mem;
        r.corrupted = seed_shift_offset(facts, shifted);
        check_options.memplan = &shifted;
    }
    r.check = check_graph(facts, check_options);

    if (!r.corrupted.empty()) {
        for (const CheckFinding &f : r.check.findings) {
            if (f.severity == CheckSeverity::kError &&
                f.buffer == r.corrupted) {
                r.defect_fired = true;
                break;
            }
        }
    }
    return r;
}

// ---- Output ----------------------------------------------------------------

void
print_plan(const PlanResult &r, const Options &opt)
{
    const bool failed = r.lint.hazards() > 0 || !r.mem_valid() ||
                        r.unpooled() || !r.check.clean();
    if (opt.quiet || (!failed && r.corrupted.empty())) {
        return;
    }
    std::printf("%s | %s | %s | %s: %zu nodes — lint %s; mem naive %llu,"
                " peak %llu (%llu saved)%s%s; check %s",
                r.model.c_str(), r.device.c_str(), r.mode.c_str(),
                r.unit.c_str(), r.lint.num_nodes, r.lint.summary().c_str(),
                static_cast<unsigned long long>(r.mem.naive_hbm_bytes()),
                static_cast<unsigned long long>(r.mem.peak_hbm_bytes()),
                static_cast<unsigned long long>(r.mem.naive_hbm_bytes() -
                                                r.mem.peak_hbm_bytes()),
                r.mem_valid() ? "" : " INVALID: ", r.mem_error.c_str(),
                r.check.summary().c_str());
    if (!r.corrupted.empty()) {
        std::printf(" [corrupted %s: %s]", r.corrupted.c_str(),
                    r.defect_fired ? "caught" : "MISSED");
    }
    std::printf("\n");
    for (const LintFinding &f : r.lint.findings) {
        if (is_hazard(f.kind)) {
            std::printf("    [lint %s] %s\n", to_string(f.severity),
                        f.message.c_str());
        }
    }
    for (const CheckFinding &f : r.check.findings) {
        std::printf("    [check %s] %s\n", to_string(f.severity),
                    f.message.c_str());
    }
}

/// Writes one lint or check finding (both carry the same fields).
template <typename Finding>
void
write_finding(JsonWriter &w, const Finding &f)
{
    w.begin_object();
    w.field("kind", to_string(f.kind));
    w.field("severity", to_string(f.severity));
    w.field("node_a", f.node_a);
    w.field("node_b", f.node_b);
    w.field("buffer", f.buffer);
    const auto chain = [&w](const char *key, const std::vector<int> &nodes) {
        w.key(key);
        w.begin_array();
        for (const int n : nodes) {
            w.value(n);
        }
        w.end_array();
    };
    chain("witness_a", f.witness_a);
    chain("witness_b", f.witness_b);
    w.field("message", f.message);
    w.end_object();
}

/// Matrix-wide totals, shared by the console summary and the report.
struct Totals {
    std::size_t plans = 0;
    std::size_t hazards = 0;
    std::size_t lint_warnings = 0;
    std::size_t lint_infos = 0;
    std::size_t invalid = 0;
    std::size_t unpooled = 0;
    std::uint64_t naive = 0;
    std::uint64_t peak = 0;
    std::size_t check_errors = 0;
    std::size_t check_warnings = 0;
    std::size_t corrupted = 0;
    std::size_t caught = 0;

    explicit Totals(const std::vector<PlanResult> &all)
    {
        plans = all.size();
        for (const PlanResult &r : all) {
            hazards += r.lint.hazards();
            lint_warnings += r.lint.count(LintSeverity::kWarning);
            lint_infos += r.lint.count(LintSeverity::kInfo);
            invalid += r.mem_valid() ? 0 : 1;
            unpooled += r.unpooled() ? 1 : 0;
            naive += r.mem.naive_hbm_bytes();
            peak += r.mem.peak_hbm_bytes();
            check_errors += r.check.errors();
            check_warnings += r.check.count(CheckSeverity::kWarning);
            if (!r.corrupted.empty()) {
                ++corrupted;
                caught += r.defect_fired ? 1 : 0;
            }
        }
    }
    double pooling_savings() const
    {
        return naive == 0 ? 0.0
                          : 1.0 - static_cast<double>(peak) /
                                      static_cast<double>(naive);
    }
};

void
write_report(const std::string &path, const Options &opt,
             const std::vector<PlanResult> &all, const Totals &t)
{
    std::ofstream file(path);
    MG_CHECK(file.good()) << "cannot open " << path << " for writing";
    JsonWriter w(file);
    const auto count = [&w](const char *key, std::uint64_t n) {
        w.field(key, static_cast<std::int64_t>(n));
    };
    w.begin_object();
    w.field("schema", "mgplan.report");
    w.field("version", 1);
    w.key("manifest");
    prof::write_manifest(w, prof::RunManifest::collect());
    w.field("defect", kDefectNames[static_cast<int>(opt.defect)]);
    w.key("plans");
    w.begin_array();
    for (const PlanResult &r : all) {
        w.begin_object();
        w.field("model", r.model);
        w.field("device", r.device);
        w.field("mode", r.mode);
        w.field("unit", r.unit);
        count("nodes", r.lint.num_nodes);
        w.field("streams", r.lint.num_streams);
        count("edges", r.lint.num_edges);
        count("buffers", r.check.num_buffers);

        w.key("lint");
        w.begin_object();
        count("hazards", r.lint.hazards());
        count("warnings", r.lint.count(LintSeverity::kWarning));
        count("infos", r.lint.count(LintSeverity::kInfo));
        w.key("findings");
        w.begin_array();
        for (const LintFinding &f : r.lint.findings) {
            write_finding(w, f);
        }
        w.end_array();
        w.end_object();

        w.key("mem");
        w.begin_object();
        w.field("valid", r.mem_valid());
        if (!r.mem_valid()) {
            w.field("error", r.mem_error);
        }
        count("arena_bytes", r.mem.arena_bytes);
        count("external_bytes", r.mem.external_bytes);
        count("naive_hbm_bytes", r.mem.naive_hbm_bytes());
        count("peak_hbm_bytes", r.mem.peak_hbm_bytes());
        w.field("pooling_savings", r.mem.pooling_savings());
        w.key("arena");
        w.begin_array();
        for (const MemPlanBuffer &b : r.mem.buffers) {
            if (b.cls != BufferClass::kPooled) {
                continue;
            }
            w.begin_object();
            w.field("name", b.name);
            count("bytes", b.bytes);
            count("offset", b.offset);
            w.field("first_use", b.first_use);
            w.field("last_use", b.last_use);
            w.end_object();
        }
        w.end_array();
        w.end_object();

        w.key("check");
        w.begin_object();
        count("errors", r.check.errors());
        count("warnings", r.check.count(CheckSeverity::kWarning));
        if (r.check.max_size_ratio > 0) {
            w.field("min_size_ratio", r.check.min_size_ratio);
            w.field("max_size_ratio", r.check.max_size_ratio);
        }
        if (!r.corrupted.empty()) {
            w.field("corrupted", r.corrupted);
            w.field("defect_fired", r.defect_fired);
        }
        w.key("findings");
        w.begin_array();
        for (const CheckFinding &f : r.check.findings) {
            write_finding(w, f);
        }
        w.end_array();
        w.end_object();
        w.end_object();
    }
    w.end_array();

    w.key("summary");
    w.begin_object();
    count("plans", t.plans);
    count("hazards", t.hazards);
    count("lint_warnings", t.lint_warnings);
    count("lint_infos", t.lint_infos);
    count("invalid", t.invalid);
    count("unpooled", t.unpooled);
    count("naive_hbm_bytes", t.naive);
    count("peak_hbm_bytes", t.peak);
    w.field("pooling_savings", t.pooling_savings());
    count("check_errors", t.check_errors);
    count("check_warnings", t.check_warnings);
    count("corrupted", t.corrupted);
    count("caught", t.caught);
    w.end_object();
    w.end_object();
}

/// Reads `path` back and parses it, so a truncated or malformed report
/// fails the run instead of silently passing CI.
void
validate_report(const std::string &path, std::size_t plans)
{
    std::ifstream file(path);
    MG_CHECK(file.good()) << "cannot reopen " << path;
    std::ostringstream buffer;
    buffer << file.rdbuf();
    const JsonValue doc = json_parse(buffer.str());
    MG_CHECK(doc.is_object()) << path << ": top level is not an object";
    MG_CHECK(doc.at("schema").as_string() == "mgplan.report")
        << path << ": schema is not \"mgplan.report\"";
    MG_CHECK(doc.at("manifest").is_object())
        << path << ": manifest is not an object";
    MG_CHECK(doc.at("plans").is_array() &&
             doc.at("plans").array.size() == plans)
        << path << ": plans is not an array of " << plans;
}

int
run(const Options &opt)
{
    // Capture-time enforcement would reject the very plans a defect run
    // (or a regression) needs reported with witnesses rather than die on
    // the first one; this tool's job is to report, so capture everything.
    setenv("MULTIGRAIN_LINT", "0", 1);
    setenv("MULTIGRAIN_CHECK", "0", 1);

    std::vector<PlanResult> all;
    for_each_combo(
        opt,
        [&](const std::string &model, const std::string &device_name,
            const std::string &mode) {
            const sim::DeviceSpec device =
                sim::device_spec_by_name(device_name);
            for_each_plan_unit(
                opt.seed, model, device, mode,
                [&](const std::string &unit, const LaunchGraph &graph) {
                    PlanResult r = analyze(opt, device, graph);
                    r.model = model;
                    r.device = device_name;
                    r.mode = mode;
                    r.unit = unit;
                    print_plan(r, opt);
                    all.push_back(std::move(r));
                });
        });

    const Totals t(all);
    std::printf("mgplan: %zu plan%s\n", t.plans, t.plans == 1 ? "" : "s");
    std::printf("  lint:  %zu hazard(s), %zu warning(s), %zu info(s)\n",
                t.hazards, t.lint_warnings, t.lint_infos);
    std::printf("  mem:   naive %llu bytes, peak %llu bytes (%llu saved,"
                " %.1f%%), %zu invalid, %zu unpooled\n",
                static_cast<unsigned long long>(t.naive),
                static_cast<unsigned long long>(t.peak),
                static_cast<unsigned long long>(t.naive - t.peak),
                100.0 * t.pooling_savings(), t.invalid, t.unpooled);
    std::printf("  check: %zu error(s), %zu warning(s)", t.check_errors,
                t.check_warnings);
    if (opt.defect != Defect::kNone) {
        std::printf(", defect %s seeded into %zu (%zu missed)",
                    kDefectNames[static_cast<int>(opt.defect)], t.corrupted,
                    t.corrupted - t.caught);
    }
    std::printf("\n");

    if (!opt.report_path.empty()) {
        write_report(opt.report_path, opt, all, t);
        validate_report(opt.report_path, all.size());
        if (!opt.quiet) {
            std::printf("wrote %s\n", opt.report_path.c_str());
        }
    }

    if (opt.defect != Defect::kNone &&
        (t.corrupted == 0 || t.caught < t.corrupted)) {
        // A hook that never applied, or a seeded bug the checker missed,
        // is an internal error — not a finding.
        std::fprintf(stderr,
                     "mgplan: defect self-test failed: %zu seeded, %zu"
                     " missed\n",
                     t.corrupted, t.corrupted - t.caught);
        return 1;
    }
    const bool failed = t.hazards > 0 || t.invalid > 0 || t.unpooled > 0 ||
                        t.check_errors > 0;
    return failed ? 2 : 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    Options opt;
    return cli::main(flag_table(opt), argc, argv,
                     [&opt] { return run(opt); });
}
