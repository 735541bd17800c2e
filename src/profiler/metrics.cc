#include "profiler/metrics.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <limits>
#include <map>
#include <ostream>

#include "common/error.h"

namespace multigrain::prof {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Decomposed kernel name: [<tag>.][attn.]<op>[.<part>...].
struct NameParts {
    std::string layer;     ///< "L07" style tag, empty when absent.
    std::string op;        ///< "sddmm", "softmax", "gemm", ...
    std::string subphase;  ///< op plus one more segment when present.
};

bool
is_layer_tag(const std::string &seg)
{
    if (seg.size() < 2 || !std::isupper(static_cast<unsigned char>(seg[0]))) {
        return false;
    }
    for (std::size_t i = 1; i < seg.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(seg[i]))) {
            return false;
        }
    }
    return true;
}

NameParts
split_name(const std::string &name)
{
    std::vector<std::string> segs;
    std::size_t pos = 0;
    while (pos <= name.size()) {
        const std::size_t dot = name.find('.', pos);
        if (dot == std::string::npos) {
            segs.push_back(name.substr(pos));
            break;
        }
        segs.push_back(name.substr(pos, dot - pos));
        pos = dot + 1;
    }

    NameParts parts;
    std::size_t i = 0;
    if (i < segs.size() && is_layer_tag(segs[i])) {
        parts.layer = segs[i];
        ++i;
    }
    if (i < segs.size() && segs[i] == "attn") {
        ++i;
    }
    if (i < segs.size() && !segs[i].empty()) {
        parts.op = segs[i];
        parts.subphase = parts.op;
        if (i + 1 < segs.size() && !segs[i + 1].empty()) {
            parts.subphase += "." + segs[i + 1];
        }
    } else {
        parts.op = name;  // No dots at all: the name is its own phase.
        parts.subphase = name;
    }
    return parts;
}

/// Incremental accumulator behind PhaseStats.
struct Accum {
    PhaseStats stats;
    double min_start = kInf;
    double max_end = -kInf;
    double weighted_occupancy = 0;  // sum(duration * occupancy fraction)

    void add(const sim::KernelStats &k, const sim::DeviceSpec &device)
    {
        stats.kernel_count += 1;
        stats.busy_us += k.duration_us();
        stats.work += k.work;
        min_start = std::min(min_start, k.start_us);
        max_end = std::max(max_end, k.end_us);
        const double capacity = static_cast<double>(device.num_sms) *
                                std::max(1, k.occupancy_per_sm);
        const double frac =
            capacity > 0
                ? std::min(1.0, k.avg_concurrency / capacity)
                : 0;
        weighted_occupancy += frac * k.duration_us();
    }

    PhaseStats finish(const sim::DeviceSpec &device) const
    {
        PhaseStats out = stats;
        if (out.kernel_count == 0) {
            return out;
        }
        out.start_us = min_start;
        out.end_us = max_end;
        out.span_us = std::max(0.0, max_end - min_start);
        out.overlap = out.span_us > 0 ? out.busy_us / out.span_us : 0;
        out.achieved_occupancy =
            out.busy_us > 0 ? weighted_occupancy / out.busy_us : 0;

        const sim::Roofline r =
            sim::classify_roofline(out.work, out.span_us, device);
        out.tensor_util = r.tensor_util;
        out.cuda_util = r.cuda_util;
        out.dram_util = r.dram_util;
        out.l2_util = r.l2_util;
        out.bound = r.bound;
        return out;
    }
};

std::vector<PhaseStats>
finish_groups(const std::map<std::string, Accum> &groups,
              const sim::DeviceSpec &device)
{
    std::vector<PhaseStats> out;
    out.reserve(groups.size());
    for (const auto &[name, accum] : groups) {
        PhaseStats stats = accum.finish(device);
        stats.name = name;
        out.push_back(std::move(stats));
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const PhaseStats &a, const PhaseStats &b) {
                         return a.start_us < b.start_us;
                     });
    return out;
}

const PhaseStats *
find_in(const std::vector<PhaseStats> &phases, const std::string &name)
{
    for (const PhaseStats &p : phases) {
        if (p.name == name) {
            return &p;
        }
    }
    return nullptr;
}

}  // namespace

const PhaseStats *
ProfiledRun::find_op(const std::string &name) const
{
    return find_in(ops, name);
}

const PhaseStats *
ProfiledRun::find_subphase(const std::string &name) const
{
    return find_in(subphases, name);
}

const PhaseStats *
ProfiledRun::find_layer(const std::string &name) const
{
    return find_in(layers, name);
}

PhaseStats
carve_prefix(const sim::SimResult &result, const sim::DeviceSpec &device,
             const std::string &prefix)
{
    Accum accum;
    for (const auto &k : result.kernels) {
        if (k.name.rfind(prefix, 0) == 0) {
            accum.add(k, device);
        }
    }
    PhaseStats stats = accum.finish(device);
    stats.name = prefix;
    return stats;
}

ProfiledRun
profile(const sim::SimResult &result, const sim::DeviceSpec &device)
{
    ProfiledRun run;
    run.device = device.name;
    run.total_us = result.total_us;
    run.work = result.work;
    run.engine = result.engine;
    run.report = sim::characterize(result, device);

    std::map<std::string, Accum> by_op;
    std::map<std::string, Accum> by_subphase;
    std::map<std::string, Accum> by_layer;
    for (const auto &k : result.kernels) {
        const NameParts parts = split_name(k.name);
        by_op[parts.op].add(k, device);
        by_subphase[parts.subphase].add(k, device);
        if (!parts.layer.empty()) {
            by_layer[parts.layer].add(k, device);
        }
    }
    run.ops = finish_groups(by_op, device);
    run.subphases = finish_groups(by_subphase, device);
    run.layers = finish_groups(by_layer, device);
    run.host_timers = host_timer_stats();
    return run;
}

const std::vector<MetricDef> &
phase_metric_registry()
{
    static const std::vector<MetricDef> *registry =
        new std::vector<MetricDef>{
            {"kernels", "count", "number of kernels carved into the phase",
             [](const PhaseStats &p) {
                 return static_cast<double>(p.kernel_count);
             }},
            {"span_us", "us",
             "wall-clock extent (max end - min start) of the phase",
             [](const PhaseStats &p) { return p.span_us; }},
            {"busy_us", "us", "sum of member kernel durations",
             [](const PhaseStats &p) { return p.busy_us; }},
            {"overlap", "ratio",
             "busy/span; >1 means multi-stream overlap",
             [](const PhaseStats &p) { return p.overlap; }},
            {"start_us", "us", "earliest kernel start in the phase",
             [](const PhaseStats &p) { return p.start_us; }},
            {"end_us", "us", "latest kernel end in the phase",
             [](const PhaseStats &p) { return p.end_us; }},
            {"tensor_flops", "flop", "tensor-pipe work in the phase",
             [](const PhaseStats &p) { return p.work.tensor_flops; }},
            {"cuda_flops", "flop", "CUDA-pipe work in the phase",
             [](const PhaseStats &p) { return p.work.cuda_flops; }},
            {"dram_bytes", "byte", "DRAM traffic of the phase",
             [](const PhaseStats &p) { return p.work.dram_bytes(); }},
            {"l2_bytes", "byte", "additional L2-served traffic",
             [](const PhaseStats &p) { return p.work.l2_bytes; }},
            {"tensor_util", "ratio",
             "tensor-pipe utilization over the span",
             [](const PhaseStats &p) { return p.tensor_util; }},
            {"cuda_util", "ratio", "CUDA-pipe utilization over the span",
             [](const PhaseStats &p) { return p.cuda_util; }},
            {"dram_util", "ratio", "DRAM utilization over the span",
             [](const PhaseStats &p) { return p.dram_util; }},
            {"l2_util", "ratio", "L2 utilization over the span",
             [](const PhaseStats &p) { return p.l2_util; }},
            {"achieved_occupancy", "ratio",
             "duration-weighted resident-TB fraction of capacity",
             [](const PhaseStats &p) { return p.achieved_occupancy; }},
        };
    return *registry;
}

namespace {

void
print_phase_rows(const std::vector<PhaseStats> &phases, const char *title,
                 std::ostream &os)
{
    if (phases.empty()) {
        return;
    }
    char line[256];
    std::snprintf(line, sizeof line,
                  "%-24s %4s %10s %10s %7s %8s %6s %7s %9s\n", title, "#k",
                  "span us", "busy us", "ovlp", "dram MB", "occ%",
                  "dram%", "bound");
    os << line;
    for (const PhaseStats &p : phases) {
        std::snprintf(line, sizeof line,
                      "%-24s %4d %10.1f %10.1f %6.2fx %8.1f %5.0f%% "
                      "%6.0f%% %9s\n",
                      p.name.substr(0, 24).c_str(), p.kernel_count,
                      p.span_us, p.busy_us, p.overlap,
                      p.work.dram_bytes() / 1e6,
                      100 * p.achieved_occupancy, 100 * p.dram_util,
                      sim::to_string(p.bound));
        os << line;
    }
}

}  // namespace

void
print_phases(const ProfiledRun &run, std::ostream &os)
{
    print_phase_rows(run.ops, "phase", os);
    os << "\n";
    print_phase_rows(run.subphases, "subphase", os);
    if (!run.layers.empty()) {
        os << "\n";
        // Layers are numerous (24 for Longformer-large); print the
        // slowest few plus an aggregate line.
        std::vector<PhaseStats> by_span = run.layers;
        std::stable_sort(by_span.begin(), by_span.end(),
                         [](const PhaseStats &a, const PhaseStats &b) {
                             return a.span_us > b.span_us;
                         });
        if (by_span.size() > 8) {
            by_span.resize(8);
        }
        print_phase_rows(by_span, "layer (top by span)", os);
    }
    char line[256];
    std::snprintf(line, sizeof line,
                  "total %.1f us | dram %.3f GB | tensor %.3f GF | cuda "
                  "%.3f GF\n",
                  run.total_us, run.work.dram_bytes() / 1e9,
                  run.work.tensor_flops / 1e9, run.work.cuda_flops / 1e9);
    os << line;
}

}  // namespace multigrain::prof
