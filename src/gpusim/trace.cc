#include "gpusim/trace.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/json.h"

namespace multigrain::sim {

namespace {

/// Lane id for the phase marker slices, clear of any real stream id.
constexpr int kPhaseLane = 1000;

void
event_header(JsonWriter &w, const char *ph, int tid, int pid = 0)
{
    w.begin_object();
    w.field("ph", ph);
    w.field("pid", pid);
    w.field("tid", tid);
}

void
emit_lane_names(JsonWriter &w, const SimResult &result,
                const std::vector<PhaseMark> &phases)
{
    std::set<int> streams;
    for (const auto &k : result.kernels) {
        streams.insert(k.stream);
    }
    for (const int s : streams) {
        event_header(w, "M", s);
        w.field("name", "thread_name");
        w.key("args");
        w.begin_object();
        w.field("name", "stream " + std::to_string(s));
        w.end_object();
        w.end_object();
    }
    if (!phases.empty()) {
        event_header(w, "M", kPhaseLane);
        w.field("name", "thread_name");
        w.key("args");
        w.begin_object();
        w.field("name", "phases");
        w.end_object();
        w.end_object();
    }
}

void
emit_kernel_slices(JsonWriter &w, const SimResult &result,
                   double offset_us = 0, int pid = 0)
{
    for (const auto &k : result.kernels) {
        event_header(w, "X", k.stream, pid);
        w.field("name", k.name);
        w.field("ts", k.start_us + offset_us);
        w.field("dur", k.duration_us());
        w.key("args");
        w.begin_object();
        w.field("thread_blocks", static_cast<std::int64_t>(k.num_tbs));
        w.field("tensor_gflops", k.work.tensor_flops / 1e9);
        w.field("cuda_gflops", k.work.cuda_flops / 1e9);
        w.field("dram_mb", k.work.dram_bytes() / 1e6);
        w.field("avg_concurrency", k.avg_concurrency);
        w.end_object();
        w.end_object();
    }
}

/// One arrow per cross-stream dependency edge: start ("s") where the
/// awaited kernel ended, finish ("f") where the waiter began. Same-stream
/// edges are implicit in the lane ordering and stay invisible.
void
emit_flow_events(JsonWriter &w, const SimResult &result)
{
    int next_id = 1;
    for (std::size_t i = 0; i < result.kernels.size(); ++i) {
        const KernelStats &k = result.kernels[i];
        for (const int dep : k.deps) {
            MG_CHECK(dep >= 0 &&
                     static_cast<std::size_t>(dep) < result.kernels.size())
                << "dependency index out of range";
            const KernelStats &d =
                result.kernels[static_cast<std::size_t>(dep)];
            if (d.stream == k.stream) {
                continue;
            }
            const int id = next_id++;
            event_header(w, "s", d.stream);
            w.field("cat", "dep");
            w.field("name", "join");
            w.field("id", id);
            w.field("ts", d.end_us);
            w.end_object();
            event_header(w, "f", k.stream);
            w.field("cat", "dep");
            w.field("name", "join");
            w.field("id", id);
            w.field("bp", "e");
            w.field("ts", std::max(k.start_us, d.end_us));
            w.end_object();
        }
    }
}

void
emit_counter(JsonWriter &w, const char *counter, const char *arg, double ts,
             double value)
{
    event_header(w, "C", 0);
    w.field("name", counter);
    w.field("ts", ts);
    w.key("args");
    w.begin_object();
    w.field(arg, value);
    w.end_object();
    w.end_object();
}

/// Piecewise-constant counters sampled at kernel boundaries: each kernel
/// contributes its average rate (work / duration) over [start, end).
void
emit_counter_tracks(JsonWriter &w, const SimResult &result,
                    const DeviceSpec &device)
{
    std::vector<double> bounds;
    for (const auto &k : result.kernels) {
        if (k.duration_us() > 0) {
            bounds.push_back(k.start_us);
            bounds.push_back(k.end_us);
        }
    }
    if (bounds.empty()) {
        return;
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

    const double dram_peak = device.dram_bytes_per_us();
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
        const double lo = bounds[i];
        const double hi = bounds[i + 1];
        double dram_rate = 0;
        double resident = 0;
        for (const auto &k : result.kernels) {
            if (k.duration_us() <= 0 || k.start_us >= hi ||
                k.end_us <= lo) {
                continue;
            }
            dram_rate += k.work.dram_bytes() / k.duration_us();
            resident += k.avg_concurrency;
        }
        emit_counter(w, "dram_util", "util", lo,
                     dram_peak > 0 ? dram_rate / dram_peak : 0);
        emit_counter(w, "resident_tbs", "tbs", lo, resident);
    }
    emit_counter(w, "dram_util", "util", bounds.back(), 0);
    emit_counter(w, "resident_tbs", "tbs", bounds.back(), 0);
}

void
emit_phase_marks(JsonWriter &w, const std::vector<PhaseMark> &phases)
{
    for (const PhaseMark &mark : phases) {
        event_header(w, "X", kPhaseLane);
        w.field("name", mark.name);
        w.field("ts", mark.start_us);
        w.field("dur", std::max(0.0, mark.end_us - mark.start_us));
        w.end_object();
    }
}

}  // namespace

void
write_chrome_trace_file(const SimResult &result, const std::string &path,
                        const DeviceSpec &device,
                        const std::vector<PhaseMark> &phases)
{
    std::ofstream file(path);
    MG_CHECK(file.good()) << "cannot open trace file " << path;
    {
        JsonWriter w(file);
        w.begin_object();
        w.field("displayTimeUnit", "ns");
        w.key("traceEvents");
        w.begin_array();
        emit_lane_names(w, result, phases);
        emit_kernel_slices(w, result);
        emit_flow_events(w, result);
        emit_counter_tracks(w, result, device);
        emit_phase_marks(w, phases);
        w.end_array();
        w.end_object();
    }
    file.flush();
    MG_CHECK(file.good()) << "failed writing trace file " << path;
}

void
append_kernel_slices(JsonWriter &w, const SimResult &result,
                     double offset_us, int pid)
{
    emit_kernel_slices(w, result, offset_us, pid);
}

}  // namespace multigrain::sim
