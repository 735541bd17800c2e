#include "profiler/export.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.h"

namespace multigrain::prof {

namespace {

void
emit_work(JsonWriter &w, const sim::TbWork &work)
{
    w.begin_object();
    w.field("tensor_flops", work.tensor_flops);
    w.field("cuda_flops", work.cuda_flops);
    w.field("dram_read_bytes", work.dram_read_bytes);
    w.field("dram_write_bytes", work.dram_write_bytes);
    w.field("l2_bytes", work.l2_bytes);
    w.end_object();
}

void
emit_characterization(JsonWriter &w, const sim::KernelCharacterization &k)
{
    w.begin_object();
    w.field("name", k.name);
    w.field("duration_us", k.duration_us);
    // +inf (no DRAM traffic) becomes null via the writer's guard.
    w.field("arithmetic_intensity", k.arithmetic_intensity);
    w.field("tensor_util", k.tensor_util);
    w.field("cuda_util", k.cuda_util);
    w.field("dram_util", k.dram_util);
    w.field("l2_util", k.l2_util);
    w.field("bound", sim::to_string(k.bound));
    w.field("dynamic_j", k.dynamic_j);
    w.end_object();
}

void
emit_phase(JsonWriter &w, const PhaseStats &p)
{
    w.begin_object();
    w.field("name", p.name);
    for (const MetricDef &metric : phase_metric_registry()) {
        w.field(metric.key, metric.get(p));
    }
    w.field("bound", sim::to_string(p.bound));
    w.end_object();
}

void
emit_phase_array(JsonWriter &w, const char *key,
                 const std::vector<PhaseStats> &phases)
{
    w.key(key);
    w.begin_array();
    for (const PhaseStats &p : phases) {
        emit_phase(w, p);
    }
    w.end_array();
}

void
write_json(const ProfiledRun &run, std::ostream &os)
{
    JsonWriter w(os);
    w.begin_object();
    w.field("schema", kProfileSchema);
    w.field("schema_version", kSchemaVersion);
    w.field("device", run.device);
    w.field("total_us", run.total_us);
    w.key("work");
    emit_work(w, run.work);

    // Metric dictionary: lets consumers interpret the phase columns
    // without hardcoding this library's definitions.
    w.key("metrics");
    w.begin_array();
    for (const MetricDef &metric : phase_metric_registry()) {
        w.begin_object();
        w.field("key", metric.key);
        w.field("unit", metric.unit);
        w.field("description", metric.description);
        w.end_object();
    }
    w.end_array();

    emit_phase_array(w, "ops", run.ops);
    emit_phase_array(w, "subphases", run.subphases);
    emit_phase_array(w, "layers", run.layers);

    w.key("kernels");
    w.begin_array();
    for (const auto &k : run.report.kernels) {
        emit_characterization(w, k);
    }
    w.end_array();

    w.key("energy");
    w.begin_object();
    w.field("dynamic_j", run.report.dynamic_j);
    w.field("static_j", run.report.static_j);
    w.field("total_j", run.report.total_j());
    w.field("average_watts", run.report.average_watts());
    w.end_object();

    w.key("host_timers");
    w.begin_array();
    for (const TimerStat &t : run.host_timers) {
        w.begin_object();
        w.field("name", t.name);
        w.field("total_us", t.total_us);
        w.field("count", t.count);
        w.end_object();
    }
    w.end_array();

    const sim::EngineCounters &e = run.engine;
    w.key("engine");
    w.begin_object();
    w.field("units", e.units);
    w.field("crossing_events", e.crossing_events);
    w.field("ready_events", e.ready_events);
    w.field("activation_events", e.activation_events);
    w.field("deadline_events", e.deadline_events);
    w.field("predictions", e.predictions);
    w.field("peak_queue", e.peak_queue);
    w.field("segments", e.segments);
    w.field("segment_hits", e.segment_hits);
    w.field("spliced_kernels", e.spliced_kernels);
    w.end_object();

    w.key("counters");
    w.begin_array();
    for (const ProfiledRun::Counter &c : run.counters) {
        w.begin_object();
        w.field("name", c.name);
        w.field("unit", c.unit);
        w.field("value", c.value);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

}  // namespace

std::string
to_json(const ProfiledRun &run)
{
    std::ostringstream os;
    write_json(run, os);
    return os.str();
}

namespace {

void
csv_number(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << (v > 0 ? "inf" : (v < 0 ? "-inf" : "nan"));
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    os << buf;
}

void
csv_phase_rows(std::ostream &os, const char *group,
               const std::vector<PhaseStats> &phases)
{
    for (const PhaseStats &p : phases) {
        os << group << "," << p.name;
        for (const MetricDef &metric : phase_metric_registry()) {
            os << ",";
            csv_number(os, metric.get(p));
        }
        os << "," << sim::to_string(p.bound) << "\n";
    }
}

}  // namespace

void
write_phase_csv(const ProfiledRun &run, std::ostream &os)
{
    os << "group,name";
    for (const MetricDef &metric : phase_metric_registry()) {
        os << "," << metric.key;
    }
    os << ",bound\n";
    csv_phase_rows(os, "op", run.ops);
    csv_phase_rows(os, "subphase", run.subphases);
    csv_phase_rows(os, "layer", run.layers);
}

void
write_text_file(const std::string &path, const std::string &content)
{
    std::ofstream file(path);
    MG_CHECK(file.good()) << "cannot open " << path << " for writing";
    file << content;
    file.flush();
    MG_CHECK(file.good()) << "failed writing " << path;
}

}  // namespace multigrain::prof
