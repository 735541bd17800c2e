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
emit_header(JsonWriter &w, const char *schema)
{
    w.field("schema", schema);
    w.field("schema_version", kSchemaVersion);
}

void
emit_kernel_stats(JsonWriter &w, const sim::KernelStats &k)
{
    w.begin_object();
    w.field("name", k.name);
    w.field("stream", k.stream);
    w.field("num_tbs", static_cast<std::int64_t>(k.num_tbs));
    w.field("occupancy_per_sm", k.occupancy_per_sm);
    w.field("ready_us", k.ready_us);
    w.field("start_us", k.start_us);
    w.field("end_us", k.end_us);
    w.field("avg_concurrency", k.avg_concurrency);
    w.key("deps");
    w.begin_array();
    for (const int dep : k.deps) {
        w.value(dep);
    }
    w.end_array();
    w.key("work");
    emit_work(w, k.work);
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

}  // namespace

void
write_json(const sim::SimResult &result, std::ostream &os)
{
    JsonWriter w(os);
    w.begin_object();
    emit_header(w, kSimResultSchema);
    w.field("total_us", result.total_us);
    w.key("work");
    emit_work(w, result.work);
    w.key("kernels");
    w.begin_array();
    for (const auto &k : result.kernels) {
        emit_kernel_stats(w, k);
    }
    w.end_array();
    w.end_object();
}

void
write_json(const sim::WorkloadReport &report, std::ostream &os)
{
    JsonWriter w(os);
    w.begin_object();
    emit_header(w, kReportSchema);
    w.field("total_us", report.total_us);
    w.field("dynamic_j", report.dynamic_j);
    w.field("static_j", report.static_j);
    w.field("total_j", report.total_j());
    w.field("average_watts", report.average_watts());
    w.key("kernels");
    w.begin_array();
    for (const auto &k : report.kernels) {
        emit_characterization(w, k);
    }
    w.end_array();
    w.end_object();
}

void
write_json(const ProfiledRun &run, std::ostream &os)
{
    JsonWriter w(os);
    w.begin_object();
    emit_header(w, kProfileSchema);
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

std::string
to_json(const sim::SimResult &result)
{
    std::ostringstream os;
    write_json(result, os);
    return os.str();
}

std::string
to_json(const sim::WorkloadReport &report)
{
    std::ostringstream os;
    write_json(report, os);
    return os.str();
}

std::string
to_json(const ProfiledRun &run)
{
    std::ostringstream os;
    write_json(run, os);
    return os.str();
}

namespace {

sim::TbWork
work_from_json(const JsonValue &v)
{
    sim::TbWork work;
    work.tensor_flops = v.at("tensor_flops").as_number();
    work.cuda_flops = v.at("cuda_flops").as_number();
    work.dram_read_bytes = v.at("dram_read_bytes").as_number();
    work.dram_write_bytes = v.at("dram_write_bytes").as_number();
    work.l2_bytes = v.at("l2_bytes").as_number();
    return work;
}

}  // namespace

sim::SimResult
sim_result_from_json(const JsonValue &doc)
{
    MG_CHECK(doc.is_object()) << "SimResult JSON must be an object";
    MG_CHECK(doc.at("schema").as_string() == kSimResultSchema)
        << "unexpected schema \"" << doc.at("schema").as_string() << "\"";
    MG_CHECK(static_cast<int>(doc.at("schema_version").as_number()) ==
             kSchemaVersion)
        << "unsupported schema_version";

    sim::SimResult result;
    result.total_us = doc.at("total_us").as_number();
    result.work = work_from_json(doc.at("work"));
    const JsonValue &kernels = doc.at("kernels");
    MG_CHECK(kernels.is_array()) << "\"kernels\" must be an array";
    for (const JsonValue &kv : kernels.array) {
        sim::KernelStats k;
        k.name = kv.at("name").as_string();
        k.stream = static_cast<int>(kv.at("stream").as_number());
        k.num_tbs = static_cast<index_t>(kv.at("num_tbs").as_number());
        k.occupancy_per_sm =
            static_cast<int>(kv.at("occupancy_per_sm").as_number());
        k.ready_us = kv.at("ready_us").as_number();
        k.start_us = kv.at("start_us").as_number();
        k.end_us = kv.at("end_us").as_number();
        k.avg_concurrency = kv.at("avg_concurrency").as_number();
        const JsonValue &deps = kv.at("deps");
        MG_CHECK(deps.is_array()) << "\"deps\" must be an array";
        for (const JsonValue &d : deps.array) {
            k.deps.push_back(static_cast<int>(d.as_number()));
        }
        k.work = work_from_json(kv.at("work"));
        result.kernels.push_back(std::move(k));
    }
    return result;
}

sim::SimResult
sim_result_from_json(const std::string &text)
{
    return sim_result_from_json(json_parse(text));
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
write_kernel_csv(const sim::WorkloadReport &report, std::ostream &os)
{
    os << "name,duration_us,arithmetic_intensity,tensor_util,cuda_util,"
          "dram_util,l2_util,bound,dynamic_j\n";
    for (const auto &k : report.kernels) {
        os << k.name << ",";
        csv_number(os, k.duration_us);
        os << ",";
        csv_number(os, k.arithmetic_intensity);
        os << ",";
        csv_number(os, k.tensor_util);
        os << ",";
        csv_number(os, k.cuda_util);
        os << ",";
        csv_number(os, k.dram_util);
        os << ",";
        csv_number(os, k.l2_util);
        os << "," << sim::to_string(k.bound) << ",";
        csv_number(os, k.dynamic_j);
        os << "\n";
    }
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
