#include "profiler/history.h"

#include <algorithm>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/gitinfo.h"
#include "profiler/export.h"

namespace multigrain::prof {

namespace {

std::string
utc_timestamp()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
#if defined(_WIN32)
    if (gmtime_s(&tm, &now) != 0) {
        return "";
    }
#else
    if (gmtime_r(&now, &tm) == nullptr) {
        return "";
    }
#endif
    char buf[32];
    if (std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm) == 0) {
        return "";
    }
    return buf;
}

}  // namespace

RunManifest
RunManifest::collect(const std::string &device)
{
    RunManifest m;
    const GitInfo &git = git_info();
    m.git_sha = git.sha;
    m.git_dirty = git.dirty;
    m.device = device;
    m.schema_version = kBenchSchemaVersion;
    m.timestamp = utc_timestamp();
    return m;
}

void
write_manifest(JsonWriter &w, const RunManifest &manifest)
{
    w.begin_object();
    w.field("git_sha", manifest.git_sha);
    w.field("git_dirty", manifest.git_dirty);
    w.field("device", manifest.device);
    w.field("schema_version", manifest.schema_version);
    w.field("timestamp", manifest.timestamp);
    w.end_object();
}

RunManifest
manifest_from_json(const JsonValue &doc)
{
    RunManifest m;
    if (!doc.is_object()) {
        return m;
    }
    if (const JsonValue *v = doc.find("git_sha")) {
        m.git_sha = v->as_string();
    }
    if (const JsonValue *v = doc.find("git_dirty")) {
        m.git_dirty = v->as_bool();
    }
    if (const JsonValue *v = doc.find("device")) {
        m.device = v->as_string();
    }
    if (const JsonValue *v = doc.find("schema_version")) {
        m.schema_version = static_cast<int>(v->as_number());
    }
    if (const JsonValue *v = doc.find("timestamp")) {
        m.timestamp = v->as_string();
    }
    return m;
}

std::string
BenchRow::key() const
{
    std::vector<std::pair<std::string, std::string>> sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    std::string key = series;
    for (const auto &[k, v] : sorted) {
        key += "|" + k + "=" + v;
    }
    return key;
}

const double *
BenchRow::find_metric(const std::string &name) const
{
    for (const auto &[k, v] : metrics) {
        if (k == name) {
            return &v;
        }
    }
    return nullptr;
}

void
BenchRun::write_json(JsonWriter &w) const
{
    w.begin_object();
    w.field("schema", kBenchSchema);
    w.field("schema_version", kBenchSchemaVersion);
    w.field("name", name);
    w.key("manifest");
    write_manifest(w, manifest);
    w.key("rows");
    w.begin_array();
    for (const BenchRow &row : rows) {
        w.begin_object();
        w.field("series", row.series);
        for (const auto &[k, v] : row.labels) {
            w.field(k, v);
        }
        for (const auto &[k, v] : row.metrics) {
            w.field(k, v);
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

std::string
BenchRun::to_json() const
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        write_json(w);
    }
    return os.str();
}

const BenchRow *
BenchRun::find_row(const std::string &key) const
{
    for (const BenchRow &row : rows) {
        if (row.key() == key) {
            return &row;
        }
    }
    return nullptr;
}

BenchRun
bench_run_from_json(const JsonValue &doc)
{
    MG_CHECK(doc.is_object()) << "bench document must be an object";
    MG_CHECK(doc.at("schema").as_string() == kBenchSchema)
        << "unexpected schema \"" << doc.at("schema").as_string() << "\"";

    BenchRun run;
    run.name = doc.at("name").as_string();
    if (const JsonValue *m = doc.find("manifest")) {
        run.manifest = manifest_from_json(*m);
    } else {
        // A v1 artifact: rows are compatible, provenance is unknown.
        run.manifest.schema_version =
            static_cast<int>(doc.at("schema_version").as_number());
    }

    const JsonValue &rows = doc.at("rows");
    MG_CHECK(rows.is_array()) << "\"rows\" must be an array";
    for (const JsonValue &rv : rows.array) {
        MG_CHECK(rv.is_object()) << "bench row must be an object";
        BenchRow row;
        row.series = rv.at("series").as_string();
        for (const auto &[k, v] : rv.object) {
            if (k == "series") {
                continue;
            }
            switch (v.type) {
              case JsonValue::Type::kString:
                row.labels.emplace_back(k, v.string);
                break;
              case JsonValue::Type::kNumber:
                row.metrics.emplace_back(k, v.number);
                break;
              case JsonValue::Type::kNull:
                // A non-finite metric (emitted as null); skip — the
                // comparator treats it as absent.
                break;
              default:
                throw Error("bench row field \"" + k +
                            "\" is neither label nor metric");
            }
        }
        run.rows.push_back(std::move(row));
    }
    return run;
}

BenchRun
bench_run_from_json(const std::string &text)
{
    return bench_run_from_json(json_parse(text));
}

void
append_history(const std::string &path, const BenchRun &run)
{
    std::ofstream file(path, std::ios::app);
    MG_CHECK(file.good()) << "cannot open history corpus " << path;
    file << run.to_json() << "\n";
    file.flush();
    MG_CHECK(file.good()) << "failed appending to " << path;
}

std::vector<BenchRun>
load_baseline_dir(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::vector<BenchRun> baselines;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
        return baselines;
    }
    std::vector<fs::path> files;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".json") {
            files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    for (const fs::path &path : files) {
        std::ifstream file(path);
        MG_CHECK(file.good()) << "cannot read baseline " << path.string();
        std::ostringstream buffer;
        buffer << file.rdbuf();
        try {
            baselines.push_back(bench_run_from_json(buffer.str()));
        } catch (const Error &e) {
            throw Error("baseline " + path.string() + ": " + e.what());
        }
    }
    return baselines;
}

void
write_baseline(const std::string &dir, const BenchRun &run)
{
    namespace fs = std::filesystem;
    MG_CHECK(!run.name.empty()) << "baseline run needs a name";
    std::error_code ec;
    fs::create_directories(dir, ec);
    const std::string path = dir + "/" + run.name + ".json";
    std::ofstream file(path);
    MG_CHECK(file.good()) << "cannot write baseline " << path;
    file << run.to_json() << "\n";
    file.flush();
    MG_CHECK(file.good()) << "failed writing " << path;
}

}  // namespace multigrain::prof
