#ifndef MULTIGRAIN_PROFILER_HISTORY_H_
#define MULTIGRAIN_PROFILER_HISTORY_H_

#include <string>
#include <utility>
#include <vector>

#include "common/json.h"

/// The benchmark-corpus layer behind mgperf (ISSUE 3): a provenance
/// manifest stamped onto every bench artifact, an append-only
/// `bench_history.jsonl` corpus of manifest-stamped runs, and the
/// committed per-preset baselines under `bench/baselines/` that the
/// regression gate diffs against.
///
/// A "run" is what one mgfig figure or one mgperf preset produces: a
/// name, a RunManifest, and the flat label/metric rows the "mgprof.bench"
/// schema has carried since PR 1. Rows are keyed by series plus every
/// label (workload / device / slice mode / pattern), so the comparator in
/// profiler/regress.h can match baseline and current rows positionally
/// independent of emission order.
namespace multigrain::prof {

/// Provenance header attached to every bench artifact and history line:
/// enough to answer "which code, which device, when" for any recorded
/// number. collect() never throws — unresolvable fields degrade to
/// "unknown"/empty.
struct RunManifest {
    std::string git_sha = "unknown";
    bool git_dirty = false;
    /// CLI device name ("a100"/"rtx3090"); comma-joined for a run over
    /// several devices, empty for a document that spans runs.
    std::string device;
    int schema_version = 0;
    /// ISO-8601 UTC, e.g. "2026-08-06T12:34:56Z"; empty when unknown.
    std::string timestamp;

    /// Stamps the current process: git info (common/gitinfo), wall-clock
    /// UTC time, kBenchSchemaVersion.
    static RunManifest collect(const std::string &device = "");
};

void write_manifest(JsonWriter &w, const RunManifest &manifest);
/// Parses a manifest object; missing fields keep their defaults.
RunManifest manifest_from_json(const JsonValue &doc);

/// One flat bench row: a series tag plus ordered label (string) and
/// metric (number) cells — the in-memory form of the objects inside a
/// "mgprof.bench" document's "rows" array.
struct BenchRow {
    std::string series;
    std::vector<std::pair<std::string, std::string>> labels;
    std::vector<std::pair<std::string, double>> metrics;

    /// Canonical row identity: "series|k=v|k=v" with labels sorted by
    /// key, so two rows match regardless of label emission order.
    std::string key() const;
    /// nullptr when the metric is absent.
    const double *find_metric(const std::string &name) const;
};

/// One recorded run: the unit history lines, baseline files, and the
/// regression comparator all operate on.
struct BenchRun {
    std::string name;
    RunManifest manifest;
    std::vector<BenchRow> rows;

    std::string to_json() const;
    void write_json(JsonWriter &w) const;

    const BenchRow *find_row(const std::string &key) const;
};

/// Parses a "mgprof.bench" document (v1 without manifest, or v2 with).
/// Fields other than "series" inside a row are classified by JSON type:
/// strings are labels, numbers are metrics. Throws Error on schema
/// mismatch or malformed structure.
BenchRun bench_run_from_json(const JsonValue &doc);
BenchRun bench_run_from_json(const std::string &text);

// ---- History corpus (JSONL) ---------------------------------------------

/// Appends `run` as one JSON line to the corpus at `path` (created when
/// missing). Throws Error on I/O failure.
void append_history(const std::string &path, const BenchRun &run);

struct HistoryLoad {
    std::vector<BenchRun> runs;
    /// Lines that failed to parse (truncated writes, merge debris). They
    /// are skipped with a warning — one bad line must not take out the
    /// corpus.
    int corrupt_lines = 0;
};

/// Loads the corpus; a missing file is an empty history, not an error.
HistoryLoad load_history(const std::string &path);

// ---- Committed baselines ------------------------------------------------

/// Loads every `*.json` under `dir` as a BenchRun (sorted by file name).
/// A missing directory is an empty baseline set; an unparsable file
/// throws — committed baselines are not allowed to rot silently.
std::vector<BenchRun> load_baseline_dir(const std::string &dir);

/// Writes `run` to `<dir>/<run.name>.json` (creating `dir` if needed) —
/// the `mgperf --update-baselines` path. Throws Error on I/O failure.
void write_baseline(const std::string &dir, const BenchRun &run);

}  // namespace multigrain::prof

#endif  // MULTIGRAIN_PROFILER_HISTORY_H_
