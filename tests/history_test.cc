// Tests for the mgperf history layer (profiler/history.h): manifest
// collection and round-trip, BenchRun (de)serialization, appends to the
// JSONL corpus, and the baseline directory I/O.

#include "profiler/history.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/gitinfo.h"
#include "profiler/export.h"

namespace multigrain::prof {
namespace {

namespace fs = std::filesystem;

class TempDir {
  public:
    TempDir()
    {
        dir_ = fs::temp_directory_path() /
               ("mg_history_test_" +
                std::to_string(::getpid()) + "_" +
                std::to_string(counter_++));
        fs::create_directories(dir_);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }
    std::string str() const { return dir_.string(); }

  private:
    static inline int counter_ = 0;
    fs::path dir_;
};

BenchRun
sample_run(const std::string &name)
{
    BenchRun run;
    run.name = name;
    run.manifest = RunManifest::collect("a100");
    BenchRow row;
    row.series = "fig7";
    row.labels.emplace_back("model", "Longformer-large");
    row.labels.emplace_back("mode", "multigrain");
    row.metrics.emplace_back("total_us", 1234.5);
    row.metrics.emplace_back("dram_bytes", 2.5e9);
    run.rows.push_back(row);
    return run;
}

TEST(GitInfoTest, EnvOverrideWins)
{
    ::setenv("MULTIGRAIN_GIT_SHA", "deadbeefcafe", 1);
    ::setenv("MULTIGRAIN_GIT_DIRTY", "1", 1);
    const GitInfo info = resolve_git_info();
    EXPECT_EQ(info.sha, "deadbeefcafe");
    EXPECT_TRUE(info.dirty);
    EXPECT_TRUE(info.known);
    ::setenv("MULTIGRAIN_GIT_DIRTY", "0", 1);
    EXPECT_FALSE(resolve_git_info().dirty);
    ::unsetenv("MULTIGRAIN_GIT_SHA");
    ::unsetenv("MULTIGRAIN_GIT_DIRTY");
}

TEST(GitInfoTest, NeverThrows)
{
    const GitInfo info = resolve_git_info();
    EXPECT_FALSE(info.sha.empty());  // Real sha or "unknown".
}

TEST(ManifestTest, CollectStampsSchemaVersionAndTimestamp)
{
    const RunManifest m = RunManifest::collect("rtx3090");
    EXPECT_EQ(m.device, "rtx3090");
    EXPECT_EQ(m.schema_version, kBenchSchemaVersion);
    // ISO-8601 Zulu: "YYYY-MM-DDTHH:MM:SSZ".
    ASSERT_EQ(m.timestamp.size(), 20u);
    EXPECT_EQ(m.timestamp[10], 'T');
    EXPECT_EQ(m.timestamp.back(), 'Z');
}

TEST(ManifestTest, JsonRoundTrip)
{
    RunManifest m;
    m.git_sha = "abc123";
    m.git_dirty = true;
    m.device = "a100";
    m.schema_version = 2;
    m.timestamp = "2026-08-06T00:00:00Z";
    std::ostringstream os;
    {
        JsonWriter w(os);
        write_manifest(w, m);
    }
    const RunManifest back = manifest_from_json(json_parse(os.str()));
    EXPECT_EQ(back.git_sha, "abc123");
    EXPECT_TRUE(back.git_dirty);
    EXPECT_EQ(back.device, "a100");
    EXPECT_EQ(back.schema_version, 2);
    EXPECT_EQ(back.timestamp, "2026-08-06T00:00:00Z");
}

TEST(BenchRowTest, KeyIsLabelOrderIndependent)
{
    BenchRow a;
    a.series = "fig7";
    a.labels.emplace_back("model", "qds");
    a.labels.emplace_back("mode", "dense");
    BenchRow b;
    b.series = "fig7";
    b.labels.emplace_back("mode", "dense");
    b.labels.emplace_back("model", "qds");
    EXPECT_EQ(a.key(), b.key());
    EXPECT_EQ(a.key(), "fig7|mode=dense|model=qds");

    BenchRow c = a;
    c.series = "fig8";
    EXPECT_NE(a.key(), c.key());
}

TEST(BenchRunTest, JsonRoundTrip)
{
    const BenchRun run = sample_run("fig7@a100");
    const BenchRun back = bench_run_from_json(run.to_json());
    EXPECT_EQ(back.name, "fig7@a100");
    EXPECT_EQ(back.manifest.git_sha, run.manifest.git_sha);
    EXPECT_EQ(back.manifest.device, "a100");
    ASSERT_EQ(back.rows.size(), 1u);
    EXPECT_EQ(back.rows[0].key(), run.rows[0].key());
    ASSERT_NE(back.rows[0].find_metric("total_us"), nullptr);
    EXPECT_DOUBLE_EQ(*back.rows[0].find_metric("total_us"), 1234.5);
    EXPECT_EQ(back.rows[0].find_metric("absent"), nullptr);
}

TEST(BenchRunTest, ReadsV1DocumentWithoutManifest)
{
    const std::string v1 =
        R"({"schema":"mgprof.bench","schema_version":1,"name":"old",)"
        R"("rows":[{"series":"s","device":"A100","total_us":7.5}]})";
    const BenchRun run = bench_run_from_json(v1);
    EXPECT_EQ(run.name, "old");
    EXPECT_EQ(run.manifest.git_sha, "unknown");
    EXPECT_EQ(run.manifest.schema_version, 1);
    ASSERT_EQ(run.rows.size(), 1u);
    // Strings classify as labels, numbers as metrics.
    EXPECT_EQ(run.rows[0].key(), "s|device=A100");
    ASSERT_NE(run.rows[0].find_metric("total_us"), nullptr);
}

TEST(BenchRunTest, RejectsWrongSchema)
{
    EXPECT_THROW(
        bench_run_from_json(
            R"({"schema":"mgprof.profile","name":"x","rows":[]})"),
        Error);
    EXPECT_THROW(bench_run_from_json("[1,2,3]"), Error);
}

TEST(HistoryTest, AppendLoadRoundTrip)
{
    TempDir dir;
    const std::string path = dir.path("bench_history.jsonl");
    append_history(path, sample_run("fig7@a100"));
    append_history(path, sample_run("fig9@a100"));

    // One document per line, in append order.
    std::ifstream file(path);
    std::vector<std::string> names;
    for (std::string line; std::getline(file, line);) {
        names.push_back(bench_run_from_json(line).name);
    }
    EXPECT_EQ(names, (std::vector<std::string>{"fig7@a100", "fig9@a100"}));
}

TEST(BaselineTest, WriteAndLoadDirectory)
{
    TempDir dir;
    const std::string baselines = dir.path("baselines");
    write_baseline(baselines, sample_run("fig9@rtx3090"));
    write_baseline(baselines, sample_run("fig7@a100"));

    const std::vector<BenchRun> loaded = load_baseline_dir(baselines);
    ASSERT_EQ(loaded.size(), 2u);
    // Sorted by file name.
    EXPECT_EQ(loaded[0].name, "fig7@a100");
    EXPECT_EQ(loaded[1].name, "fig9@rtx3090");
}

TEST(BaselineTest, MissingDirectoryIsEmpty)
{
    EXPECT_TRUE(load_baseline_dir("/nonexistent/baselines").empty());
}

TEST(BaselineTest, CorruptBaselineThrows)
{
    TempDir dir;
    const std::string baselines = dir.path("baselines");
    fs::create_directories(baselines);
    {
        std::ofstream file(baselines + "/bad.json");
        file << "{broken";
    }
    EXPECT_THROW(load_baseline_dir(baselines), Error);
}

}  // namespace
}  // namespace multigrain::prof
