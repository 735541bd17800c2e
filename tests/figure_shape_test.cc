// The paper's evaluation shapes as predicates over the committed gate
// baselines (bench/baselines/). mgperf bounds numeric drift against those
// baselines, and `mgperf --update-baselines` resets that drift; these
// predicates keep the ordinal claims EXPERIMENTS.md marks ✔ — who wins,
// where the crossovers fall — so a refresh that flips one fails here.
//
// A known deviation is a predicate marked expected_fail with its
// EXPERIMENTS.md reason. When such a predicate starts holding, the suite
// fails and says so, so the mark and the deviation note can be retired.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "profiler/history.h"

namespace multigrain {
namespace {

using Labels = std::vector<std::pair<std::string, std::string>>;

/// The metric `metric` of the row keyed by `series` and `labels`; throws
/// when the baseline lacks it, so a renamed row cannot pass vacuously.
template <typename Run>
auto &
cell(Run &run, const std::string &series, const Labels &labels,
     const std::string &metric)
{
    const std::string key = prof::BenchRow{series, labels, {}}.key();
    for (auto &row : run.rows) {
        if (row.key() != key) {
            continue;
        }
        for (auto &[name, value] : row.metrics) {
            if (name == metric) {
                return value;
            }
        }
    }
    throw Error(run.name + " has no " + key + " " + metric);
}

const std::vector<std::string> kModels = {"Longformer-large",
                                          "QDS-Transformer-base"};
const std::vector<std::string> kFig9Patterns = {"L+S", "LB+R", "RB+R",
                                                "L+S+G", "LB+R+G"};

double
fig7_us(const prof::BenchRun &run, const std::string &model,
        const std::string &mode)
{
    return cell(run, "fig7", {{"model", model}, {"mode", mode}},
                "total_us");
}

/// Triton (coarse-only) or Sputnik (fine-only) time over Multigrain's on
/// one fig9 phase.
double
fig9_speedup(const prof::BenchRun &run, const std::string &pattern,
             const std::string &baseline_mode, const std::string &phase)
{
    return cell(run, "fig9", {{"pattern", pattern}, {"mode", baseline_mode}},
                phase) /
           cell(run, "fig9", {{"pattern", pattern}, {"mode", "multigrain"}},
                phase);
}

double
fig11_speedup(const prof::BenchRun &run, const std::string &pattern,
              const std::string &op)
{
    return cell(run, "fig11", {{"pattern", pattern}}, "triton_" + op) /
           cell(run, "fig11", {{"pattern", pattern}}, "ours_" + op);
}

struct Predicate {
    std::string name;
    std::string baseline;  ///< The gate run it reads, "<preset>@<device>".
    /// Empty when the shape holds, else what broke it.
    std::function<std::string(const prof::BenchRun &)> violation;
    /// One row edit that flips the predicate's outcome.
    std::function<void(prof::BenchRun &)> mutate;
    /// Known deviations: EXPERIMENTS.md's reason; empty otherwise.
    std::string expected_fail = {};
};

std::string
multigrain_fastest(const prof::BenchRun &run)
{
    for (const std::string &model : kModels) {
        const double mg = fig7_us(run, model, "multigrain");
        if (mg >= fig7_us(run, model, "coarse-only") ||
            mg >= fig7_us(run, model, "fine-only")) {
            return model + ": Multigrain is not the fastest";
        }
    }
    return "";
}

std::vector<Predicate>
predicates()
{
    std::vector<Predicate> list;
    for (const char *device : {"a100", "rtx3090"}) {
        list.push_back({"fig7.multigrain_fastest",
                        std::string("fig7@") + device, &multigrain_fastest,
                        [](prof::BenchRun &run) {
                            cell(run, "fig7",
                                 {{"model", "QDS-Transformer-base"},
                                  {"mode", "multigrain"}},
                                 "total_us") *= 10;
                        }});
    }
    list.push_back(
        {"fig7.a100_triton_slowest", "fig7@a100",
         [](const prof::BenchRun &run) -> std::string {
             for (const std::string &model : kModels) {
                 const double triton = fig7_us(run, model, "coarse-only");
                 if (triton <= fig7_us(run, model, "fine-only") ||
                     triton <= fig7_us(run, model, "multigrain")) {
                     return model + ": Triton is not the slowest";
                 }
             }
             return "";
         },
         [](prof::BenchRun &run) {
             cell(run, "fig7",
                  {{"model", "Longformer-large"}, {"mode", "coarse-only"}},
                  "total_us") /= 10;
         }});
    list.push_back(
        {"fig7.rtx3090_sputnik_beats_triton", "fig7@rtx3090",
         [](const prof::BenchRun &run) -> std::string {
             for (const std::string &model : kModels) {
                 if (fig7_us(run, model, "fine-only") >=
                     fig7_us(run, model, "coarse-only")) {
                     return model + ": Sputnik does not beat Triton";
                 }
             }
             return "";
         },
         [](prof::BenchRun &run) {
             cell(run, "fig7",
                  {{"model", "QDS-Transformer-base"}, {"mode", "fine-only"}},
                  "total_us") *= 2;
         }});
    list.push_back(
        {"fig9.multigrain_wins_all", "fig9@a100",
         [](const prof::BenchRun &run) -> std::string {
             for (const std::string &pattern : kFig9Patterns) {
                 for (const char *mode : {"coarse-only", "fine-only"}) {
                     for (const char *phase : {"sddmm_us", "spmm_us"}) {
                         if (fig9_speedup(run, pattern, mode, phase) <= 1) {
                             return pattern + " " + phase + " vs " + mode +
                                    ": Multigrain does not win";
                         }
                     }
                 }
             }
             return "";
         },
         [](prof::BenchRun &run) {
             cell(run, "fig9", {{"pattern", "RB+R"}, {"mode", "multigrain"}},
                  "spmm_us") *= 10;
         }});
    list.push_back(
        {"fig9.global_wins_over_sputnik_largest", "fig9@a100",
         [](const prof::BenchRun &run) -> std::string {
             for (const char *phase : {"sddmm_us", "spmm_us"}) {
                 double global_min = 1e300, other_max = 0;
                 for (const std::string &pattern : kFig9Patterns) {
                     const double s =
                         fig9_speedup(run, pattern, "fine-only", phase);
                     const bool global = pattern.ends_with("+G");
                     global_min = global ? std::min(global_min, s)
                                         : global_min;
                     other_max = global ? other_max : std::max(other_max, s);
                 }
                 if (global_min <= other_max) {
                     return std::string(phase) +
                            ": a non-global pattern wins as much over "
                            "Sputnik as a global-bearing one";
                 }
             }
             return "";
         },
         [](prof::BenchRun &run) {
             cell(run, "fig9", {{"pattern", "L+S"}, {"mode", "fine-only"}},
                  "sddmm_us") *= 10;
         }});
    list.push_back(
        {"fig11.ours_beats_triton_on_local", "fig11@a100",
         [](const prof::BenchRun &run) -> std::string {
             for (const char *pattern : {"local", "blocked_local"}) {
                 for (const char *op : {"sddmm_us", "spmm_us"}) {
                     if (fig11_speedup(run, pattern, op) <= 1) {
                         return std::string(pattern) + " " + op +
                                ": Triton is not slower";
                     }
                 }
             }
             return "";
         },
         [](prof::BenchRun &run) {
             cell(run, "fig11", {{"pattern", "blocked_local"}},
                  "ours_spmm_us") *= 10;
         }});
    list.push_back(
        {"fig11.blocked_random_sddmm_loses", "fig11@a100",
         [](const prof::BenchRun &run) -> std::string {
             const double s =
                 fig11_speedup(run, "blocked_random", "sddmm_us");
             return s <= 1 ? ""
                           : "blocked_random SDDMM is " + std::to_string(s) +
                                 "x over Triton, not <= 1.0x";
         },
         [](prof::BenchRun &run) {
             cell(run, "fig11", {{"pattern", "blocked_random"}},
                  "ours_sddmm_us") *= 10;
         },
         "the fluid (processor-sharing) engine lets a heavy row block "
         "borrow idle pipe capacity, which smooths the per-warp "
         "serialization behind the paper's 0.75x; measured 1.16x "
         "(EXPERIMENTS.md, Fig. 11 known deviation)"});
    return list;
}

const prof::BenchRun &
baseline(const std::vector<prof::BenchRun> &runs, const std::string &name)
{
    for (const prof::BenchRun &run : runs) {
        if (run.name == name) {
            return run;
        }
    }
    throw Error("no committed baseline " + name);
}

class FigureShapeTest : public ::testing::Test {
  protected:
    const std::vector<prof::BenchRun> runs_ =
        prof::load_baseline_dir(MULTIGRAIN_BASELINE_DIR);
};

TEST_F(FigureShapeTest, CommittedBaselinesHoldThePaperShapes)
{
    for (const Predicate &p : predicates()) {
        const std::string violation = p.violation(baseline(runs_, p.baseline));
        if (p.expected_fail.empty()) {
            EXPECT_EQ(violation, "") << p.name << " on " << p.baseline;
        } else {
            EXPECT_NE(violation, "")
                << p.name << " on " << p.baseline
                << " is marked expected_fail (" << p.expected_fail
                << ") but now holds: the deviation closed, so drop the "
                   "mark and EXPERIMENTS.md's deviation note";
        }
    }
}

TEST_F(FigureShapeTest, OneMutatedRowFlipsEachPredicate)
{
    for (const Predicate &p : predicates()) {
        prof::BenchRun run = baseline(runs_, p.baseline);
        const bool held = p.violation(run).empty();
        p.mutate(run);
        EXPECT_NE(p.violation(run).empty(), held)
            << p.name << " on " << p.baseline
            << ": the mutated row did not change the verdict";
    }
}

}  // namespace
}  // namespace multigrain
