#ifndef MULTIGRAIN_TESTS_PLAN_TEST_UTIL_H_
#define MULTIGRAIN_TESTS_PLAN_TEST_UTIL_H_

// Graph fixtures shared by the plan-analyzer tests (plan facts, lint,
// memory plan, check), and a scoped environment pin.

#include <cstdlib>
#include <string>

#include "common/rng.h"
#include "core/attention.h"
#include "gpusim/device.h"
#include "gpusim/launch.h"
#include "gpusim/launch_graph.h"
#include "patterns/slice.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

namespace multigrain::fixtures {

/// A small non-empty kernel with the given name and no annotations.
inline sim::KernelLaunch
toy_launch(const std::string &name)
{
    sim::KernelLaunch launch;
    launch.name = name;
    sim::TbWork work;
    work.cuda_flops = 1024;
    work.dram_read_bytes = 1024;
    launch.add_tb(work, 4);
    return launch;
}

/// The tiny model's multigrain forward attention plan, copied out of the
/// cache so a test may mutate it.
inline LaunchGraph
tiny_forward_graph(const sim::DeviceSpec &device)
{
    const ModelConfig model = ModelConfig::tiny_test();
    Rng rng(2022);
    const WorkloadSample sample = sample_for_model(rng, model);
    const TransformerRunner runner(model, SliceMode::kMultigrain, sample,
                                   /*batch=*/1);
    return *runner.attention().forward_graph(device);
}

/// Pins one environment variable for a scope and restores its previous
/// value (or unsets it) on exit, so a test behaves the same in release and
/// debug builds and hands back whatever the caller's environment forced.
class ScopedEnv {
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name)) {
            saved_ = old;
            had_ = true;
        }
        setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (had_) {
            setenv(name_, saved_.c_str(), 1);
        } else {
            unsetenv(name_);
        }
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    std::string saved_;
    bool had_ = false;
};

}  // namespace multigrain::fixtures

#endif  // MULTIGRAIN_TESTS_PLAN_TEST_UTIL_H_
