#ifndef MULTIGRAIN_TESTS_ENGINE_TEST_UTIL_H_
#define MULTIGRAIN_TESTS_ENGINE_TEST_UTIL_H_

// The random multi-stream programs EngineOrderTest pins, and the two-SM
// toy device they run on. EngineTest reruns the same programs to check
// that a barrier-separated prefix does not shift their timing.

#include <cstdint>
#include <string>
#include <utility>

#include "common/rng.h"
#include "gpusim/device.h"
#include "gpusim/launch.h"
#include "gpusim/launch_graph.h"

namespace multigrain::sim {

/// Two SMs with round rates (per-SM CUDA 0.5e6 flops/us, tensor 1e6
/// flops/us, DRAM 1e5 B/us, L2 4e5 B/us), four block slots per SM, and the
/// latency-bound cap on or off.
inline DeviceSpec
order_toy_device(bool unit_saturation)
{
    DeviceSpec d;
    d.name = "toy";
    d.num_sms = 2;
    d.tensor_tflops = 2.0;
    d.cuda_tflops = 1.0;
    d.dram_gbps = 100.0;
    d.l2_gbps = 400.0;
    d.max_tb_per_sm = 4;
    d.max_threads_per_sm = 1024;
    d.regs_per_sm = 65536;
    d.smem_per_sm_bytes = 64 * 1024;
    d.tensor_efficiency = 1.0;
    d.cuda_efficiency = 1.0;
    d.dram_efficiency = 1.0;
    d.kernel_launch_us = 1.0;
    d.tb_overhead_us = 0.5;
    d.sm_mem_burst = 2.0;
    d.unit_saturation = unit_saturation ? 2.0 : 0.0;
    return d;
}

/// A random program: 2-5 streams, 20-200 launches, a join before about one
/// launch in eight. Shapes give occupancies 1 to 4 on the toy device, and
/// the small menu of work values makes identical blocks (and so tied
/// deadlines and crossings) common. About one group in eight has no work
/// at all and one kernel in eight has no thread blocks.
inline LaunchGraph
random_program(std::uint64_t seed)
{
    static const TbShape kShapes[] = {
        {128, 0, 32},  {256, 0, 32},    {512, 0, 32},
        {1024, 0, 32}, {128, 20480, 32}, {256, 0, 128}};
    static const double kValues[] = {0, 0, 1e4, 5e4, 1e5, 1e6};
    Rng rng(seed);
    LaunchGraph graph;
    const auto streams = static_cast<int>(rng.next_range(2, 5));
    for (int s = 1; s < streams; ++s) {
        graph.create_stream();
    }
    const std::int64_t launches = rng.next_range(20, 200);
    for (std::int64_t i = 0; i < launches; ++i) {
        if (rng.next_below(8) == 0) {
            graph.join_streams();
        }
        KernelLaunch launch;
        launch.name = "k" + std::to_string(i);
        launch.shape = kShapes[rng.next_below(6)];
        const std::int64_t groups =
            rng.next_below(8) == 0 ? 0 : rng.next_range(1, 3);
        for (std::int64_t g = 0; g < groups; ++g) {
            TbWork work;
            if (rng.next_below(8) != 0) {
                work.tensor_flops = kValues[rng.next_below(6)];
                work.cuda_flops = kValues[rng.next_below(6)];
                work.dram_read_bytes = kValues[rng.next_below(6)];
                work.dram_write_bytes = kValues[rng.next_below(6)];
                work.l2_bytes = kValues[rng.next_below(6)];
            }
            launch.add_tb(work, rng.next_range(1, 40));
        }
        graph.launch(static_cast<int>(rng.next_below(
                         static_cast<std::uint64_t>(streams))),
                     std::move(launch));
    }
    return graph;
}

}  // namespace multigrain::sim

#endif  // MULTIGRAIN_TESTS_ENGINE_TEST_UTIL_H_
