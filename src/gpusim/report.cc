#include "gpusim/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>

#include "common/error.h"

namespace multigrain::sim {

const char *
to_string(Bound bound)
{
    switch (bound) {
      case Bound::kTensor:
        return "tensor";
      case Bound::kCuda:
        return "cuda";
      case Bound::kDram:
        return "dram";
      case Bound::kL2:
        return "l2";
      case Bound::kLatency:
        return "latency";
    }
    return "?";
}

Roofline
classify_roofline(const TbWork &work, double span_us,
                  const DeviceSpec &device)
{
    Roofline r;
    if (span_us > 0) {
        const double tensor_peak =
            device.sm_tensor_flops_per_us() * device.num_sms;
        const double cuda_peak =
            device.sm_cuda_flops_per_us() * device.num_sms;
        const double dram_peak = device.dram_bytes_per_us();
        const double l2_peak = device.l2_bytes_per_us();
        r.tensor_util = work.tensor_flops / (tensor_peak * span_us);
        r.cuda_util = work.cuda_flops / (cuda_peak * span_us);
        r.dram_util = work.dram_bytes() / (dram_peak * span_us);
        r.l2_util = work.mem_bytes() / (l2_peak * span_us);
    }
    const double utils[4] = {r.tensor_util, r.cuda_util, r.dram_util,
                             r.l2_util};
    const Bound bounds[4] = {Bound::kTensor, Bound::kCuda, Bound::kDram,
                             Bound::kL2};
    int best = 0;
    for (int i = 1; i < 4; ++i) {
        if (utils[i] > utils[best]) {
            best = i;
        }
    }
    r.bound = utils[best] >= kBoundThreshold ? bounds[best]
                                             : Bound::kLatency;
    return r;
}

WorkloadReport
characterize(const SimResult &result, const DeviceSpec &device)
{
    WorkloadReport report;
    report.total_us = result.total_us;

    for (const auto &k : result.kernels) {
        KernelCharacterization c;
        c.name = k.name;
        c.duration_us = k.duration_us();
        const double flops = k.work.tensor_flops + k.work.cuda_flops;
        const double dram = k.work.dram_bytes();
        c.arithmetic_intensity =
            dram > 0 ? flops / dram
                     : std::numeric_limits<double>::infinity();
        const Roofline r = classify_roofline(k.work, c.duration_us, device);
        c.tensor_util = r.tensor_util;
        c.cuda_util = r.cuda_util;
        c.dram_util = r.dram_util;
        c.l2_util = r.l2_util;
        c.bound = r.bound;
        c.dynamic_j =
            (k.work.tensor_flops * device.pj_per_tensor_flop +
             k.work.cuda_flops * device.pj_per_cuda_flop +
             dram * device.pj_per_dram_byte +
             k.work.l2_bytes * device.pj_per_l2_byte) *
            1e-12;
        report.dynamic_j += c.dynamic_j;
        report.kernels.push_back(std::move(c));
    }
    report.static_j = device.static_watts * result.total_us * 1e-6;
    return report;
}

void
print_report(const WorkloadReport &report, std::ostream &os,
             int max_kernels)
{
    std::vector<const KernelCharacterization *> by_time;
    by_time.reserve(report.kernels.size());
    for (const auto &k : report.kernels) {
        by_time.push_back(&k);
    }
    std::stable_sort(by_time.begin(), by_time.end(),
                     [](const auto *a, const auto *b) {
                         return a->duration_us > b->duration_us;
                     });

    char line[256];
    std::snprintf(line, sizeof line, "%-32s %9s %8s %7s %7s %7s %7s %9s\n",
                  "kernel", "us", "AI", "tc%", "cuda%", "dram%", "l2%",
                  "bound");
    os << line;
    const int n = std::min<int>(max_kernels,
                                static_cast<int>(by_time.size()));
    for (int i = 0; i < n; ++i) {
        const KernelCharacterization &k = *by_time[static_cast<std::size_t>(i)];
        std::snprintf(
            line, sizeof line,
            "%-32s %9.1f %8.2f %6.0f%% %6.0f%% %6.0f%% %6.0f%% %9s\n",
            k.name.substr(0, 32).c_str(), k.duration_us,
            std::isinf(k.arithmetic_intensity) ? 9999.0
                                               : k.arithmetic_intensity,
            100 * k.tensor_util, 100 * k.cuda_util, 100 * k.dram_util,
            100 * k.l2_util, to_string(k.bound));
        os << line;
    }
    std::snprintf(line, sizeof line,
                  "total %.1f us | energy %.3f J dynamic + %.3f J static "
                  "= %.3f J (avg %.0f W)\n",
                  report.total_us, report.dynamic_j, report.static_j,
                  report.total_j(), report.average_watts());
    os << line;
}

}  // namespace multigrain::sim
