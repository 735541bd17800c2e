#include "kernels/dense.h"

#include <algorithm>

#include "common/error.h"
#include "common/util.h"
#include "kernels/cost_model.h"

namespace multigrain::kernels {

sim::KernelLaunch
plan_dense_gemm(const sim::DeviceSpec &device, index_t m, index_t n,
                index_t k, index_t replicas, const std::string &name)
{
    MG_CHECK(m > 0 && n > 0 && k > 0 && replicas > 0)
        << "plan_dense_gemm needs positive dims";
    sim::KernelLaunch launch;
    launch.name = name;
    launch.shape = dense_gemm_shape();

    // 128x128 output tiles, shrunk for small problems so a thin GEMM does
    // not pay for a huge tile it cannot fill.
    const index_t tile_m = std::min<index_t>(128, round_up<index_t>(m, 16));
    const index_t tile_n = std::min<index_t>(128, round_up<index_t>(n, 16));
    const index_t tiles_m = ceil_div(m, tile_m);
    const index_t tiles_n = ceil_div(n, tile_n);

    // Split-K (as CUTLASS does for thin problems): when the output grid
    // cannot fill the device, parallelize over the reduction dimension and
    // add a small fix-up pass per output tile.
    index_t splits = 1;
    const index_t grid = tiles_m * tiles_n * replicas;
    const index_t want_tbs = static_cast<index_t>(device.num_sms) * 2;
    if (grid < want_tbs && k >= 256) {
        splits = std::min<index_t>(ceil_div(want_tbs, grid),
                                   std::max<index_t>(1, k / 128));
    }

    // Operand traffic: each A panel is touched by tiles_n blocks and each
    // B panel by tiles_m blocks; L2 captures re-touches that fit.
    const double a_bytes = static_cast<double>(m) * k * kHalfBytes;
    const double b_bytes = static_cast<double>(n) * k * kHalfBytes;
    const double touched =
        (a_bytes * static_cast<double>(tiles_n) +
         b_bytes * static_cast<double>(tiles_m)) *
        static_cast<double>(replicas);
    const double distinct =
        (a_bytes + b_bytes) * static_cast<double>(replicas);
    const MemSplit split = split_reuse(touched, distinct,
                                       device.l2_capacity_bytes(), 0.25);

    const double total_tbs =
        static_cast<double>(tiles_m * tiles_n * replicas * splits);
    // The engine's tensor clocks are scaled by the blocked-sparse
    // tensor_efficiency; dense large-tile GEMMs achieve
    // dense_tensor_efficiency instead, so express the flops in
    // sparse-efficiency units.
    const double eff_scale =
        device.dense_tensor_efficiency > 0
            ? device.tensor_efficiency / device.dense_tensor_efficiency
            : 1.0;
    sim::TbWork w;
    w.tensor_flops = 2.0 * static_cast<double>(tile_m) * tile_n * k *
                     eff_scale / static_cast<double>(splits);
    // Epilogue; with split-K each slice also writes and re-reduces its
    // partial tile in FP32.
    w.cuda_flops = 2.0 * static_cast<double>(tile_m) * tile_n *
                   (splits > 1 ? 2.0 : 1.0);
    w.dram_read_bytes = split.dram_bytes / total_tbs;
    w.l2_bytes = split.l2_bytes / total_tbs;
    w.dram_write_bytes = static_cast<double>(tile_m) * tile_n * kHalfBytes *
                         (splits > 1 ? 2.0 : 1.0);
    launch.add_tb(w, tiles_m * tiles_n * replicas * splits);
    return launch;
}

sim::KernelLaunch
plan_dense_softmax(const sim::DeviceSpec &device, index_t rows, index_t cols,
                   index_t replicas, const std::string &name)
{
    MG_CHECK(rows >= 0 && cols > 0 && replicas > 0)
        << "plan_dense_softmax needs valid dims";
    (void)device;
    sim::KernelLaunch launch;
    launch.name = name;
    launch.shape = softmax_shape();
    if (rows == 0) {
        return launch;
    }
    sim::TbWork w;
    w.cuda_flops = static_cast<double>(cols) * kSoftmaxFlopsPerElem;
    w.dram_read_bytes = static_cast<double>(cols) * kHalfBytes;
    w.dram_write_bytes = static_cast<double>(cols) * kHalfBytes;
    launch.add_tb(w, rows * replicas);
    return launch;
}

sim::KernelLaunch
plan_elementwise(const sim::DeviceSpec &device, index_t elements, int reads,
                 double flops_per_element, const std::string &name)
{
    MG_CHECK(elements >= 0 && reads >= 0) << "plan_elementwise bad args";
    sim::KernelLaunch launch;
    launch.name = name;
    sim::TbShape shape;
    shape.threads = 256;
    shape.smem_bytes = 0;
    shape.regs_per_thread = 32;
    launch.shape = shape;
    if (elements == 0) {
        return launch;
    }
    // Enough blocks for full occupancy; each handles an equal slice.
    const index_t tbs = std::min<index_t>(
        std::max<index_t>(1, elements / 4096),
        static_cast<index_t>(device.num_sms) * 16);
    const double per_tb =
        static_cast<double>(elements) / static_cast<double>(tbs);
    sim::TbWork w;
    w.cuda_flops = per_tb * flops_per_element;
    w.dram_read_bytes = per_tb * kHalfBytes * reads;
    w.dram_write_bytes = per_tb * kHalfBytes;
    launch.add_tb(w, tbs);
    return launch;
}

}  // namespace multigrain::kernels
