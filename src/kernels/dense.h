#ifndef MULTIGRAIN_KERNELS_DENSE_H_
#define MULTIGRAIN_KERNELS_DENSE_H_

#include <string>

#include "common/util.h"
#include "gpusim/engine.h"

/// Dense kernels used for the "special" global-pattern parts (paper §3.1,
/// §3.3) and for the projection/FFN GEMMs of the end-to-end transformer:
/// a CUTLASS-style tiled tensor-core GEMM and a TensorRT-style fused
/// row-wise softmax.
///
/// Each kernel is a plan() that emits the simulator launch.
namespace multigrain::kernels {

/// Performance plan for an M x N x K FP16 tensor-core GEMM, repeated
/// `replicas` times (independent problem instances, e.g. batch x heads,
/// fused into one launch).
sim::KernelLaunch plan_dense_gemm(const sim::DeviceSpec &device, index_t m,
                                  index_t n, index_t k, index_t replicas,
                                  const std::string &name);

/// Performance plan for a row-wise fused softmax over a dense rows x cols
/// panel, repeated `replicas` times.
sim::KernelLaunch plan_dense_softmax(const sim::DeviceSpec &device,
                                     index_t rows, index_t cols,
                                     index_t replicas,
                                     const std::string &name);

/// Performance plan for an element-wise pass over `elements` values with
/// `reads` input streams and one output stream (residual adds, LayerNorm,
/// activations). Bandwidth-bound by construction.
sim::KernelLaunch plan_elementwise(const sim::DeviceSpec &device,
                                   index_t elements, int reads,
                                   double flops_per_element,
                                   const std::string &name);

}  // namespace multigrain::kernels

#endif  // MULTIGRAIN_KERNELS_DENSE_H_
