#ifndef MULTIGRAIN_KERNELS_CHUNKED_BASELINE_H_
#define MULTIGRAIN_KERNELS_CHUNKED_BASELINE_H_

#include <string>

#include "formats/matrix.h"
#include "gpusim/device.h"
#include "gpusim/launch_graph.h"

/// The §2.4 special methods for banded patterns: Longformer's *sliding
/// chunk* (for local patterns) and BigBird's *blockify* (for blocked local
/// patterns). Both reshape the banded attention into small dense GEMMs the
/// existing dense hardware runs at full tilt — but pay for it with
/// pre/post-processing memory copies: the overlapped chunks duplicate the
/// key/value rows ~2x (sliding chunk) and the rolled block stack ~3x
/// (blockify), which is exactly the overhead the paper charges them with.
///
/// These serve as a fourth processing family next to Multigrain's coarse
/// kernel for the pure-banded parts; bench_section24_chunked compares them.
namespace multigrain::kernels {

/// Functional sliding-chunk attention: exactly local(window) sparse
/// attention — softmax(scale * QKᵀ masked to |i-j| <= window) * V —
/// computed the Longformer way: per w-row query chunk, a dense GEMM
/// against the surrounding key slab, dense masked softmax, dense PV.
/// Requires window > 0 and seq_len % window == 0.
HalfMatrix sliding_chunk_attention(const HalfMatrix &q, const HalfMatrix &k,
                                   const HalfMatrix &v, index_t window,
                                   double scale);

/// Functional blockify attention: exactly blocked_local(block, 1) sparse
/// attention computed the BigBird way: keys/values stacked as
/// [roll(+block); identity; roll(-block)] (the 3x copy), then one dense
/// block x 3 block GEMM per block row. Requires seq_len % block == 0.
HalfMatrix blockify_attention(const HalfMatrix &q, const HalfMatrix &k,
                              const HalfMatrix &v, index_t block,
                              double scale);

/// Performance plan for sliding-chunk attention: chunk-copy kernels
/// (the 2x duplication of K and V), batched chunk GEMMs, masked dense
/// softmax over the chunk scores, batched PV GEMMs. Recorded on stream 0
/// with `name_prefix` on every kernel, ready to replay into a GpuSim.
sim::LaunchGraph plan_sliding_chunk(const sim::DeviceSpec &dev,
                                    index_t seq_len, index_t window,
                                    index_t head_dim, index_t replicas,
                                    const std::string &name_prefix = "chunk.");

/// Performance plan for blockify attention: the 3x stack copies plus
/// batched block GEMMs and softmax.
sim::LaunchGraph plan_blockify(const sim::DeviceSpec &dev, index_t seq_len,
                               index_t block, index_t head_dim,
                               index_t replicas,
                               const std::string &name_prefix = "blockify.");

}  // namespace multigrain::kernels

#endif  // MULTIGRAIN_KERNELS_CHUNKED_BASELINE_H_
