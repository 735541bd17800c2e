#include "kernels/chunked_baseline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/util.h"
#include "kernels/cost_model.h"
#include "kernels/dense.h"

namespace multigrain::kernels {

namespace {

/// Dense masked-chunk attention shared by both functional paths: for each
/// `rows_per_chunk`-row query chunk, attend the key/value slab
/// [slab_lo(chunk), slab_hi(chunk)) with the element mask `in_band`.
template <typename SlabLo, typename SlabHi, typename InBand>
HalfMatrix
chunked_attention(const HalfMatrix &q, const HalfMatrix &k,
                  const HalfMatrix &v, index_t rows_per_chunk, double scale,
                  SlabLo slab_lo, SlabHi slab_hi, InBand in_band)
{
    const index_t seq = q.rows();
    const index_t dh = q.cols();
    HalfMatrix out(seq, dh, half(0.0f));
    const float fscale = static_cast<float>(scale);

    const index_t chunks = seq / rows_per_chunk;
    for (index_t c = 0; c < chunks; ++c) {
        const index_t lo = slab_lo(c);
        const index_t hi = slab_hi(c);
        const index_t slab = hi - lo;
        // Dense chunk scores with FP32 accumulation, then masked softmax.
        std::vector<float> scores(static_cast<std::size_t>(slab));
        for (index_t r = c * rows_per_chunk; r < (c + 1) * rows_per_chunk;
             ++r) {
            float max_v = -std::numeric_limits<float>::infinity();
            for (index_t j = 0; j < slab; ++j) {
                const index_t col = lo + j;
                float acc = 0.0f;
                for (index_t d = 0; d < dh; ++d) {
                    acc += float(q.at(r, d)) * float(k.at(col, d));
                }
                // Round through FP16 like the real chunk GEMM's output.
                const float s16 = float(half(acc));
                scores[static_cast<std::size_t>(j)] =
                    in_band(r, col) ? fscale * s16
                                    : -std::numeric_limits<float>::infinity();
                max_v = std::max(max_v, scores[static_cast<std::size_t>(j)]);
            }
            float sum = 0.0f;
            for (index_t j = 0; j < slab; ++j) {
                float &s = scores[static_cast<std::size_t>(j)];
                s = s == -std::numeric_limits<float>::infinity()
                        ? 0.0f
                        : std::exp(s - max_v);
                sum += s;
            }
            for (index_t d = 0; d < dh; ++d) {
                float acc = 0.0f;
                for (index_t j = 0; j < slab; ++j) {
                    const float p =
                        sum > 0.0f
                            ? float(half(scores[static_cast<std::size_t>(j)] /
                                         sum))
                            : 0.0f;
                    acc += p * float(v.at(lo + j, d));
                }
                out.at(r, d) = half(acc);
            }
        }
    }
    return out;
}

}  // namespace

HalfMatrix
sliding_chunk_attention(const HalfMatrix &q, const HalfMatrix &k,
                        const HalfMatrix &v, index_t window, double scale)
{
    MG_CHECK(window > 0) << "sliding chunk needs a positive window";
    MG_CHECK(q.rows() % window == 0)
        << "sliding chunk needs seq_len (" << q.rows()
        << ") divisible by the window (" << window << ")";
    MG_CHECK(q.same_shape(k) && q.same_shape(v))
        << "q/k/v must share shapes";
    const index_t seq = q.rows();
    return chunked_attention(
        q, k, v, window, scale,
        [&](index_t c) { return std::max<index_t>(0, (c - 1) * window); },
        [&](index_t c) { return std::min(seq, (c + 2) * window); },
        [&](index_t r, index_t col) {
            return col >= r - window && col <= r + window;
        });
}

HalfMatrix
blockify_attention(const HalfMatrix &q, const HalfMatrix &k,
                   const HalfMatrix &v, index_t block, double scale)
{
    MG_CHECK(block > 0) << "blockify needs a positive block";
    MG_CHECK(q.rows() % block == 0)
        << "blockify needs seq_len divisible by the block";
    MG_CHECK(q.same_shape(k) && q.same_shape(v))
        << "q/k/v must share shapes";
    const index_t seq = q.rows();
    return chunked_attention(
        q, k, v, block, scale,
        [&](index_t c) { return std::max<index_t>(0, (c - 1) * block); },
        [&](index_t c) { return std::min(seq, (c + 2) * block); },
        [&](index_t r, index_t col) {
            // Whole-block membership: |block(r) - block(col)| <= 1.
            const index_t br = r / block;
            const index_t bc = col / block;
            return bc + 1 >= br && bc <= br + 1;
        });
}

namespace {

/// Records the shared kernel sequence of both chunked methods:
/// copy K/V into the duplicated chunk layout, batched chunk GEMM, masked
/// dense softmax over the chunk scores, batched PV GEMM, copy back.
sim::LaunchGraph
plan_chunked(const sim::DeviceSpec &dev, index_t seq_len,
             index_t rows_per_chunk, index_t head_dim, index_t replicas,
             double copy_factor, const std::string &prefix)
{
    MG_CHECK(rows_per_chunk > 0 && seq_len % rows_per_chunk == 0)
        << "chunked plan needs seq_len divisible by the chunk";
    sim::LaunchGraph graph;
    const index_t chunks = seq_len / rows_per_chunk;
    const index_t slab = 3 * rows_per_chunk;

    // Pre-processing: materialize the duplicated K and V chunk tensors
    // (the §2.4 memory-copy overhead: copy_factor x the original size).
    const index_t copied =
        static_cast<index_t>(copy_factor *
                             static_cast<double>(seq_len * head_dim)) *
        replicas * 2;  // K and V.
    graph.launch(0,
                 plan_elementwise(dev, copied, 1, 0.0, prefix + "copy_in"));

    // Batched chunk GEMMs: scores = Q_chunk x K_slabᵀ.
    graph.launch(0, plan_dense_gemm(dev, rows_per_chunk, slab, head_dim,
                                    chunks * replicas, prefix + "qk"));
    // Masked softmax over every chunk score, including the ~1/3 of the
    // slab outside the band (computed then masked, as the real kernels do).
    graph.launch(0, plan_dense_softmax(dev, rows_per_chunk * chunks, slab,
                                       replicas, prefix + "softmax"));
    // Batched PV GEMMs.
    graph.launch(0, plan_dense_gemm(dev, rows_per_chunk, head_dim, slab,
                                    chunks * replicas, prefix + "pv"));
    graph.join_streams();
    return graph;
}

}  // namespace

sim::LaunchGraph
plan_sliding_chunk(const sim::DeviceSpec &dev, index_t seq_len,
                   index_t window, index_t head_dim, index_t replicas,
                   const std::string &name_prefix)
{
    // Longformer's chunking of overlapped 2w chunks stepping w duplicates
    // each K/V row twice.
    return plan_chunked(dev, seq_len, window, head_dim, replicas, 2.0,
                        name_prefix);
}

sim::LaunchGraph
plan_blockify(const sim::DeviceSpec &dev, index_t seq_len, index_t block,
              index_t head_dim, index_t replicas,
              const std::string &name_prefix)
{
    // BigBird stacks three rolled copies of K/V.
    return plan_chunked(dev, seq_len, block, head_dim, replicas, 3.0,
                        name_prefix);
}

}  // namespace multigrain::kernels
