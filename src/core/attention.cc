#include "core/attention.h"

#include <algorithm>
#include <cmath>
#include <array>
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/timer.h"
#include "core/check.h"
#include "formats/convert.h"
#include "kernels/backward.h"
#include "kernels/blocked_baseline.h"
#include "kernels/coarse.h"
#include "kernels/compound_softmax.h"
#include "kernels/dense.h"
#include "kernels/fine.h"

namespace multigrain {

namespace {

std::string
attention_meta_key(std::uint64_t pattern_fp, const AttentionConfig &config,
                   SliceMode mode)
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "attn|fp=%016llx|dh=%lld|nh=%lld|b=%lld|blk=%lld|scale=%.17g"
        "|fs=%d|ms=%d|gd=%d|mode=%d",
        static_cast<unsigned long long>(pattern_fp),
        static_cast<long long>(config.head_dim),
        static_cast<long long>(config.num_heads),
        static_cast<long long>(config.batch),
        static_cast<long long>(config.block), config.scale,
        static_cast<int>(config.fine_scheme),
        config.multi_stream ? 1 : 0, config.route_global_to_dense ? 1 : 0,
        static_cast<int>(mode));
    return buf;
}

// ---------------------------------------------------------------------------
// The part table every plan is recorded from.

// Definedness declarations for the annotations below (core/check.h).
// The o / dq / dk / dv accumulators start on zero-filled allocations and
// escape the graph as results; the stashed probabilities (%p.*) and the
// setup-time additive mask flow *into* a graph that never writes them.
constexpr unsigned kAccumOut = sim::kBufZeroInit | sim::kBufOutput;
constexpr unsigned kInbound = sim::kBufInput;
constexpr std::uint64_t kValueBytes = 2;  // FP16.
constexpr std::uint64_t kIndexBytes = 4;

using Planner = std::function<sim::KernelLaunch(const sim::DeviceSpec &)>;

/// One part's S, P, dP or dS over its layout: BSR for the coarse-grained
/// kernels, CSR for every other part.
struct Scores {
    BsrMatrix bsr;
    CsrMatrix csr;
};

/// One part of a plan (§3.1): the share of the pattern one kernel family
/// computes on one stream. Multigrain has up to three — coarse, fine and
/// global — and each baseline has one.
struct Part {
    std::string tag;   ///< Buffers %s.<tag>, %p.<tag> and %dp.<tag>.
    int stream = 0;    ///< Slot, in coarse → fine → special order.
    std::string name;  ///< Forward kernels sddmm.<name>, spmm.<name>.
    std::string bwd;   ///< Backward kernels bwd.sddmm.dp<bwd>, ...
    /// FP16 values of one of S, P or dP, over batch × heads replicas.
    std::uint64_t bytes = 0;
    /// Pattern metadata the replicas share: index arrays, or the dense
    /// baseline's additive mask.
    std::uint64_t shared = 0;
    std::function<sim::KernelLaunch(const sim::DeviceSpec &,
                                    const std::string &name)>
        sddmm{};
    /// The SpMM over the part's layout, or over its transpose.
    std::function<sim::KernelLaunch(const sim::DeviceSpec &,
                                    bool transposed, const std::string &name)>
        spmm{};
    /// Zeroed scores over the layout run() and run_backward() compute the
    /// part on; built on use, so capture never lays out the global rows.
    std::function<Scores()> scores{};
};

/// Parts one softmax normalizes, on one stream. Multigrain's coarse and
/// fine parts share a denominator (§3.3), so one compound kernel covers
/// both; its global rows are independent and run a dense softmax.
struct SoftmaxGroup {
    std::vector<std::size_t> parts;  ///< Indices into PartTable::parts.
    int stream = 0;
    Planner forward;
    Planner backward;
    Planner mask{};  ///< Dense baseline only: the additive-mask pass first.
};

struct PartTable {
    int streams = 1;        ///< Stream slots the parts use.
    std::uint64_t qkv = 0;  ///< Each of q/k/v/o and d_out/dq/dk/dv.
    std::vector<Part> parts;
    std::vector<SoftmaxGroup> groups;
};

/// Describes the plan's parts, in coarse → fine → special order. Only a
/// sparse part with work gets an entry, so forward and backward launch
/// the same parts; the dense baseline always runs. Multi-stream Multigrain
/// gives each part present the next stream slot, so a plan opens only the
/// streams its parts use.
PartTable
part_table(const CachedPlanState &state, const AttentionConfig &config)
{
    const SlicePlan &plan = state.plan();
    const index_t dh = config.head_dim;
    const index_t replicas = config.batch * config.num_heads;
    const auto values = [replicas](index_t elements) {
        return static_cast<std::uint64_t>(elements) * kValueBytes *
               static_cast<std::uint64_t>(replicas);
    };
    const auto indices = [](std::size_t count) {
        return static_cast<std::uint64_t>(count) * kIndexBytes;
    };
    const bool multi =
        plan.mode == SliceMode::kMultigrain && config.multi_stream;
    PartTable t;
    t.qkv = values(plan.seq_len * dh);
    int slots = 0;
    const auto next_slot = [&] { return multi ? slots++ : 0; };

    const BsrLayout *coarse = plan.has_coarse() ? plan.coarse.get() : nullptr;
    const CsrLayout *fine = plan.has_fine() ? plan.fine.get() : nullptr;
    // The coarse and fine parts share one softmax group on the first
    // slot; the baselines swap in their own forward kernel.
    SoftmaxGroup sparse;
    sparse.forward = [=](const sim::DeviceSpec &dev) {
        return kernels::plan_compound_softmax(dev, coarse, fine, replicas,
                                              "softmax.compound");
    };
    sparse.backward = [=](const sim::DeviceSpec &dev) {
        return kernels::plan_compound_softmax_backward(
            dev, coarse, fine, replicas, "bwd.softmax.compound");
    };
    if (coarse != nullptr) {
        const bool triton = plan.mode == SliceMode::kCoarseOnly;
        const auto spmm =
            triton ? &kernels::plan_triton_spmm : &kernels::plan_coarse_spmm;
        Part part{.tag = "coarse",
                  .stream = next_slot(),
                  .name = triton ? "triton" : "coarse",
                  .bwd = "",
                  .bytes = values(coarse->total_stored()),
                  .shared = indices(coarse->row_offsets.size() +
                                    coarse->col_indices.size()) +
                            coarse->valid_bits.size() * 8};
        // Triton's SDDMM reads BCOO while its SpMM reads BSR (§2.4's
        // format duplication).
        part.sddmm = [=](const sim::DeviceSpec &dev, const std::string &name) {
            return triton ? kernels::plan_triton_sddmm(
                                dev, bcoo_from_bsr(*coarse), dh, replicas,
                                name)
                          : kernels::plan_coarse_sddmm(dev, *coarse, dh,
                                                       replicas, name);
        };
        part.spmm = [=, &state](const sim::DeviceSpec &dev, bool transposed,
                                const std::string &name) {
            return spmm(dev, transposed ? state.coarse_transposed() : *coarse,
                        dh, replicas, name);
        };
        part.scores = [layout = plan.coarse] {
            return Scores{BsrMatrix(layout), {}};
        };
        if (triton) {
            sparse.forward = [=](const sim::DeviceSpec &dev) {
                return kernels::plan_triton_softmax(dev, *coarse, replicas,
                                                    "softmax.triton");
            };
        }
        sparse.parts.push_back(t.parts.size());
        t.parts.push_back(std::move(part));
    }
    if (fine != nullptr) {
        const bool sputnik = plan.mode == SliceMode::kFineOnly;
        const kernels::FineSddmmScheme scheme = config.fine_scheme;
        Part part{.tag = "fine",
                  .stream = next_slot(),
                  .name = sputnik ? "sputnik" : "fine",
                  .bwd = ".fine",
                  .bytes = values(fine->nnz()),
                  .shared = indices(fine->row_offsets.size() +
                                    fine->col_indices.size())};
        part.sddmm = [=](const sim::DeviceSpec &dev, const std::string &name) {
            return kernels::plan_fine_sddmm(dev, *fine, dh, replicas, scheme,
                                            name);
        };
        part.spmm = [=, &state](const sim::DeviceSpec &dev, bool transposed,
                                const std::string &name) {
            return kernels::plan_fine_spmm(
                dev, transposed ? state.fine_transposed() : *fine, dh,
                replicas, name);
        };
        part.scores = [layout = plan.fine] {
            return Scores{{}, CsrMatrix(layout)};
        };
        if (sputnik) {
            sparse.forward = [=](const sim::DeviceSpec &dev) {
                return kernels::plan_fine_softmax(dev, *fine, replicas,
                                                  "softmax.sputnik");
            };
        }
        sparse.parts.push_back(t.parts.size());
        t.parts.push_back(std::move(part));
    }
    if (!sparse.parts.empty()) {
        t.groups.push_back(std::move(sparse));
    }

    // A part of dense kernels over rows × cols with a dense softmax of its
    // own: the global rows (§3.1), or the whole L × L for the dense
    // baseline. Its CPU kernels compute over `layout`, a CSR of what the
    // dense kernels keep.
    const auto dense = [&](const char *tag, int stream, const char *name,
                           const char *bwd, index_t rows, index_t cols,
                           std::uint64_t shared,
                           std::function<std::shared_ptr<const CsrLayout>()>
                               layout) {
        Part part{.tag = tag,
                  .stream = stream,
                  .name = name,
                  .bwd = bwd,
                  .bytes = values(rows * cols),
                  .shared = shared};
        part.scores = [layout] { return Scores{{}, CsrMatrix(layout())}; };
        part.sddmm = [=](const sim::DeviceSpec &dev, const std::string &n) {
            return kernels::plan_dense_gemm(dev, rows, cols, dh, replicas, n);
        };
        part.spmm = [=](const sim::DeviceSpec &dev, bool transposed,
                        const std::string &n) {
            return kernels::plan_dense_gemm(dev, transposed ? cols : rows, dh,
                                            transposed ? rows : cols,
                                            replicas, n);
        };
        const auto softmax = [=](const std::string &n) {
            return [=](const sim::DeviceSpec &dev) {
                return kernels::plan_dense_softmax(dev, rows, cols, replicas,
                                                   n);
            };
        };
        t.groups.push_back(
            {.parts = {t.parts.size()},
             .stream = stream,
             .forward = softmax(std::string("softmax.") + name),
             .backward = softmax(std::string("bwd.softmax") + bwd)});
        t.parts.push_back(std::move(part));
    };
    if (plan.has_special()) {
        const auto g = static_cast<index_t>(plan.global_rows.size());
        dense("global", next_slot(), "global", ".global", g, plan.valid_len,
              indices(plan.global_rows.size()),
              [&state] { return state.global_layout(); });
    }
    if (plan.mode == SliceMode::kDense) {
        // Naive baseline: dense QKᵀ, an additive -inf mask pass, dense
        // softmax, dense PV. O(L²) regardless of sparsity. The mask is
        // exactly what the full layout leaves out.
        const index_t seq = plan.seq_len;
        dense("full", 0, "dense", ".dense", seq, seq,
              static_cast<std::uint64_t>(seq * seq) * kValueBytes,
              [layout = plan.full] { return layout; });
        const auto elementwise = [=](double flops, const char *name) {
            return [=](const sim::DeviceSpec &dev) {
                return kernels::plan_elementwise(dev, seq * seq * replicas, 2,
                                                 flops, name);
            };
        };
        t.groups.back().mask = elementwise(2.0, "softmax.dense.mask");
        t.groups.back().backward = elementwise(6.0, "bwd.softmax.dense");
    }
    t.streams = std::max(slots, 1);
    return t;
}

/// One phase's launches in record order, each with its stream slot.
using Phase = std::vector<std::pair<int, sim::KernelLaunch>>;

/// The three forward phases: SDDMM, softmax, SpMM.
std::array<Phase, 3>
forward_phases(const PartTable &t, const sim::DeviceSpec &dev)
{
    std::array<Phase, 3> phases;
    for (const Part &part : t.parts) {
        const std::string s = "%s." + part.tag;
        phases[0].emplace_back(
            part.stream,
            sim::annotate(part.sddmm(dev, "sddmm." + part.name),
                          {{"q", t.qkv}, {"k", t.qkv}},
                          {{s.c_str(), part.bytes}}));
        // Every part accumulates into the shared output rows — a
        // commutative RMW, so the streams may overlap freely.
        phases[2].emplace_back(
            part.stream,
            sim::annotate(part.spmm(dev, false, "spmm." + part.name),
                          {{s.c_str(), part.bytes}, {"v", t.qkv}}, {},
                          {{"o", t.qkv, kAccumOut}}));
    }
    // One softmax per group. The compound one runs on the coarse stream
    // and reads %s.fine: exactly the cross-stream edge the preceding join
    // barrier exists to create.
    for (const SoftmaxGroup &group : t.groups) {
        if (group.mask) {
            const Part &part = t.parts[group.parts.front()];
            const std::string s = "%s." + part.tag;
            phases[1].emplace_back(
                group.stream,
                sim::annotate(group.mask(dev),
                              {{s.c_str(), part.bytes},
                               {"%mask", part.shared, kInbound}},
                              {{s.c_str(), part.bytes}}));
        }
        sim::KernelLaunch softmax = group.forward(dev);
        for (const std::size_t i : group.parts) {
            const std::string s = "%s." + t.parts[i].tag;
            softmax = sim::annotate(std::move(softmax),
                                    {{s.c_str(), t.parts[i].bytes}},
                                    {{s.c_str(), t.parts[i].bytes}});
        }
        phases[1].emplace_back(group.stream, std::move(softmax));
    }
    return phases;
}

/// The three backward phases: the dP SDDMMs and the dV transposed SpMMs,
/// then the fused softmax backward, then the dQ SpMMs and the dK
/// transposed SpMMs.
std::array<Phase, 3>
backward_phases(const PartTable &t, const sim::DeviceSpec &dev)
{
    std::array<Phase, 3> phases;
    for (const Part &part : t.parts) {
        const std::string p = "%p." + part.tag;
        const std::string dp = "%dp." + part.tag;
        phases[0].emplace_back(
            part.stream,
            sim::annotate(part.sddmm(dev, "bwd.sddmm.dp" + part.bwd),
                          {{"d_out", t.qkv}, {"v", t.qkv}},
                          {{dp.c_str(), part.bytes}}));
        phases[0].emplace_back(
            part.stream,
            sim::annotate(part.spmm(dev, true, "bwd.spmm_t.dv" + part.bwd),
                          {{p.c_str(), part.bytes, kInbound},
                           {"d_out", t.qkv}},
                          {}, {{"dv", t.qkv, kAccumOut}}));
        phases[2].emplace_back(
            part.stream,
            sim::annotate(part.spmm(dev, false, "bwd.spmm.dq" + part.bwd),
                          {{dp.c_str(), part.bytes}, {"k", t.qkv}}, {},
                          {{"dq", t.qkv, kAccumOut}}));
        phases[2].emplace_back(
            part.stream,
            sim::annotate(part.spmm(dev, true, "bwd.spmm_t.dk" + part.bwd),
                          {{dp.c_str(), part.bytes}, {"q", t.qkv}}, {},
                          {{"dk", t.qkv, kAccumOut}}));
    }
    // The coupled softmax backward reads every part's P, then every dP.
    for (const SoftmaxGroup &group : t.groups) {
        sim::KernelLaunch softmax = group.backward(dev);
        for (const std::size_t i : group.parts) {
            const std::string p = "%p." + t.parts[i].tag;
            softmax = sim::annotate(std::move(softmax),
                                    {{p.c_str(), t.parts[i].bytes, kInbound}},
                                    {});
        }
        for (const std::size_t i : group.parts) {
            const std::string dp = "%dp." + t.parts[i].tag;
            softmax = sim::annotate(std::move(softmax),
                                    {{dp.c_str(), t.parts[i].bytes}},
                                    {{dp.c_str(), t.parts[i].bytes}});
        }
        phases[1].emplace_back(group.stream, std::move(softmax));
    }
    return phases;
}

/// Records `phases` on a fresh graph, a join after each. The table's
/// streams open eagerly in coarse → fine → special order, so an engine's
/// forward and backward graphs number their logical streams alike.
LaunchGraph
record_phases(const PartTable &t, const std::array<Phase, 3> &phases)
{
    LaunchGraph graph;
    std::vector<int> streams;
    for (int slot = 0; slot < t.streams; ++slot) {
        streams.push_back(graph.create_stream());
    }
    for (const Phase &phase : phases) {
        for (const auto &[slot, launch] : phase) {
            graph.launch(streams[static_cast<std::size_t>(slot)], launch);
        }
        graph.join_streams();
    }
    return graph;
}

/// a·bᵀ sampled over every part's layout, and the CPU kernels that read
/// such scores: the executor's one branch on format.
class PartScores {
  public:
    PartScores(const PartTable &t, const HalfMatrix &a, const HalfMatrix &b)
    {
        for (const Part &part : t.parts) {
            Scores &s = scores_.emplace_back(part.scores());
            if (s.bsr.layout) {
                kernels::coarse_sddmm(a, b, s.bsr);
            } else {
                kernels::fine_sddmm(a, b, s.csr);
            }
        }
    }

    /// The group's members in the coarse and fine slots the compound
    /// softmax kernels take; a group holds at most one of each format.
    std::pair<BsrMatrix *, CsrMatrix *> group(const SoftmaxGroup &g)
    {
        std::pair<BsrMatrix *, CsrMatrix *> slots{nullptr, nullptr};
        for (const std::size_t i : g.parts) {
            Scores &s = scores_[i];
            if (s.bsr.layout) {
                slots.first = &s.bsr;
            } else {
                slots.second = &s.csr;
            }
        }
        return slots;
    }

    /// c += part i's scores · b, or their transpose · b.
    void spmm(std::size_t i, const HalfMatrix &b, FloatMatrix &c,
              bool transposed) const
    {
        const Scores &s = scores_[i];
        if (s.bsr.layout && transposed) {
            kernels::coarse_spmm_transposed(s.bsr, b, c);
        } else if (s.bsr.layout) {
            kernels::coarse_spmm(s.bsr, b, c);
        } else if (transposed) {
            kernels::fine_spmm_transposed(s.csr, b, c);
        } else {
            kernels::fine_spmm(s.csr, b, c);
        }
    }

  private:
    std::vector<Scores> scores_;
};

HalfMatrix
to_half(const FloatMatrix &m)
{
    HalfMatrix out(m.rows(), m.cols());
    for (index_t i = 0; i < m.rows() * m.cols(); ++i) {
        out.data()[i] = half(m.data()[i]);
    }
    return out;
}

}  // namespace

double
AttentionConfig::effective_scale() const
{
    if (scale != 0.0) {
        return scale;
    }
    return 1.0 / std::sqrt(static_cast<double>(head_dim));
}

AttentionEngine::AttentionEngine(const CompoundPattern &pattern,
                                 const AttentionConfig &config,
                                 SliceMode mode)
    : config_(config),
      pattern_fp_(pattern.fingerprint())
{
    MG_CHECK(config.head_dim > 0 && config.num_heads > 0 &&
             config.batch > 0)
        << "attention config needs positive dims";
    meta_key_ = attention_meta_key(pattern_fp_, config_, mode);
    state_ = PlanCache::instance().get_or_build<CachedPlanState>(
        meta_key_, [&] {
            SliceOptions options;
            options.block = config_.block;
            options.mode = mode;
            options.route_global_to_dense = config_.route_global_to_dense;
            return std::make_shared<const CachedPlanState>(
                slice_and_dice(pattern, options));
        });
}

HalfMatrix
AttentionEngine::run(const HalfMatrix &q, const HalfMatrix &k,
                     const HalfMatrix &v) const
{
    const index_t seq = plan().seq_len;
    const index_t dh = config_.head_dim;
    MG_CHECK(q.rows() == seq && k.rows() == seq && v.rows() == seq)
        << "q/k/v must have seq_len rows";
    MG_CHECK(q.cols() == dh && k.cols() == dh && v.cols() == dh)
        << "q/k/v must have head_dim columns";
    const double scale = config_.effective_scale();

    // SDDMM per part, one softmax per group, then each part's P·V.
    const PartTable table = part_table(*state_, config_);
    PartScores s(table, q, k);
    for (const SoftmaxGroup &group : table.groups) {
        const auto [coarse, fine] = s.group(group);
        kernels::compound_softmax(coarse, fine, scale);
    }
    FloatMatrix out(seq, dh, 0.0f);
    for (std::size_t i = 0; i < table.parts.size(); ++i) {
        s.spmm(i, v, out, false);
    }
    return to_half(out);
}

// ---------------------------------------------------------------------------
// Capture: graphs built once per (plan key, device), served from the cache.

std::shared_ptr<const LaunchGraph>
AttentionEngine::forward_graph(const sim::DeviceSpec &device) const
{
    const std::string key = meta_key_ + "|fwd|" + device_plan_key(device);
    return PlanCache::instance().get_or_build<LaunchGraph>(key, [&] {
        const ScopedTimer timer("plan.capture");
        const PartTable table = part_table(*state_, config_);
        auto graph = std::make_shared<LaunchGraph>(
            record_phases(table, forward_phases(table, device)));
        // Hazards, memory plan and definedness (core/check.h); throwing
        // keeps a racy plan out of the cache.
        verify_capture(*graph, device, key);
        return graph;
    });
}

std::shared_ptr<const MemPlan>
AttentionEngine::forward_memplan(const sim::DeviceSpec &device) const
{
    const std::string key = meta_key_ + "|fwd|" + device_plan_key(device);
    return memplan_for(key, *forward_graph(device));
}

std::shared_ptr<const MemPlan>
AttentionEngine::backward_memplan(const sim::DeviceSpec &device) const
{
    const std::string key = meta_key_ + "|bwd|" + device_plan_key(device);
    return memplan_for(key, *backward_graph(device));
}

std::shared_ptr<const LaunchGraph>
AttentionEngine::backward_graph(const sim::DeviceSpec &device) const
{
    const std::string key = meta_key_ + "|bwd|" + device_plan_key(device);
    return PlanCache::instance().get_or_build<LaunchGraph>(key, [&] {
        const ScopedTimer timer("plan.capture");
        const PartTable table = part_table(*state_, config_);
        auto graph = std::make_shared<LaunchGraph>(
            record_phases(table, backward_phases(table, device)));
        verify_capture(*graph, device, key);
        return graph;
    });
}

double
AttentionEngine::attention_memory_bytes() const
{
    // S and P share each part's layout and both live between phases; the
    // metadata is stored once for every replica.
    std::uint64_t bytes = 0;
    for (const Part &part : part_table(*state_, config_).parts) {
        bytes += 2 * part.bytes + part.shared;
    }
    return static_cast<double>(bytes);
}

AttentionEngine::Grads
AttentionEngine::run_backward(const HalfMatrix &q, const HalfMatrix &k,
                              const HalfMatrix &v,
                              const HalfMatrix &d_out) const
{
    const index_t seq = plan().seq_len;
    const index_t dh = config_.head_dim;
    MG_CHECK(d_out.rows() == seq && d_out.cols() == dh)
        << "d_out must be seq_len x head_dim";
    MG_CHECK(q.rows() == seq && q.cols() == dh && k.rows() == seq &&
             k.cols() == dh && v.rows() == seq && v.cols() == dh)
        << "q/k/v must be seq_len x head_dim";
    const double scale = config_.effective_scale();

    // Recompute P (flash-style) and sample dP = dC·Vᵀ over every part;
    // then dS = P ⊙ (dP − rowsum(P ⊙ dP)) · scale, one kernel per group.
    const PartTable table = part_table(*state_, config_);
    PartScores p(table, q, k);
    PartScores ds(table, d_out, v);
    for (const SoftmaxGroup &group : table.groups) {
        const auto [p_coarse, p_fine] = p.group(group);
        kernels::compound_softmax(p_coarse, p_fine, scale);
        const auto [ds_coarse, ds_fine] = ds.group(group);
        kernels::compound_softmax_backward(p_coarse, ds_coarse, p_fine,
                                           ds_fine, scale);
    }
    // dQ = dS·K, dK = dSᵀ·Q, dV = Pᵀ·dC.
    FloatMatrix dq(seq, dh, 0.0f), dk(seq, dh, 0.0f), dv(seq, dh, 0.0f);
    for (std::size_t i = 0; i < table.parts.size(); ++i) {
        ds.spmm(i, k, dq, false);
        ds.spmm(i, q, dk, true);
        p.spmm(i, d_out, dv, true);
    }
    return {to_half(dq), to_half(dk), to_half(dv)};
}

sim::SimResult
AttentionEngine::simulate(const sim::DeviceSpec &device) const
{
    return sim::simulate(device, *forward_graph(device));
}

}  // namespace multigrain
