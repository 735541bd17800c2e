#include "core/attention.h"

#include <algorithm>
#include <cmath>
#include <array>
#include <cstdio>
#include <functional>
#include <limits>
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

/// One part of a plan (§3.1): the share of the pattern one kernel family
/// computes on one stream. Multigrain has up to three — coarse, fine and
/// global — and each baseline has one.
struct Part {
    std::string tag;   ///< Buffers %s.<tag>, %p.<tag> and %dp.<tag>.
    int stream = 0;    ///< Slot: 0 coarse, 1 fine, 2 special.
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
    int streams = 1;        ///< Stream slots every graph opens.
    std::uint64_t qkv = 0;  ///< Each of q/k/v/o and d_out/dq/dk/dv.
    std::vector<Part> parts;
    std::vector<SoftmaxGroup> groups;
};

/// Describes the plan's parts, in coarse → fine → special order. Only a
/// sparse part with work gets an entry, so forward and backward launch
/// the same parts; the dense baseline always runs.
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
    t.streams = multi ? 3 : 1;
    t.qkv = values(plan.seq_len * dh);

    const BsrLayout *coarse = plan.has_coarse() ? plan.coarse.get() : nullptr;
    const CsrLayout *fine = plan.has_fine() ? plan.fine.get() : nullptr;
    // The coarse and fine parts share one softmax group on the coarse
    // stream; the baselines swap in their own forward kernel.
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
                  .stream = 0,
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
                  .stream = multi ? 1 : 0,
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
    // baseline.
    const auto dense = [&](const char *tag, int stream, const char *name,
                           const char *bwd, index_t rows, index_t cols,
                           std::uint64_t shared) {
        Part part{.tag = tag,
                  .stream = stream,
                  .name = name,
                  .bwd = bwd,
                  .bytes = values(rows * cols),
                  .shared = shared};
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
        dense("global", multi ? 2 : 0, "global", ".global", g, plan.valid_len,
              indices(plan.global_rows.size()));
    }
    if (plan.mode == SliceMode::kDense) {
        // Naive baseline: dense QKᵀ, an additive -inf mask pass, dense
        // softmax, dense PV. O(L²) regardless of sparsity.
        const index_t seq = plan.seq_len;
        dense("full", 0, "dense", ".dense", seq, seq,
              static_cast<std::uint64_t>(seq * seq) * kValueBytes);
        const auto elementwise = [=](double flops, const char *name) {
            return [=](const sim::DeviceSpec &dev) {
                return kernels::plan_elementwise(dev, seq * seq * replicas, 2,
                                                 flops, name);
            };
        };
        t.groups.back().mask = elementwise(2.0, "softmax.dense.mask");
        t.groups.back().backward = elementwise(6.0, "bwd.softmax.dense");
    }
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

/// Opens the table's streams on a fresh graph, eagerly in coarse → fine
/// → special order. Creation order is part of the replay contract: every
/// graph of one engine numbers its logical streams alike, so one binding
/// or stream map serves all of them. Each engine gets its own streams so
/// several engines' phases can co-schedule (heterogeneous batches).
std::vector<int>
open_streams(LaunchGraph &graph, const PartTable &t)
{
    std::vector<int> streams;
    for (int slot = 0; slot < t.streams; ++slot) {
        streams.push_back(graph.create_stream());
    }
    return streams;
}

void
record(LaunchGraph &graph, const std::vector<int> &streams,
       const Phase &phase)
{
    for (const auto &[slot, launch] : phase) {
        graph.launch(streams[static_cast<std::size_t>(slot)], launch);
    }
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

    if (plan().mode == SliceMode::kDense) {
        // Naive baseline: dense QK^T, additive -inf mask from the pattern,
        // dense softmax, dense PV. O(L^2) regardless of sparsity.
        HalfMatrix s(seq, seq);
        kernels::dense_gemm_nt(q, k, s);
        const CsrLayout &full = *plan().full;
        HalfMatrix p(seq, seq, half(0.0f));
        for (index_t r = 0; r < seq; ++r) {
            const index_t begin =
                full.row_offsets[static_cast<std::size_t>(r)];
            const index_t end =
                full.row_offsets[static_cast<std::size_t>(r + 1)];
            if (begin == end) {
                continue;
            }
            float max_v = -std::numeric_limits<float>::infinity();
            for (index_t i = begin; i < end; ++i) {
                const index_t c =
                    full.col_indices[static_cast<std::size_t>(i)];
                max_v = std::max(max_v, static_cast<float>(scale) *
                                            float(s.at(r, c)));
            }
            float sum = 0.0f;
            for (index_t i = begin; i < end; ++i) {
                const index_t c =
                    full.col_indices[static_cast<std::size_t>(i)];
                sum += std::exp(static_cast<float>(scale) *
                                    float(s.at(r, c)) -
                                max_v);
            }
            for (index_t i = begin; i < end; ++i) {
                const index_t c =
                    full.col_indices[static_cast<std::size_t>(i)];
                p.at(r, c) = half(std::exp(static_cast<float>(scale) *
                                               float(s.at(r, c)) -
                                           max_v) /
                                  sum);
            }
        }
        HalfMatrix out(seq, dh);
        kernels::dense_gemm_nn(p, v, out);
        return out;
    }

    FloatMatrix acc(seq, dh, 0.0f);

    // ---- Coarse + fine parts: SDDMM -> one compound softmax -> SpMM.
    BsrMatrix s_coarse;
    CsrMatrix s_fine;
    if (plan().has_coarse()) {
        s_coarse = BsrMatrix(plan().coarse);
        kernels::coarse_sddmm(q, k, s_coarse);
    }
    if (plan().has_fine()) {
        s_fine = CsrMatrix(plan().fine);
        kernels::fine_sddmm(q, k, s_fine);
    }
    if (plan().has_coarse() || plan().has_fine()) {
        kernels::compound_softmax(plan().has_coarse() ? &s_coarse : nullptr,
                                  plan().has_fine() ? &s_fine : nullptr,
                                  scale);
    }
    if (plan().has_coarse()) {
        kernels::coarse_spmm(s_coarse, v, acc);
    }
    if (plan().has_fine()) {
        kernels::fine_spmm(s_fine, v, acc);
    }

    // ---- Special part: global rows as dense GEMM + dense softmax (§3.1).
    if (plan().has_special()) {
        const index_t g = static_cast<index_t>(plan().global_rows.size());
        HalfMatrix qg(g, dh);
        for (index_t i = 0; i < g; ++i) {
            const index_t row =
                plan().global_rows[static_cast<std::size_t>(i)];
            for (index_t d = 0; d < dh; ++d) {
                qg.at(i, d) = q.at(row, d);
            }
        }
        HalfMatrix sg(g, seq);
        kernels::dense_gemm_nt(qg, k, sg);
        kernels::dense_softmax_rows(sg, scale, plan().valid_len);
        HalfMatrix cg(g, dh);
        kernels::dense_gemm_nn(sg, v, cg);
        for (index_t i = 0; i < g; ++i) {
            const index_t row =
                plan().global_rows[static_cast<std::size_t>(i)];
            for (index_t d = 0; d < dh; ++d) {
                // Global rows were carved out of the other parts, so the
                // accumulator is zero here; plain add keeps it uniform.
                acc.at(row, d) += float(cg.at(i, d));
            }
        }
    }

    HalfMatrix out(seq, dh);
    for (index_t r = 0; r < seq; ++r) {
        for (index_t d = 0; d < dh; ++d) {
            out.at(r, d) = half(acc.at(r, d));
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Capture: graphs built once per (plan key, device), served from the cache.

std::shared_ptr<const AttentionEngine::AttentionGraphs>
AttentionEngine::forward_graphs(const sim::DeviceSpec &device) const
{
    const std::string key = meta_key_ + "|fwd|" + device_plan_key(device);
    return PlanCache::instance().get_or_build<AttentionGraphs>(key, [&] {
        const ScopedTimer timer("plan.capture");
        const PartTable table = part_table(*state_, config_);
        auto graphs = std::make_shared<AttentionGraphs>();
        LaunchGraph *fragments[] = {&graphs->sddmm, &graphs->softmax,
                                    &graphs->spmm};
        const std::vector<int> streams =
            open_streams(graphs->forward, table);
        const std::array<Phase, 3> phases = forward_phases(table, device);
        for (std::size_t i = 0; i < phases.size(); ++i) {
            record(*fragments[i], open_streams(*fragments[i], table),
                   phases[i]);
            record(graphs->forward, streams, phases[i]);
            graphs->forward.join_streams();
        }
        // Hazards, memory plan and definedness of the composed graph
        // (core/check.h); throwing keeps a racy plan out of the cache. The
        // fragments launch the same kernels in the same stream order, so
        // a race inside one surfaces here; standalone, a fragment
        // legitimately reads scores a sibling fragment writes, and
        // composers account them through the graph they append into.
        verify_capture(graphs->forward, device, key);
        return graphs;
    });
}

std::shared_ptr<const MemPlan>
AttentionEngine::forward_memplan(const sim::DeviceSpec &device) const
{
    const std::string key = meta_key_ + "|fwd|" + device_plan_key(device);
    return memplan_for(key, forward_graphs(device)->forward);
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
        auto graph = std::make_shared<LaunchGraph>();
        const std::vector<int> streams = open_streams(*graph, table);
        for (const Phase &phase : backward_phases(table, device)) {
            record(*graph, streams, phase);
            graph->join_streams();
        }
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

    FloatMatrix dq(seq, dh, 0.0f), dk(seq, dh, 0.0f), dv(seq, dh, 0.0f);

    // The dense baseline's masked gradients coincide with the element-wise
    // path over the full pattern, so route it through the fine kernels.
    const bool has_coarse = plan().has_coarse();
    const std::shared_ptr<const CsrLayout> fine_layout =
        plan().mode == SliceMode::kDense ? plan().full : plan().fine;
    const bool has_fine =
        fine_layout != nullptr && fine_layout->nnz() > 0;

    // ---- Recompute the forward probabilities (flash-style).
    BsrMatrix p_coarse;
    CsrMatrix p_fine;
    if (has_coarse) {
        p_coarse = BsrMatrix(plan().coarse);
        kernels::coarse_sddmm(q, k, p_coarse);
    }
    if (has_fine) {
        p_fine = CsrMatrix(fine_layout);
        kernels::fine_sddmm(q, k, p_fine);
    }
    if (has_coarse || has_fine) {
        kernels::compound_softmax(has_coarse ? &p_coarse : nullptr,
                                  has_fine ? &p_fine : nullptr, scale);
    }

    // ---- dP = (dC . V^T)|pattern via the forward SDDMM kernels.
    BsrMatrix dp_coarse;
    CsrMatrix dp_fine;
    if (has_coarse) {
        dp_coarse = BsrMatrix(plan().coarse);
        kernels::coarse_sddmm(d_out, v, dp_coarse);
    }
    if (has_fine) {
        dp_fine = CsrMatrix(fine_layout);
        kernels::fine_sddmm(d_out, v, dp_fine);
    }

    // ---- dS = P (dP - rowsum(P dP)) scale, fused across both parts.
    if (has_coarse || has_fine) {
        kernels::compound_softmax_backward(
            has_coarse ? &p_coarse : nullptr,
            has_coarse ? &dp_coarse : nullptr,
            has_fine ? &p_fine : nullptr,
            has_fine ? &dp_fine : nullptr, scale);
    }

    // ---- dQ = dS . K; dK = dS^T . Q; dV = P^T . dC.
    if (has_coarse) {
        kernels::coarse_spmm(dp_coarse, k, dq);
        kernels::coarse_spmm_transposed(dp_coarse, q, dk);
        kernels::coarse_spmm_transposed(p_coarse, d_out, dv);
    }
    if (has_fine) {
        kernels::fine_spmm(dp_fine, k, dq);
        kernels::fine_spmm_transposed(dp_fine, q, dk);
        kernels::fine_spmm_transposed(p_fine, d_out, dv);
    }

    // ---- Special part: dense backward over the global rows.
    if (plan().has_special()) {
        const index_t g = static_cast<index_t>(plan().global_rows.size());
        const index_t valid = plan().valid_len;
        // Recompute P_g.
        HalfMatrix qg(g, dh);
        HalfMatrix dcg(g, dh);
        for (index_t i = 0; i < g; ++i) {
            const index_t row =
                plan().global_rows[static_cast<std::size_t>(i)];
            for (index_t d = 0; d < dh; ++d) {
                qg.at(i, d) = q.at(row, d);
                dcg.at(i, d) = d_out.at(row, d);
            }
        }
        HalfMatrix pg(g, seq);
        kernels::dense_gemm_nt(qg, k, pg);
        kernels::dense_softmax_rows(pg, scale, valid);

        for (index_t i = 0; i < g; ++i) {
            const index_t row =
                plan().global_rows[static_cast<std::size_t>(i)];
            // dp_j = dC_row . V_j ; t = sum_j p_j dp_j.
            std::vector<float> dp(static_cast<std::size_t>(valid));
            float t = 0.0f;
            for (index_t j = 0; j < valid; ++j) {
                float acc = 0.0f;
                for (index_t d = 0; d < dh; ++d) {
                    acc += float(dcg.at(i, d)) * float(v.at(j, d));
                }
                dp[static_cast<std::size_t>(j)] = float(half(acc));
                t += float(pg.at(i, j)) * dp[static_cast<std::size_t>(j)];
            }
            for (index_t j = 0; j < valid; ++j) {
                const float pv = float(pg.at(i, j));
                const float ds = pv * (dp[static_cast<std::size_t>(j)] - t) *
                                 static_cast<float>(scale);
                for (index_t d = 0; d < dh; ++d) {
                    dq.at(row, d) += ds * float(k.at(j, d));
                    dk.at(j, d) += ds * float(qg.at(i, d));
                    dv.at(j, d) += pv * float(dcg.at(i, d));
                }
            }
        }
    }

    Grads grads{HalfMatrix(seq, dh), HalfMatrix(seq, dh),
                HalfMatrix(seq, dh)};
    for (index_t r = 0; r < seq; ++r) {
        for (index_t d = 0; d < dh; ++d) {
            grads.dq.at(r, d) = half(dq.at(r, d));
            grads.dk.at(r, d) = half(dk.at(r, d));
            grads.dv.at(r, d) = half(dv.at(r, d));
        }
    }
    return grads;
}

sim::SimResult
AttentionEngine::simulate(const sim::DeviceSpec &device) const
{
    return sim::simulate(device, forward_graphs(device)->forward);
}

}  // namespace multigrain
