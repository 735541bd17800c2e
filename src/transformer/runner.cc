#include "transformer/runner.h"

#include <cstdint>
#include <cstdio>

#include "common/error.h"
#include "common/timer.h"
#include "core/check.h"
#include "core/plan_cache.h"
#include "kernels/dense.h"

namespace multigrain {

namespace {

AttentionConfig
make_attention_config(const ModelConfig &model, index_t batch,
                      const AttentionConfig *overrides)
{
    MG_CHECK(batch > 0) << "batch must be positive";
    AttentionConfig config;
    if (overrides != nullptr) {
        config = *overrides;
    }
    config.head_dim = model.head_dim();
    config.num_heads = model.num_heads;
    config.batch = batch;
    config.block = model.block;
    return config;
}

const char *
layer_kind_tag(int kind)
{
    switch (kind) {
      case 0: return "infer";
      case 1: return "train_fwd";
      default: return "train_bwd";
    }
}

}  // namespace

TransformerRunner::TransformerRunner(const ModelConfig &model,
                                     SliceMode mode,
                                     const WorkloadSample &sample,
                                     index_t batch,
                                     const AttentionConfig *overrides)
    : model_(model), batch_(batch),
      engine_(build_model_pattern(model_, sample),
              make_attention_config(model_, batch, overrides), mode)
{
}

LaunchGraph
TransformerRunner::build_layer_graph(const sim::DeviceSpec &device,
                                     LayerKind kind) const
{
    const ScopedTimer timer("plan.capture.layer");
    const index_t seq = model_.max_seq_len;
    const index_t d = model_.d_model;
    const index_t ffn = model_.ffn_dim;
    const index_t elems = seq * d * batch_;

    // Byte widths for the sized dataflow annotations (core/memplan.h):
    // FP16 activations replicated over the batch; weights shared across
    // batch elements. q/k/v/o and their gradients are seq × d_model per
    // batch element (head_dim × num_heads = d_model), matching the sizes
    // the attention engines annotate on the same shared buffers.
    constexpr std::uint64_t kValueBytes = 2;  // FP16.
    const std::uint64_t act_d = static_cast<std::uint64_t>(seq) *
                                static_cast<std::uint64_t>(d) *
                                static_cast<std::uint64_t>(batch_) *
                                kValueBytes;
    const std::uint64_t act_ffn = static_cast<std::uint64_t>(seq) *
                                  static_cast<std::uint64_t>(ffn) *
                                  static_cast<std::uint64_t>(batch_) *
                                  kValueBytes;
    const std::uint64_t w_qkv = 3 * static_cast<std::uint64_t>(d) *
                                static_cast<std::uint64_t>(d) * kValueBytes;
    const std::uint64_t w_out = static_cast<std::uint64_t>(d) *
                                static_cast<std::uint64_t>(d) * kValueBytes;
    const std::uint64_t w_ffn = static_cast<std::uint64_t>(d) *
                                static_cast<std::uint64_t>(ffn) *
                                kValueBytes;

    LaunchGraph graph;

    // The engine's graphs open their streams upfront and append onto
    // fresh streams after the dense ops' stream 0, under one buffer
    // namespace (its name reaches mgplan's report).
    const std::shared_ptr<const LaunchGraph> attn =
        kind == LayerKind::kTrainBackward ? engine_.backward_graph(device)
                                          : engine_.forward_graph(device);
    const std::string ns = "e0";

    // The training dense block: flop_scale 1 = forward; 2 = backward
    // (dX and dW GEMMs).
    const auto dense_layer = [&](double flop_scale) {
        for (double rep = 0; rep < flop_scale; ++rep) {
            const std::string suffix =
                flop_scale > 1 ? (rep == 0 ? ".dx" : ".dw") : "";
            sim::KernelLaunch qkv = kernels::plan_dense_gemm(
                device, seq, 3 * d, d, batch_, "gemm.qkv" + suffix);
            sim::KernelLaunch attn_out = kernels::plan_dense_gemm(
                device, seq, d, d, batch_, "gemm.attn_out" + suffix);
            sim::KernelLaunch ffn1 = kernels::plan_dense_gemm(
                device, seq, ffn, d, batch_, "gemm.ffn1" + suffix);
            sim::KernelLaunch ffn2 = kernels::plan_dense_gemm(
                device, seq, d, ffn, batch_, "gemm.ffn2" + suffix);
            // Definedness declarations (core/check.h): the training
            // layer is one slice of a surrounding step, so activations
            // and gradients cross the graph boundary both ways. Reads
            // of stashes the graph itself never writes (%x1/%h1 in the
            // dW pass, the inbound %d.h2 gradient, %d.h1 read by the
            // dX FFN1 before the dX FFN2 re-derives it) are declared
            // kBufInput; stores nothing in-graph drains (the weight
            // gradients, the re-stashed activations, the %d.* pieces
            // the next layer down consumes) are declared kBufOutput.
            if (suffix.empty()) {
                qkv = sim::annotate(std::move(qkv),
                                    {{"x", act_d}, {"w.qkv", w_qkv}},
                                    {{"q", act_d}, {"k", act_d},
                                     {"v", act_d}});
                attn_out = sim::annotate(std::move(attn_out),
                                         {{"o", act_d}, {"w.out", w_out}},
                                         {{"%proj", act_d}});
                ffn1 = sim::annotate(std::move(ffn1),
                                     {{"%x1", act_d, sim::kBufInput},
                                      {"w.ffn1", w_ffn}},
                                     {{"%h1", act_ffn}});
                ffn2 = sim::annotate(std::move(ffn2),
                                     {{"%h1", act_ffn}, {"w.ffn2", w_ffn}},
                                     {{"%h2", act_d, sim::kBufOutput}});
            } else if (suffix == ".dx") {
                qkv = sim::annotate(std::move(qkv),
                                    {{"dq", act_d}, {"dk", act_d},
                                     {"dv", act_d}, {"w.qkv", w_qkv}},
                                    {{"d.x", act_d}});
                attn_out = sim::annotate(std::move(attn_out),
                                         {{"d.ln1", act_d},
                                          {"w.out", w_out}},
                                         {{"%d.o", act_d,
                                           sim::kBufOutput}});
                ffn1 = sim::annotate(std::move(ffn1),
                                     {{"%d.h1", act_ffn, sim::kBufInput},
                                      {"w.ffn1", w_ffn}},
                                     {{"%d.x1", act_d,
                                       sim::kBufOutput}});
                ffn2 = sim::annotate(std::move(ffn2),
                                     {{"%d.h2", act_d, sim::kBufInput},
                                      {"w.ffn2", w_ffn}},
                                     {{"%d.h1", act_ffn}});
            } else {
                qkv = sim::annotate(std::move(qkv),
                                    {{"dq", act_d}, {"dk", act_d},
                                     {"dv", act_d}, {"x", act_d}},
                                    {{"dw.qkv", w_qkv,
                                      sim::kBufOutput}});
                attn_out = sim::annotate(std::move(attn_out),
                                         {{"d.ln1", act_d}, {"o", act_d}},
                                         {{"dw.out", w_out,
                                           sim::kBufOutput}});
                ffn1 = sim::annotate(std::move(ffn1),
                                     {{"%d.h1", act_ffn},
                                      {"%x1", act_d, sim::kBufInput}},
                                     {{"dw.ffn1", w_ffn,
                                       sim::kBufOutput}});
                ffn2 = sim::annotate(std::move(ffn2),
                                     {{"%d.h2", act_d},
                                      {"%h1", act_ffn, sim::kBufInput}},
                                     {{"dw.ffn2", w_ffn,
                                       sim::kBufOutput}});
            }
            graph.launch(0, std::move(qkv));
            graph.launch(0, std::move(attn_out));
            graph.launch(0, std::move(ffn1));
            graph.launch(0, std::move(ffn2));
        }
        if (flop_scale > 1) {
            graph.launch(0, sim::annotate(
                                kernels::plan_elementwise(device, elems, 2,
                                                          8.0, "ew.ln"),
                                {{"d.x", act_d}},
                                {{"d.x", act_d, sim::kBufOutput}}));
            graph.launch(0, sim::annotate(
                                kernels::plan_elementwise(
                                    device, seq * ffn * batch_, 1, 12.0,
                                    "ew.gelu"),
                                {{"%d.h1", act_ffn}},
                                {{"%d.h1", act_ffn, sim::kBufOutput}}));
        } else {
            graph.launch(0, sim::annotate(
                                kernels::plan_elementwise(device, elems, 2,
                                                          8.0, "ew.ln"),
                                {{"x", act_d}, {"%proj", act_d}},
                                {{"%x1", act_d, sim::kBufOutput}}));
            graph.launch(0, sim::annotate(
                                kernels::plan_elementwise(
                                    device, seq * ffn * batch_, 1, 12.0,
                                    "ew.gelu"),
                                {{"%h1", act_ffn}},
                                {{"%h1", act_ffn, sim::kBufOutput}}));
        }
    };

    switch (kind) {
      case LayerKind::kInference:
        // Fused QKV projection: one L x 3D x D GEMM per batch element.
        graph.launch(0, sim::annotate(
                            kernels::plan_dense_gemm(device, seq, 3 * d, d,
                                                     batch_, "gemm.qkv"),
                            {{"x", act_d}, {"w.qkv", w_qkv}},
                            {{"q", act_d}, {"k", act_d}, {"v", act_d}}));
        graph.join_streams();
        graph.append(*attn, "attn.", nullptr, &ns);
        graph.launch(0, sim::annotate(
                            kernels::plan_dense_gemm(device, seq, d, d,
                                                     batch_,
                                                     "gemm.attn_out"),
                            {{"o", act_d}, {"w.out", w_out}},
                            {{"%proj", act_d}}));
        graph.launch(0, sim::annotate(
                            kernels::plan_elementwise(device, elems, 2, 8.0,
                                                      "ew.ln1"),
                            {{"x", act_d}, {"%proj", act_d}},
                            {{"%x1", act_d}}));
        graph.launch(0, sim::annotate(
                            kernels::plan_dense_gemm(device, seq, ffn, d,
                                                     batch_, "gemm.ffn1"),
                            {{"%x1", act_d}, {"w.ffn1", w_ffn}},
                            {{"%h1", act_ffn}}));
        graph.launch(0, sim::annotate(
                            kernels::plan_elementwise(
                                device, seq * ffn * batch_, 1, 12.0,
                                "ew.gelu"),
                            {{"%h1", act_ffn}}, {{"%h1", act_ffn}}));
        graph.launch(0, sim::annotate(
                            kernels::plan_dense_gemm(device, seq, d, ffn,
                                                     batch_, "gemm.ffn2"),
                            {{"%h1", act_ffn}, {"w.ffn2", w_ffn}},
                            {{"%h2", act_d}}));
        graph.launch(0, sim::annotate(
                            kernels::plan_elementwise(device, elems, 2, 8.0,
                                                      "ew.ln2"),
                            {{"%x1", act_d}, {"%h2", act_d}},
                            {{"x.out", act_d, sim::kBufOutput}}));
        graph.join_streams();
        break;

      case LayerKind::kTrainForward:
        dense_layer(1.0);
        graph.join_streams();
        graph.append(*attn, "attn.", nullptr, &ns);
        break;

      case LayerKind::kTrainBackward:
        graph.append(*attn, "attn.", nullptr, &ns);
        dense_layer(2.0);
        graph.join_streams();
        break;
    }
    return graph;
}

std::string
TransformerRunner::layer_graph_key(const sim::DeviceSpec &device,
                                   LayerKind kind) const
{
    char dims[128];
    std::snprintf(dims, sizeof(dims), "|seq=%lld|d=%lld|ffn=%lld|b=%lld",
                  static_cast<long long>(model_.max_seq_len),
                  static_cast<long long>(model_.d_model),
                  static_cast<long long>(model_.ffn_dim),
                  static_cast<long long>(batch_));
    std::string key = "runner|";
    key += layer_kind_tag(static_cast<int>(kind));
    key += dims;
    key += '|';
    key += engine_.plan_key();
    key += '|';
    key += device_plan_key(device);
    return key;
}

std::shared_ptr<const LaunchGraph>
TransformerRunner::layer_graph(const sim::DeviceSpec &device,
                               LayerKind kind) const
{
    const std::string key = layer_graph_key(device, kind);
    return PlanCache::instance().get_or_build<LaunchGraph>(key, [&] {
        auto graph = std::make_shared<const LaunchGraph>(
            build_layer_graph(device, kind));
        // Throwing here keeps a racy or ill-defined composed plan out of
        // the cache; the validated memory plan is cached beside it.
        verify_capture(*graph, device, key);
        return graph;
    });
}

std::shared_ptr<const MemPlan>
TransformerRunner::layer_memplan(const sim::DeviceSpec &device,
                                 LayerKind kind) const
{
    return memplan_for(layer_graph_key(device, kind),
                       *layer_graph(device, kind));
}

void
TransformerRunner::plan_inference_into(sim::GpuSim &sim,
                                       std::vector<int> &binding,
                                       const std::string &name_prefix) const
{
    const std::shared_ptr<const LaunchGraph> layer =
        layer_graph(sim.device(), LayerKind::kInference);
    for (index_t l = 0; l < model_.num_layers; ++l) {
        char prefix[24];
        std::snprintf(prefix, sizeof prefix, "%sL%02d.",
                      name_prefix.c_str(), static_cast<int>(l));
        layer->replay_into(sim, binding, prefix);
    }
}

EndToEndResult
TransformerRunner::simulate(const sim::DeviceSpec &device) const
{
    sim::GpuSim sim(device);
    std::vector<int> binding;
    plan_inference_into(sim, binding);

    EndToEndResult result;
    result.sim = sim.run();
    result.total_us = result.sim.total_us;
    result.dram_bytes = result.sim.work.dram_bytes();
    for (index_t l = 0; l < model_.num_layers; ++l) {
        char prefix[16];
        std::snprintf(prefix, sizeof prefix, "L%02d.attn.",
                      static_cast<int>(l));
        result.attention_us += result.sim.span(prefix);
        result.attention_dram_bytes += result.sim.dram_bytes_for(prefix);
    }
    return result;
}


EndToEndResult
TransformerRunner::simulate_training(const sim::DeviceSpec &device) const
{
    sim::GpuSim sim(device);
    const std::shared_ptr<const LaunchGraph> fwd =
        layer_graph(device, LayerKind::kTrainForward);
    const std::shared_ptr<const LaunchGraph> bwd =
        layer_graph(device, LayerKind::kTrainBackward);
    // Both layer kinds share one logical-stream layout (stream 0 + the
    // engine's streams), so one binding keeps every layer and both
    // sweeps on the same real streams.
    std::vector<int> binding;

    // Forward sweep.
    for (index_t l = 0; l < model_.num_layers; ++l) {
        char prefix[16];
        std::snprintf(prefix, sizeof prefix, "F%02d.",
                      static_cast<int>(l));
        fwd->replay_into(sim, binding, prefix);
    }
    // Backward sweep (reverse layer order).
    for (index_t l = model_.num_layers; l-- > 0;) {
        char prefix[16];
        std::snprintf(prefix, sizeof prefix, "B%02d.",
                      static_cast<int>(l));
        bwd->replay_into(sim, binding, prefix);
    }

    EndToEndResult result;
    result.sim = sim.run();
    result.total_us = result.sim.total_us;
    result.dram_bytes = result.sim.work.dram_bytes();
    for (index_t l = 0; l < model_.num_layers; ++l) {
        char f[16], b[16];
        std::snprintf(f, sizeof f, "F%02d.attn.", static_cast<int>(l));
        std::snprintf(b, sizeof b, "B%02d.attn.", static_cast<int>(l));
        result.attention_us += result.sim.span(f) + result.sim.span(b);
        result.attention_dram_bytes += result.sim.dram_bytes_for(f) +
                                       result.sim.dram_bytes_for(b);
    }
    return result;
}

}  // namespace multigrain
