#include "core/plan_facts.h"

#include <algorithm>
#include <sstream>

namespace multigrain {

// ---- Happens-before -----------------------------------------------------

HappensBefore::HappensBefore(const std::vector<LaunchGraphNode> &nodes,
                             const std::set<std::pair<int, int>> *skip)
    : n_(nodes.size()), words_((nodes.size() + 63) / 64),
      bits_(n_ * words_, 0)
{
    for (std::size_t j = 0; j < n_; ++j) {
        std::uint64_t *row = &bits_[j * words_];
        for (const int dep : nodes[j].deps) {
            if (skip != nullptr &&
                skip->count({dep, static_cast<int>(j)}) > 0) {
                continue;
            }
            const std::uint64_t *dep_row =
                &bits_[static_cast<std::size_t>(dep) * words_];
            for (std::size_t w = 0; w < words_; ++w) {
                row[w] |= dep_row[w];
            }
            row[static_cast<std::size_t>(dep) / 64] |=
                std::uint64_t{1} << (static_cast<std::size_t>(dep) % 64);
        }
    }
}

// ---- PlanFacts ----------------------------------------------------------

namespace {

const LaunchGraph &
validated(const LaunchGraph &graph)
{
    graph.validate();
    return graph;
}

}  // namespace

PlanFacts::PlanFacts(const LaunchGraph &graph)
    : graph_(&validated(graph)), hb_(graph.nodes())
{
    const auto add = [this](sim::BufferId id, BufferAccess access) {
        const auto [it, inserted] = index_.emplace(id, buffers_.size());
        if (inserted) {
            BufferFacts &fresh = buffers_.emplace_back();
            fresh.id = id;
            fresh.name = sim::buffer_name(id);
            fresh.plan_local = fresh.name.front() == '%';
        }
        BufferFacts &b = buffers_[it->second];
        if (b.uses.empty() || b.uses.back() != access.node) {
            b.uses.push_back(access.node);
        }
        if (access.node == b.uses.front() &&
            access.mode != AccessMode::kWrite) {
            b.first_use_reads = true;
        }
        b.bytes = std::max(b.bytes, access.bytes);
        b.flags |= access.flags;
        b.accesses.push_back(access);
    };
    const auto add_all = [&add](int node, AccessMode mode,
                                const std::vector<sim::BufferId> &ids,
                                const std::vector<std::uint64_t> &bytes,
                                const std::vector<unsigned> &flags) {
        // Hand-built launches may omit the parallel bytes/flags vectors.
        for (std::size_t i = 0; i < ids.size(); ++i) {
            add(ids[i], {node, mode, i < bytes.size() ? bytes[i] : 0,
                         i < flags.size() ? flags[i] : 0U});
        }
    };
    const std::vector<LaunchGraphNode> &nodes = graph.nodes();
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        const sim::KernelLaunch &l = nodes[n].launch;
        const int node = static_cast<int>(n);
        add_all(node, AccessMode::kRead, l.reads, l.read_bytes, l.read_flags);
        add_all(node, AccessMode::kAccum, l.accums, l.accum_bytes,
                l.accum_flags);
        add_all(node, AccessMode::kWrite, l.writes, l.write_bytes,
                l.write_flags);
    }

    std::sort(buffers_.begin(), buffers_.end(),
              [](const BufferFacts &a, const BufferFacts &b) {
                  return a.name < b.name;
              });
    for (std::size_t i = 0; i < buffers_.size(); ++i) {
        index_[buffers_[i].id] = i;
    }
}

const BufferFacts *
PlanFacts::find(sim::BufferId id) const
{
    const auto it = index_.find(id);
    return it == index_.end() ? nullptr : &buffers_[it->second];
}

std::vector<int>
PlanFacts::witness(int node) const
{
    std::vector<int> chain{node};
    while (!nodes()[static_cast<std::size_t>(chain.back())].deps.empty()) {
        chain.push_back(
            nodes()[static_cast<std::size_t>(chain.back())].deps.back());
    }
    std::reverse(chain.begin(), chain.end());
    return chain;
}

std::string
PlanFacts::node_str(int node) const
{
    const LaunchGraphNode &n = nodes()[static_cast<std::size_t>(node)];
    std::ostringstream os;
    os << "#" << node << " " << n.launch.name << " @s" << n.stream;
    return os.str();
}

std::string
PlanFacts::chain_str(const std::vector<int> &chain) const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < chain.size(); ++i) {
        if (i > 0) {
            os << " -> ";
        }
        os << node_str(chain[i]);
    }
    return os.str();
}

}  // namespace multigrain
