#include "gpusim/launch_graph.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/timer.h"
#include "gpusim/engine.h"

namespace multigrain::sim {

int
LaunchGraph::create_stream()
{
    stream_tail_.push_back(-1);
    return num_streams_++;
}

void
LaunchGraph::launch(int stream, KernelLaunch launch)
{
    MG_CHECK(stream >= 0 && stream < num_streams_)
        << "unknown logical stream " << stream;

    LaunchGraphNode node;
    node.launch = std::move(launch);
    node.stream = stream;
    if (stream_tail_[static_cast<std::size_t>(stream)] >= 0) {
        node.deps.push_back(stream_tail_[static_cast<std::size_t>(stream)]);
    }
    if (static_cast<std::size_t>(stream) >= join_applied_.size()) {
        join_applied_.resize(static_cast<std::size_t>(num_streams_), false);
    }
    if (!join_set_.empty() &&
        !join_applied_[static_cast<std::size_t>(stream)]) {
        node.deps.insert(node.deps.end(), join_set_.begin(),
                         join_set_.end());
        join_applied_[static_cast<std::size_t>(stream)] = true;
    }
    std::sort(node.deps.begin(), node.deps.end());
    node.deps.erase(std::unique(node.deps.begin(), node.deps.end()),
                    node.deps.end());

    const int id = static_cast<int>(nodes_.size());
    ops_.push_back(id);
    stream_tail_[static_cast<std::size_t>(stream)] = id;
    nodes_.push_back(std::move(node));
}

void
LaunchGraph::join_streams()
{
    join_set_.clear();
    for (int s = 0; s < num_streams_; ++s) {
        if (stream_tail_[static_cast<std::size_t>(s)] >= 0) {
            join_set_.push_back(stream_tail_[static_cast<std::size_t>(s)]);
        }
    }
    join_applied_.assign(static_cast<std::size_t>(num_streams_), false);
    ops_.push_back(kJoin);
}

TbWork
LaunchGraph::total_work() const
{
    TbWork work;
    for (const LaunchGraphNode &node : nodes_) {
        work += node.launch.total_work();
    }
    return work;
}

void
LaunchGraph::validate() const
{
    std::vector<bool> seen(nodes_.size(), false);
    std::size_t next = 0;
    for (const int op : ops_) {
        if (op == kJoin) {
            continue;
        }
        MG_CHECK(op >= 0 && static_cast<std::size_t>(op) < nodes_.size())
            << "op stream references unknown node " << op;
        MG_CHECK(!seen[static_cast<std::size_t>(op)])
            << "op stream duplicates node " << op;
        MG_CHECK(static_cast<std::size_t>(op) == next)
            << "op stream skips node " << next << " (saw " << op << ")";
        seen[static_cast<std::size_t>(op)] = true;
        ++next;
    }
    MG_CHECK(next == nodes_.size())
        << "op stream covers " << next << " of " << nodes_.size()
        << " nodes";
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const LaunchGraphNode &node = nodes_[i];
        MG_CHECK(node.stream >= 0 && node.stream < num_streams_)
            << "node " << i << " on unknown stream " << node.stream;
        for (const int dep : node.deps) {
            MG_CHECK(dep >= 0 && static_cast<std::size_t>(dep) < i)
                << "node " << i << " depends on non-older node " << dep;
        }
        MG_CHECK(std::is_sorted(node.deps.begin(), node.deps.end()))
            << "node " << i << " has unsorted deps";
        MG_CHECK(std::adjacent_find(node.deps.begin(), node.deps.end()) ==
                 node.deps.end())
            << "node " << i << " has duplicate deps";
    }
}

void
LaunchGraph::drop_dep_for_test(int node, int dep)
{
    MG_CHECK(node >= 0 && static_cast<std::size_t>(node) < nodes_.size())
        << "unknown node " << node;
    std::vector<int> &deps = nodes_[static_cast<std::size_t>(node)].deps;
    const auto it = std::find(deps.begin(), deps.end(), dep);
    MG_CHECK(it != deps.end())
        << "node " << node << " has no dep on " << dep;
    deps.erase(it);
}

namespace {

/// Re-interns every plan-local ('%'-prefixed) buffer under `ns`:
/// "%X" -> "%<ns>.X". Shared buffers pass through untouched.
void
namespace_buffers(std::vector<BufferId> &ids, const std::string &ns)
{
    for (BufferId &id : ids) {
        if (buffer_is_plan_local(id)) {
            id = intern_buffer("%" + ns + "." + buffer_name(id).substr(1));
        }
    }
}

}  // namespace

void
LaunchGraph::append(const LaunchGraph &other,
                    const std::string &name_prefix,
                    const std::vector<int> *stream_map,
                    const std::string *buffer_ns)
{
    MG_CHECK(&other != this) << "cannot append a LaunchGraph to itself";
    other.validate();
    std::vector<int> map;
    if (stream_map != nullptr) {
        MG_CHECK(static_cast<int>(stream_map->size()) >=
                 other.num_streams_)
            << "stream map covers " << stream_map->size() << " of "
            << other.num_streams_ << " logical streams";
        map = *stream_map;
    } else {
        bind_streams(map, other.num_streams_);
    }
    std::string ns;
    if (buffer_ns != nullptr) {
        ns = *buffer_ns;
    } else {
        ns = "p";
        ns += std::to_string(++buffer_ns_seq_);
    }
    append_ops(other, name_prefix, map, &ns);
}

void
LaunchGraph::bind_streams(std::vector<int> &map, int streams)
{
    if (map.empty()) {
        map.push_back(0);  // Logical stream 0 is this graph's stream 0.
    }
    // Every further logical stream gets a fresh stream up front, in
    // logical order, so the numbering is independent of which streams the
    // appended nodes happen to touch first.
    while (static_cast<int>(map.size()) < streams) {
        map.push_back(create_stream());
    }
}

void
LaunchGraph::append_ops(const LaunchGraph &other,
                        const std::string &name_prefix,
                        const std::vector<int> &map,
                        const std::string *buffer_ns)
{
    for (const int op : other.ops_) {
        if (op == kJoin) {
            join_streams();
            continue;
        }
        const LaunchGraphNode &node =
            other.nodes_[static_cast<std::size_t>(op)];
        KernelLaunch launch = node.launch;
        if (!name_prefix.empty()) {
            launch.name = name_prefix + launch.name;
        }
        if (buffer_ns != nullptr) {
            namespace_buffers(launch.reads, *buffer_ns);
            namespace_buffers(launch.writes, *buffer_ns);
            namespace_buffers(launch.accums, *buffer_ns);
        }
        this->launch(map[static_cast<std::size_t>(node.stream)],
                     std::move(launch));
    }
}

void
LaunchGraph::replay_into(GpuSim &sim, std::vector<int> &binding,
                         const std::string &name_prefix) const
{
    const ScopedTimer timer("plan.replay");
    MG_CHECK(!sim.ran_) << "cannot replay into a GpuSim after run()";
    LaunchGraph &program = sim.program_;
    for (const int real : binding) {
        MG_CHECK(real >= 0 && real < program.num_streams_)
            << "binding names stream " << real
            << ", which the simulator never created";
    }
    program.bind_streams(binding, num_streams_);
    program.append_ops(*this, name_prefix, binding, nullptr);
}

void
LaunchGraph::replay_into(GpuSim &sim, const std::string &name_prefix) const
{
    std::vector<int> binding;
    replay_into(sim, binding, name_prefix);
}

}  // namespace multigrain::sim
