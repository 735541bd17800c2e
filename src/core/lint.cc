#include "core/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace multigrain {

namespace {

// ---- Buffer accesses ----------------------------------------------------

/// Two accesses conflict unless both only read or both only accumulate
/// (commutative read-modify-write: the coarse ∥ fine ∥ special SpMMs all
/// accumulating into the output commute, as do the dQ/dK/dV backward
/// accumulations).
bool
conflicting(AccessMode a, AccessMode b)
{
    return a != b || a == AccessMode::kWrite;
}

/// One entry per node touching `buffer`, in capture order, with the
/// node's accesses merged: a kernel that both reads and writes a buffer
/// (in-place softmax) counts as a writer.
std::vector<std::pair<int, AccessMode>>
merged_users(const BufferFacts &buffer)
{
    std::vector<std::pair<int, AccessMode>> users;
    for (const BufferAccess &a : buffer.accesses) {
        if (!users.empty() && users.back().first == a.node) {
            users.back().second = std::max(users.back().second, a.mode);
        } else {
            users.emplace_back(a.node, a.mode);
        }
    }
    return users;
}

const char *
access_str(AccessMode mode)
{
    switch (mode) {
      case AccessMode::kRead: return "reads";
      case AccessMode::kAccum: return "accumulates into";
      case AccessMode::kWrite: return "writes";
    }
    return "?";
}

// ---- Phase-name convention ----------------------------------------------

/// Mirrors the carving convention in profiler/metrics.cc split_name():
/// [<tag>.][attn.]<op>[.<part>...] with <tag> an uppercase letter plus
/// digits. These are the op families the phase tables group by; a kernel
/// named outside them lands in its own one-off phase bucket.
constexpr const char *kKnownOps[] = {"sddmm", "softmax", "spmm",
                                     "bwd",   "gemm",    "ew"};

bool
is_layer_tag(const std::string &seg)
{
    if (seg.size() < 2 || !std::isupper(static_cast<unsigned char>(seg[0]))) {
        return false;
    }
    for (std::size_t i = 1; i < seg.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(seg[i]))) {
            return false;
        }
    }
    return true;
}

/// Empty when `name` carves cleanly; otherwise the reason it does not.
std::string
phase_name_problem(const std::string &name)
{
    if (name.empty()) {
        return "empty kernel name";
    }
    std::vector<std::string> segs;
    std::size_t pos = 0;
    while (pos <= name.size()) {
        const std::size_t dot = name.find('.', pos);
        if (dot == std::string::npos) {
            segs.push_back(name.substr(pos));
            break;
        }
        segs.push_back(name.substr(pos, dot - pos));
        pos = dot + 1;
    }
    for (const std::string &seg : segs) {
        if (seg.empty()) {
            return "empty name segment (leading/trailing/double dot)";
        }
    }
    std::size_t i = 0;
    if (i < segs.size() && is_layer_tag(segs[i])) {
        ++i;
    }
    if (i < segs.size() && segs[i] == "attn") {
        ++i;
    }
    if (i >= segs.size()) {
        return "no op segment after the layer/attn prefix";
    }
    for (const char *op : kKnownOps) {
        if (segs[i] == op) {
            return "";
        }
    }
    return "op segment \"" + segs[i] +
           "\" is not a known phase family (sddmm/softmax/spmm/bwd/gemm/"
           "ew)";
}

// ---- Join barriers ------------------------------------------------------

/// One join_streams() barrier, read off the captured graph: the stream
/// tails it covered, and the cross-stream edges it contributed. Capture
/// gives a node a cross-stream dep only from the last join before it, so
/// those edges are exactly the cross-stream deps of the nodes between the
/// join and the next one.
struct JoinMark {
    int op_pos = 0;
    std::vector<int> tails;
    std::map<int, std::vector<int>> edges;  ///< tail -> consumer nodes.
};

std::vector<JoinMark>
join_marks(const LaunchGraph &graph)
{
    const std::vector<LaunchGraphNode> &nodes = graph.nodes();
    std::vector<int> tail(static_cast<std::size_t>(graph.num_streams()),
                          -1);
    std::vector<JoinMark> joins;
    const std::vector<int> &ops = graph.ops();
    for (std::size_t pos = 0; pos < ops.size(); ++pos) {
        const int op = ops[pos];
        if (op == LaunchGraph::kJoin) {
            JoinMark join;
            join.op_pos = static_cast<int>(pos);
            for (const int t : tail) {
                if (t >= 0) {
                    join.tails.push_back(t);
                }
            }
            joins.push_back(std::move(join));
            continue;
        }
        const LaunchGraphNode &node = nodes[static_cast<std::size_t>(op)];
        for (const int dep : node.deps) {
            if (!joins.empty() &&
                nodes[static_cast<std::size_t>(dep)].stream != node.stream) {
                joins.back().edges[dep].push_back(op);
            }
        }
        tail[static_cast<std::size_t>(node.stream)] = op;
    }
    return joins;
}

}  // namespace

// ---- Public surface -----------------------------------------------------

const char *
to_string(LintKind kind)
{
    switch (kind) {
      case LintKind::kRawHazard: return "raw-hazard";
      case LintKind::kWarHazard: return "war-hazard";
      case LintKind::kWawHazard: return "waw-hazard";
      case LintKind::kDeadStream: return "dead-stream";
      case LintKind::kRedundantEdge: return "redundant-edge";
      case LintKind::kOverSerializingJoin: return "over-serializing-join";
      case LintKind::kEmptyJoin: return "empty-join";
      case LintKind::kOccupancyClamp: return "occupancy-clamp";
      case LintKind::kEmptyKernel: return "empty-kernel";
      case LintKind::kPhaseName: return "phase-name";
    }
    return "?";
}

const char *
to_string(LintSeverity severity)
{
    switch (severity) {
      case LintSeverity::kInfo: return "info";
      case LintSeverity::kWarning: return "warning";
      case LintSeverity::kError: return "error";
    }
    return "?";
}

bool
is_hazard(LintKind kind)
{
    return kind == LintKind::kRawHazard || kind == LintKind::kWarHazard ||
           kind == LintKind::kWawHazard;
}

LintSeverity
severity_of(LintKind kind)
{
    if (is_hazard(kind)) {
        return LintSeverity::kError;
    }
    switch (kind) {
      case LintKind::kDeadStream:
      case LintKind::kOccupancyClamp:
      case LintKind::kEmptyKernel:
      case LintKind::kPhaseName:
        return LintSeverity::kWarning;
      default:
        return LintSeverity::kInfo;
    }
}

std::size_t
LintReport::count(LintSeverity severity) const
{
    std::size_t n = 0;
    for (const LintFinding &f : findings) {
        if (f.severity == severity) {
            ++n;
        }
    }
    return n;
}

std::size_t
LintReport::hazards() const
{
    std::size_t n = 0;
    for (const LintFinding &f : findings) {
        if (is_hazard(f.kind)) {
            ++n;
        }
    }
    return n;
}

std::string
LintReport::summary() const
{
    std::ostringstream os;
    os << count(LintSeverity::kError) << " error(s), "
       << count(LintSeverity::kWarning) << " warning(s), "
       << count(LintSeverity::kInfo) << " info(s)";
    return os.str();
}

LintReport
lint_graph(const PlanFacts &facts, const LintOptions &options)
{
    const LaunchGraph &graph = facts.graph();
    const std::vector<LaunchGraphNode> &nodes = graph.nodes();
    const std::size_t n = nodes.size();

    LintReport report;
    report.num_nodes = n;
    report.num_streams = graph.num_streams();
    for (const LaunchGraphNode &node : nodes) {
        report.num_edges += node.deps.size();
    }

    // ---- Hazards, and the ordered conflicts the join analysis protects.
    std::vector<std::pair<int, int>> ordered_conflicts;
    for (const BufferFacts &buffer : facts.buffers()) {
        const std::vector<std::pair<int, AccessMode>> users =
            merged_users(buffer);
        for (std::size_t a = 0; a < users.size(); ++a) {
            for (std::size_t b = a + 1; b < users.size(); ++b) {
                const auto [i, mode_i] = users[a];
                const auto [j, mode_j] = users[b];
                if (!conflicting(mode_i, mode_j)) {
                    continue;
                }
                if (facts.ordered(i, j)) {
                    ordered_conflicts.emplace_back(i, j);
                    continue;
                }
                LintFinding f;
                if (mode_j == AccessMode::kRead) {
                    f.kind = LintKind::kRawHazard;
                } else if (mode_i == AccessMode::kRead) {
                    f.kind = LintKind::kWarHazard;
                } else {
                    f.kind = LintKind::kWawHazard;
                }
                f.severity = LintSeverity::kError;
                f.node_a = i;
                f.node_b = j;
                f.buffer = buffer.name;
                f.witness_a = facts.witness(i);
                f.witness_b = facts.witness(j);
                std::ostringstream os;
                os << to_string(f.kind) << " on buffer " << f.buffer
                   << ": " << facts.node_str(i) << " "
                   << access_str(mode_i) << " it, " << facts.node_str(j)
                   << " " << access_str(mode_j)
                   << " it, and no dependency path orders them. Witness: ["
                   << facts.chain_str(f.witness_a) << "] runs unordered"
                   << " against [" << facts.chain_str(f.witness_b) << "]";
                f.message = os.str();
                report.findings.push_back(std::move(f));
            }
        }
    }

    if (options.hazards_only) {
        return report;  // Hazards are the only findings; already ordered.
    }

    // ---- Dead streams (stream 0 is implicit and may sit unused).
    std::vector<int> per_stream(
        static_cast<std::size_t>(graph.num_streams()), 0);
    for (const LaunchGraphNode &node : nodes) {
        ++per_stream[static_cast<std::size_t>(node.stream)];
    }
    for (int s = 1; s < graph.num_streams(); ++s) {
        if (per_stream[static_cast<std::size_t>(s)] == 0) {
            LintFinding f;
            f.kind = LintKind::kDeadStream;
            f.severity = severity_of(f.kind);
            f.node_a = s;
            f.message = "stream s" + std::to_string(s) +
                        " was created but no kernel ever launches on"
                        " it";
            report.findings.push_back(std::move(f));
        }
    }

    // ---- Transitively redundant edges.
    for (std::size_t j = 0; j < n; ++j) {
        for (const int d : nodes[j].deps) {
            bool redundant = false;
            for (const int d2 : nodes[j].deps) {
                if (d2 != d && facts.ordered(d, d2)) {
                    redundant = true;
                    break;
                }
            }
            if (redundant) {
                LintFinding f;
                f.kind = LintKind::kRedundantEdge;
                f.severity = severity_of(f.kind);
                f.node_a = d;
                f.node_b = static_cast<int>(j);
                f.message =
                    "edge " + facts.node_str(d) + " -> " +
                    facts.node_str(static_cast<int>(j)) +
                    " is implied by another dep and can be dropped";
                report.findings.push_back(std::move(f));
            }
        }
    }

    // ---- Join barriers: empty, and over-serializing ones.
    int last_node_pos = -1;
    const std::vector<int> &ops = graph.ops();
    for (std::size_t pos = 0; pos < ops.size(); ++pos) {
        if (ops[pos] != LaunchGraph::kJoin) {
            last_node_pos = static_cast<int>(pos);
        }
    }
    for (const JoinMark &join : join_marks(graph)) {
        if (join.op_pos > last_node_pos) {
            continue;  // Trailing barrier: composition contract.
        }
        if (join.tails.empty()) {
            LintFinding f;
            f.kind = LintKind::kEmptyJoin;
            f.severity = severity_of(f.kind);
            f.node_a = join.op_pos;
            f.message = "join_streams() at op " +
                        std::to_string(join.op_pos) +
                        " has no pending work to wait on";
            report.findings.push_back(std::move(f));
            continue;
        }
        if (join.tails.size() < 2) {
            continue;  // Already a single event edge.
        }
        // A tail is load-bearing iff removing the barrier edges it
        // contributed leaves some conflicting pair unordered.
        std::vector<int> necessary;
        for (const int t : join.tails) {
            const auto it = join.edges.find(t);
            if (it == join.edges.end()) {
                continue;
            }
            std::set<std::pair<int, int>> skip;
            for (const int c : it->second) {
                skip.insert({t, c});
            }
            const HappensBefore without(nodes, &skip);
            for (const auto &[u, v] : ordered_conflicts) {
                if (!without.ordered(u, v)) {
                    necessary.push_back(t);
                    break;
                }
            }
        }
        if (necessary.size() <= 1) {
            LintFinding f;
            f.kind = LintKind::kOverSerializingJoin;
            f.severity = severity_of(f.kind);
            f.node_a = join.op_pos;
            f.node_b = necessary.empty() ? -1 : necessary.front();
            std::ostringstream os;
            os << "join_streams() at op " << join.op_pos
               << " serializes " << join.tails.size()
               << " stream tails but ";
            if (necessary.empty()) {
                os << "none is load-bearing for the annotated"
                      " dataflow";
            } else {
                os << "only " << facts.node_str(necessary.front())
                   << " is load-bearing; a single event edge"
                      " suffices";
            }
            f.message = os.str();
            report.findings.push_back(std::move(f));
        }
    }

    // ---- Per-node lints.
    for (std::size_t i = 0; i < n; ++i) {
        const sim::KernelLaunch &launch = nodes[i].launch;
        if (launch.num_tbs() == 0 || launch.total_work().empty()) {
            LintFinding f;
            f.kind = LintKind::kEmptyKernel;
            f.severity = severity_of(f.kind);
            f.node_a = static_cast<int>(i);
            f.message = "kernel " + facts.node_str(static_cast<int>(i)) +
                        " launches no thread blocks / does no work";
            report.findings.push_back(std::move(f));
        }
        if (options.device != nullptr) {
            const sim::DeviceSpec &dev = *options.device;
            const sim::TbShape &shape = launch.shape;
            std::string over;
            if (shape.threads > dev.max_threads_per_sm) {
                over = "threads " + std::to_string(shape.threads) + " > " +
                       std::to_string(dev.max_threads_per_sm);
            } else if (shape.smem_bytes > dev.smem_per_sm_bytes) {
                over = "smem " + std::to_string(shape.smem_bytes) +
                       " B > " + std::to_string(dev.smem_per_sm_bytes) +
                       " B";
            } else if (shape.threads * shape.regs_per_thread >
                       dev.regs_per_sm) {
                over = "regs " +
                       std::to_string(shape.threads *
                                      shape.regs_per_thread) +
                       " > " + std::to_string(dev.regs_per_sm);
            }
            if (!over.empty()) {
                LintFinding f;
                f.kind = LintKind::kOccupancyClamp;
                f.severity = severity_of(f.kind);
                f.node_a = static_cast<int>(i);
                f.message = "kernel " +
                            facts.node_str(static_cast<int>(i)) +
                            " exceeds " + dev.name + " per-SM limits (" +
                            over + "); occupancy_per_sm silently clamps"
                            " it to 1 block per SM";
                report.findings.push_back(std::move(f));
            }
        }
        const std::string problem = phase_name_problem(launch.name);
        if (!problem.empty()) {
            LintFinding f;
            f.kind = LintKind::kPhaseName;
            f.severity = severity_of(f.kind);
            f.node_a = static_cast<int>(i);
            f.message = "kernel " +
                        facts.node_str(static_cast<int>(i)) +
                        " breaks the mgprof phase-carving convention:"
                        " " + problem;
            report.findings.push_back(std::move(f));
        }
    }

    // Hazards first, then by severity, preserving discovery order within
    // a tier.
    std::stable_sort(report.findings.begin(), report.findings.end(),
                     [](const LintFinding &a, const LintFinding &b) {
                         return static_cast<int>(a.severity) >
                                static_cast<int>(b.severity);
                     });
    return report;
}

bool
capture_lint_enabled()
{
    if (const char *env = std::getenv("MULTIGRAIN_LINT");
        env != nullptr && *env != '\0') {
        return !(env[0] == '0' && env[1] == '\0');
    }
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
}

void
require_hazard_free(const PlanFacts &facts, const sim::DeviceSpec &device,
                    const std::string &what)
{
    LintOptions options;
    options.device = &device;
    options.hazards_only = true;  // Schedule lints never block capture.
    const LintReport report = lint_graph(facts, options);
    if (report.clean()) {
        return;
    }
    std::ostringstream os;
    os << what << ": captured plan has " << report.hazards()
       << " hazard(s) and cannot be cached:";
    for (const LintFinding &f : report.findings) {
        if (is_hazard(f.kind)) {
            os << "\n  " << f.message;
        }
    }
    throw PlanLintError(os.str());
}

}  // namespace multigrain
