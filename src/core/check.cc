#include "core/check.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "core/lint.h"
#include "gpusim/launch.h"

namespace multigrain {

namespace {

// ---- Rendering ----------------------------------------------------------

std::string
human_bytes(std::uint64_t bytes)
{
    std::ostringstream os;
    if (bytes >= 1024ULL * 1024) {
        os << (bytes / (1024ULL * 1024)) << " MiB";
    } else if (bytes >= 1024) {
        os << (bytes / 1024) << " KiB";
    } else {
        os << bytes << " B";
    }
    return os.str();
}

// ---- The definedness lattice --------------------------------------------

/// True iff some write access of `info` other than `at` is ordered
/// before node `at` — i.e. the buffer is in the `defined` lattice state
/// when node `at` runs, under every legal schedule. A same-node write
/// does not define a same-node read (the read observes the old
/// contents: the in-place softmax reads scores the SDDMM wrote, not its
/// own output).
bool
defined_at(const BufferFacts &info, const PlanFacts &facts, int at)
{
    for (const BufferAccess &a : info.accesses) {
        if (a.mode == AccessMode::kWrite && a.node != at &&
            facts.ordered(a.node, at)) {
            return true;
        }
    }
    return false;
}

/// True iff some read (or, for plain writes, accumulate) access is
/// ordered after node `at` — the store transitions to `consumed`.
bool
consumed_after(const BufferFacts &info, const PlanFacts &facts, int at,
               AccessMode store_mode)
{
    for (const BufferAccess &a : info.accesses) {
        if (a.node == at) {
            continue;
        }
        const bool consumer =
            a.mode == AccessMode::kRead ||
            (store_mode == AccessMode::kWrite && a.mode == AccessMode::kAccum);
        if (consumer && facts.ordered(at, a.node)) {
            return true;
        }
    }
    return false;
}

}  // namespace

// ---- Public surface -----------------------------------------------------

const char *
to_string(CheckKind kind)
{
    switch (kind) {
      case CheckKind::kUseBeforeDef: return "use-before-def";
      case CheckKind::kUninitAccum: return "uninit-accum";
      case CheckKind::kArenaAlias: return "arena-alias";
      case CheckKind::kSizeMismatch: return "size-mismatch";
      case CheckKind::kDeadStore: return "dead-store";
      case CheckKind::kLeakedTemp: return "leaked-temp";
    }
    return "?";
}

const char *
to_string(CheckSeverity severity)
{
    switch (severity) {
      case CheckSeverity::kWarning: return "warning";
      case CheckSeverity::kError: return "error";
    }
    return "?";
}

CheckSeverity
severity_of(CheckKind kind)
{
    switch (kind) {
      case CheckKind::kDeadStore:
      case CheckKind::kLeakedTemp:
        return CheckSeverity::kWarning;
      default:
        return CheckSeverity::kError;
    }
}

std::size_t
CheckReport::count(CheckSeverity severity) const
{
    std::size_t n = 0;
    for (const CheckFinding &f : findings) {
        if (f.severity == severity) {
            ++n;
        }
    }
    return n;
}

std::size_t
CheckReport::errors() const
{
    return count(CheckSeverity::kError);
}

std::string
CheckReport::summary() const
{
    std::ostringstream os;
    os << count(CheckSeverity::kError) << " error(s), "
       << count(CheckSeverity::kWarning) << " warning(s)";
    return os.str();
}

CheckReport
check_graph(const PlanFacts &facts, const CheckOptions &options)
{
    const std::vector<LaunchGraphNode> &nodes = facts.nodes();

    CheckReport report;
    report.num_nodes = nodes.size();
    report.num_buffers = facts.buffers().size();

    const auto emit = [&](CheckKind kind, int node_a, int node_b,
                          const std::string &buffer,
                          const std::string &detail) {
        CheckFinding f;
        f.kind = kind;
        f.severity = severity_of(kind);
        f.node_a = node_a;
        f.node_b = node_b;
        f.buffer = buffer;
        if (node_a >= 0) {
            f.witness_a = facts.witness(node_a);
        }
        if (node_b >= 0) {
            f.witness_b = facts.witness(node_b);
        }
        std::ostringstream os;
        os << to_string(kind) << " on buffer " << buffer << ": " << detail;
        if (!f.witness_a.empty()) {
            os << ". Witness: [" << facts.chain_str(f.witness_a) << "]";
            if (!f.witness_b.empty()) {
                os << " runs unordered against ["
                   << facts.chain_str(f.witness_b) << "]";
            }
        }
        f.message = os.str();
        report.findings.push_back(std::move(f));
    };

    for (const BufferFacts &info : facts.buffers()) {
        // ---- use-before-def: a plan-local read of contents nothing
        // ordered-before wrote. Shared (unprefixed) tensors are defined
        // by the embedding interface convention; plan-local buffers that
        // legitimately flow in (stashed activations, setup-time masks)
        // must say so via kBufInput / kBufZeroInit.
        if (info.plan_local &&
            !info.declared(sim::kBufInput | sim::kBufZeroInit)) {
            for (const BufferAccess &a : info.accesses) {
                if (a.mode != AccessMode::kRead) {
                    continue;
                }
                if (!defined_at(info, facts, a.node)) {
                    emit(CheckKind::kUseBeforeDef, a.node, -1, info.name,
                         facts.node_str(a.node) +
                             " reads it, but no ordered predecessor ever"
                             " writes it and it is not declared an input"
                             " or zero-initialized — the value read is"
                             " undefined");
                    break;  // One finding per buffer: the first reader.
                }
            }
        }

        // ---- uninit-accum: commutative RMW onto undefined contents.
        // Applies to shared tensors too ("o", dq/dk/dv): an accumulator
        // needs a zero-filled (or written) start everywhere.
        if (!info.declared(sim::kBufInput | sim::kBufZeroInit)) {
            for (const BufferAccess &a : info.accesses) {
                if (a.mode != AccessMode::kAccum) {
                    continue;
                }
                if (!defined_at(info, facts, a.node)) {
                    emit(CheckKind::kUninitAccum, a.node, -1, info.name,
                         facts.node_str(a.node) +
                             " accumulates into it, but no ordered"
                             " predecessor initializes it and it is not"
                             " declared zero-initialized — the"
                             " accumulation folds into garbage");
                    break;
                }
            }
        }

        // ---- dead-store / leaked-temp: a store nothing ever drains.
        if (options.liveness_lints && !info.declared(sim::kBufOutput)) {
            for (const BufferAccess &a : info.accesses) {
                if (a.mode == AccessMode::kRead) {
                    continue;
                }
                if (!consumed_after(info, facts, a.node, a.mode)) {
                    emit(info.plan_local ? CheckKind::kLeakedTemp
                                         : CheckKind::kDeadStore,
                         a.node, -1, info.name,
                         facts.node_str(a.node) +
                             " stores it, but no ordered successor ever"
                             " reads it and it is not declared a graph"
                             " output — the store is dead");
                    break;
                }
            }
        }
    }

    // ---- size-consistency: the annotated SizedBuffer footprint a
    // kernel claims vs the memory traffic its TbWork model generates.
    if (options.size_check) {
        for (std::size_t n = 0; n < nodes.size(); ++n) {
            const sim::KernelLaunch &l = nodes[n].launch;
            std::uint64_t annotated = 0;
            std::uint64_t largest = 0;
            sim::BufferId largest_id = sim::kNoBuffer;
            const auto account = [&](const std::vector<sim::BufferId> &ids,
                                     const std::vector<std::uint64_t> &bs) {
                for (std::size_t i = 0; i < ids.size(); ++i) {
                    const std::uint64_t b = i < bs.size() ? bs[i] : 0;
                    annotated += b;
                    if (b > largest) {
                        largest = b;
                        largest_id = ids[i];
                    }
                }
            };
            account(l.reads, l.read_bytes);
            account(l.accums, l.accum_bytes);
            account(l.writes, l.write_bytes);
            const double modeled = l.total_work().mem_bytes();
            if (annotated == 0 || modeled <= 0) {
                continue;  // Unannotated/unsized or empty kernel.
            }
            const double ratio = static_cast<double>(annotated) / modeled;
            if (report.min_size_ratio == 0 ||
                ratio < report.min_size_ratio) {
                report.min_size_ratio = ratio;
            }
            if (ratio > report.max_size_ratio) {
                report.max_size_ratio = ratio;
            }
            if (ratio <= kSizeTolOver && ratio >= 1.0 / kSizeTolUnder) {
                continue;
            }
            std::ostringstream os;
            os << facts.node_str(static_cast<int>(n)) << " annotates "
               << human_bytes(annotated) << " of buffers but models "
               << human_bytes(static_cast<std::uint64_t>(modeled))
               << " of memory traffic (ratio " << ratio
               << ", tolerance [" << 1.0 / kSizeTolUnder << ", "
               << kSizeTolOver
               << "]) — the annotated sizes no longer describe the"
                  " kernel";
            emit(CheckKind::kSizeMismatch, static_cast<int>(n), -1,
                 largest_id == sim::kNoBuffer
                     ? std::string("?")
                     : sim::buffer_name(largest_id),
                 os.str());
        }
    }

    // ---- Arena-aliasing soundness proof: every pair of pooled buffers
    // whose arena intervals overlap must be strictly ordered. Uses are
    // re-derived here from the graph (not taken from the plan), so a
    // planner bug in live-range derivation is caught too.
    if (options.memplan != nullptr) {
        const MemPlan &plan = *options.memplan;
        if (plan.num_nodes != nodes.size()) {
            emit(CheckKind::kArenaAlias, -1, -1, "?",
                 "memplan describes " + std::to_string(plan.num_nodes) +
                     " nodes but the graph has " +
                     std::to_string(nodes.size()) +
                     " — the plan does not belong to this graph");
        } else {
            // All accesses of `a` strictly before all accesses of `b`
            // (or vice versa) — the aliasing licence.
            const auto strictly_ordered = [&](const BufferFacts &a,
                                              const BufferFacts &b,
                                              int *bad_a, int *bad_b) {
                const auto before = [&](const BufferFacts &x,
                                        const BufferFacts &y) {
                    for (const BufferAccess &u : x.accesses) {
                        for (const BufferAccess &v : y.accesses) {
                            if (!facts.ordered(u.node, v.node)) {
                                *bad_a = u.node;
                                *bad_b = v.node;
                                return false;
                            }
                        }
                    }
                    return true;
                };
                return before(a, b) || before(b, a);
            };
            for (std::size_t i = 0; i < plan.buffers.size(); ++i) {
                const MemPlanBuffer &a = plan.buffers[i];
                if (a.cls != BufferClass::kPooled || a.bytes == 0) {
                    continue;
                }
                for (std::size_t j = i + 1; j < plan.buffers.size(); ++j) {
                    const MemPlanBuffer &b = plan.buffers[j];
                    if (b.cls != BufferClass::kPooled || b.bytes == 0) {
                        continue;
                    }
                    if (a.offset + a.bytes <= b.offset ||
                        b.offset + b.bytes <= a.offset) {
                        continue;  // Disjoint arena intervals.
                    }
                    const BufferFacts *fa = facts.find(a.id);
                    const BufferFacts *fb = facts.find(b.id);
                    if (fa == nullptr || fb == nullptr) {
                        emit(CheckKind::kArenaAlias, -1, -1,
                             fa == nullptr ? a.name : b.name,
                             "memplan pools a buffer the graph never"
                             " accesses");
                        continue;
                    }
                    int bad_a = -1;
                    int bad_b = -1;
                    if (strictly_ordered(*fa, *fb, &bad_a, &bad_b)) {
                        continue;
                    }
                    std::ostringstream os;
                    os << a.name << " and " << b.name
                       << " share arena bytes [" << b.offset << ", "
                       << b.offset + b.bytes << ") overlapping ["
                       << a.offset << ", " << a.offset + a.bytes
                       << "), but " << facts.node_str(bad_a)
                       << " touching " << a.name << " is unordered"
                       << " against " << facts.node_str(bad_b)
                       << " touching " << b.name
                       << " — replay can corrupt the slot";
                    emit(CheckKind::kArenaAlias, bad_a, bad_b, b.name,
                         os.str());
                }
            }
        }
    }

    // Errors first, preserving discovery order within a tier.
    std::stable_sort(report.findings.begin(), report.findings.end(),
                     [](const CheckFinding &a, const CheckFinding &b) {
                         return static_cast<int>(a.severity) >
                                static_cast<int>(b.severity);
                     });
    return report;
}

bool
capture_check_enabled()
{
    if (const char *env = std::getenv("MULTIGRAIN_CHECK");
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
verify_capture(const LaunchGraph &graph, const sim::DeviceSpec &device,
               const std::string &key)
{
    const PlanFacts facts(graph);
    if (capture_lint_enabled()) {
        require_hazard_free(facts, device, key);
    }
    const auto memplan = memplan_for(key, graph, &facts);
    if (!capture_check_enabled()) {
        return;
    }
    CheckOptions options;
    options.memplan = memplan.get();
    options.size_check = false;      // Tolerance heuristic; advisory.
    options.liveness_lints = false;  // Warnings never block capture.
    const CheckReport report = check_graph(facts, options);
    if (report.errors() == 0) {
        return;
    }
    std::ostringstream os;
    os << key << ": captured plan is ill-defined (" << report.errors()
       << " definedness error(s)) and cannot be cached:";
    for (const CheckFinding &f : report.findings) {
        if (f.severity == CheckSeverity::kError) {
            os << "\n  " << f.message;
        }
    }
    throw PlanCheckError(os.str());
}

}  // namespace multigrain
