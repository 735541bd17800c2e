#ifndef MULTIGRAIN_CORE_LINT_H_
#define MULTIGRAIN_CORE_LINT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/plan_facts.h"
#include "gpusim/device.h"

/// Plan lint: hazard and schedule analysis over the LaunchGraph IR.
///
/// The paper's whole argument rests on correctly overlapping fine- and
/// coarse-grained kernels on independent streams (§3.2), and the capture/
/// replay layer made that schedule a first-class artifact — so a phase
/// builder that drops an event edge between, say, the fine SDDMM and the
/// compound softmax that consumes its scores would silently replay a
/// corrupt schedule on every cached hit. A captured plan is a pure data
/// structure, so the race that compute-sanitizer racecheck hunts
/// dynamically is decidable here, statically, at capture time:
///
///  * Hazards (errors): the happens-before relation is the transitive
///    closure of node deps (which capture derives from stream order and
///    join barriers). Two nodes that conflict on an annotated buffer
///    (sim::KernelLaunch reads/writes/accums; accum ∥ accum commutes) and
///    are not ordered by happens-before race — reported as RAW/WAR/WAW by
///    capture order, with a concrete witness dependency chain to each
///    node proving both can be live at once.
///  * Schedule lints (warnings/infos): dead streams, transitively
///    redundant edges, join_streams() barriers where a single event edge
///    would suffice, TbShapes that exceed the device's per-SM limits and
///    silently clamp to occupancy 1, empty-work kernels, and kernel names
///    that the mgprof phase carver cannot classify.
namespace multigrain {

enum class LintSeverity { kInfo, kWarning, kError };

enum class LintKind {
    // Hazards — always errors.
    kRawHazard,
    kWarHazard,
    kWawHazard,
    // Schedule lints.
    kDeadStream,           ///< Created stream with no nodes (warning).
    kRedundantEdge,        ///< Dep implied by another dep (info).
    kOverSerializingJoin,  ///< Barrier where ≤1 tail is load-bearing (info).
    kEmptyJoin,            ///< Barrier with nothing to wait on (info).
    kOccupancyClamp,       ///< TbShape exceeds SM limits (warning).
    kEmptyKernel,          ///< Launch with no blocks or no work (warning).
    kPhaseName,            ///< Name the mgprof carver cannot map (warning).
};

const char *to_string(LintKind kind);
const char *to_string(LintSeverity severity);
LintSeverity severity_of(LintKind kind);
bool is_hazard(LintKind kind);

struct LintFinding {
    LintKind kind = LintKind::kRawHazard;
    LintSeverity severity = LintSeverity::kError;
    /// The nodes involved (capture order: node_a < node_b for hazards;
    /// node_a is the earlier endpoint of a redundant edge, the offending
    /// node for per-node lints, the stream index for kDeadStream, the op
    /// position for join lints). -1 when not applicable.
    int node_a = -1;
    int node_b = -1;
    /// Conflicting logical buffer (hazards only), by name.
    std::string buffer;
    /// Hazards: a dependency chain from a root to each endpoint,
    /// oldest-first, proving the endpoint's execution context. Since the
    /// endpoints are unordered, neither chain passes through the other
    /// endpoint — together they witness a schedule in which both kernels
    /// are in flight simultaneously.
    std::vector<int> witness_a;
    std::vector<int> witness_b;
    /// Self-contained human-readable description.
    std::string message;
};

struct LintOptions {
    /// Enables the occupancy-clamp lint when set.
    const sim::DeviceSpec *device = nullptr;
    /// Report hazards only, skipping the advisory schedule and per-node
    /// lints (the capture gate).
    bool hazards_only = false;
};

struct LintReport {
    std::size_t num_nodes = 0;
    int num_streams = 0;
    std::size_t num_edges = 0;
    std::vector<LintFinding> findings;

    std::size_t count(LintSeverity severity) const;
    /// Number of RAW/WAR/WAW findings — the gate mgplan and capture
    /// enforcement fail on.
    std::size_t hazards() const;
    bool clean() const { return hazards() == 0; }
    /// "2 errors, 1 warning, 3 infos" style summary.
    std::string summary() const;
};

/// Analyzes the plan `facts` describes and returns every finding,
/// hazards first. Deterministic: buffers are analyzed in name order, so
/// findings come out in a fixed order for a given graph whatever the
/// process interned before it.
LintReport lint_graph(const PlanFacts &facts,
                      const LintOptions &options = {});

/// Thrown when a freshly captured plan races. Raised *inside* the
/// PlanCache builder (verify_capture), so a hazardous plan never enters
/// the cache.
struct PlanLintError : Error {
    using Error::Error;
};

/// Whether capture-time lint enforcement is on: the MULTIGRAIN_LINT
/// environment variable forces it ("0" off, anything else on); unset, it
/// defaults to on in debug (!NDEBUG) builds and off in release builds.
bool capture_lint_enabled();

/// Lints `facts` for hazards only (schedule lints are advisory and never
/// block capture) and throws PlanLintError naming `what` when any are
/// found. The lint gate of verify_capture (core/check.h).
void require_hazard_free(const PlanFacts &facts,
                         const sim::DeviceSpec &device,
                         const std::string &what);

}  // namespace multigrain

#endif  // MULTIGRAIN_CORE_LINT_H_
