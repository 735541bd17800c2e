#ifndef MULTIGRAIN_CORE_CHECK_H_
#define MULTIGRAIN_CORE_CHECK_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/memplan.h"
#include "core/plan_facts.h"
#include "gpusim/device.h"

/// Plan check: an abstract interpreter over the LaunchGraph IR.
///
/// Lint (core/lint.h) proves a captured plan is race-free and the
/// memory planner (core/memplan.h) pools dead intermediates into an
/// arena, but neither proves the plan is *well-defined*: a kernel can
/// read a buffer no ordered predecessor ever wrote, an accumulator can
/// fold into garbage, a mis-sized annotation silently corrupts the HBM
/// budgets admission and batching depend on, and the planner's aliasing
/// decisions are checked only by its own re-derivation. check_graph runs
/// a per-buffer definedness lattice
///
///     undef ──write──▶ defined ──read──▶ consumed
///
/// along the same happens-before relation the hazard analysis reads
/// (core/plan_facts.h),
/// interpreting each buffer abstractly instead of executing the kernels:
///
///  * use-before-def (error): a plan-local read with no ordered
///    dominating write and no kBufInput / kBufZeroInit declaration —
///    the value read is garbage under some legal schedule.
///  * uninit-accum (error): an accums use with no ordered initializing
///    write and no declared zero-init — the commutative RMW folds into
///    whatever the arena slot last held.
///  * dead-store / leaked-temp (warning): a store (write or accum) no
///    ordered successor ever reads, on a buffer not declared kBufOutput.
///    Dead stores waste bandwidth; leaked plan-local temporaries inflate
///    the arena for a value nobody drains.
///  * size-mismatch (error): per kernel, the modeled memory traffic
///    (TbWork::mem_bytes) disagrees with Σ annotated SizedBuffer bytes
///    by more than the tolerance band — the figures memplan budgets are
///    built from no longer describe the kernel.
///  * arena-alias (error): the soundness proof for the memory planner —
///    an independent, witness-producing re-check that every pair of
///    pooled buffers whose arena intervals overlap in the given MemPlan
///    is strictly ordered (every access of one happens-before every
///    access of the other), so a planner bug can never silently corrupt
///    replay.
///
/// Every definedness finding carries the same witness chains lint
/// hazards carry: a concrete dependency chain to each endpoint proving
/// the offending schedule is reachable.
namespace multigrain {

enum class CheckSeverity { kWarning, kError };

enum class CheckKind {
    kUseBeforeDef,  ///< Read with no ordered dominating write (error).
    kUninitAccum,   ///< Accumulation onto undefined contents (error).
    kArenaAlias,    ///< Unordered buffers sharing an arena slot (error).
    kSizeMismatch,  ///< Modeled vs annotated bytes out of band (error).
    kDeadStore,     ///< Shared-tensor store never read (warning).
    kLeakedTemp,    ///< Plan-local store never drained (warning).
};

const char *to_string(CheckKind kind);
const char *to_string(CheckSeverity severity);
CheckSeverity severity_of(CheckKind kind);

struct CheckFinding {
    CheckKind kind = CheckKind::kUseBeforeDef;
    CheckSeverity severity = CheckSeverity::kError;
    /// The offending node (the undefined reader, the uninitialized
    /// accumulator, the unread store, the mis-sized kernel, or the first
    /// endpoint of an unordered aliasing pair). -1 when not applicable.
    int node_a = -1;
    /// Second endpoint (arena-alias only): the access of the slot-mate
    /// that is unordered against node_a.
    int node_b = -1;
    /// The buffer the finding is about, by name.
    std::string buffer;
    /// Dependency chain (oldest-first) witnessing node_a's execution
    /// context; for arena-alias a second chain witnesses node_b, and the
    /// two together exhibit a schedule with both accesses in flight.
    std::vector<int> witness_a;
    std::vector<int> witness_b;
    /// Self-contained human-readable description.
    std::string message;
};

/// The size-check band: Σ annotated bytes / modeled mem_bytes must lie in
/// [1/kSizeTolUnder, kSizeTolOver]. Calibrated against the full preset
/// matrix, whose observed ratios span 0.094..1.5 (cache-reuse models
/// undercount against annotations; perturbed replicas overcount) — the
/// band keeps an order of magnitude of margin on either side, wide enough
/// for any legitimate plan and tight enough that a buffer mis-sized by
/// two orders of magnitude cannot hide.
constexpr double kSizeTolUnder = 128.0;
constexpr double kSizeTolOver = 16.0;

struct CheckOptions {
    /// When set, runs the arena-aliasing soundness proof against this
    /// plan (typically the memory plan of the same graph).
    const MemPlan *memplan = nullptr;
    /// Per-kernel modeled-vs-annotated byte reconciliation, against the
    /// band [1/kSizeTolUnder, kSizeTolOver].
    bool size_check = true;
    /// Dead-store / leaked-temp liveness warnings.
    bool liveness_lints = true;
};

struct CheckReport {
    std::size_t num_nodes = 0;
    std::size_t num_buffers = 0;
    /// Observed per-kernel annotated/modeled byte-ratio extremes across
    /// the sized kernels (0 when none was sized) — the calibration data
    /// behind the size tolerance band.
    double min_size_ratio = 0;
    double max_size_ratio = 0;
    std::vector<CheckFinding> findings;

    std::size_t count(CheckSeverity severity) const;
    /// Error-severity findings — the gate mgplan and capture
    /// enforcement fail on.
    std::size_t errors() const;
    bool clean() const { return findings.empty(); }
    /// "2 error(s), 1 warning(s)" style summary.
    std::string summary() const;
};

/// Abstractly interprets the plan `facts` describes and returns every
/// finding, errors first. Deterministic: buffers are analyzed in name
/// order, so findings come out in a fixed order for a given graph.
CheckReport check_graph(const PlanFacts &facts,
                        const CheckOptions &options = {});

/// Thrown by verify_capture when a freshly captured plan is ill-defined.
/// Raised *inside* the PlanCache builder, so such a plan never enters
/// the cache. Derives from ValidationError so the CLIs' exit-2 contract
/// applies.
struct PlanCheckError : ValidationError {
    using ValidationError::ValidationError;
};

/// Whether capture-time definedness enforcement is on: the
/// MULTIGRAIN_CHECK environment variable forces it ("0" off, anything
/// else on); unset, it defaults to on in debug (!NDEBUG) builds and off
/// in release builds — the same policy as MULTIGRAIN_LINT.
bool capture_check_enabled();

/// The capture gate every PlanCache builder of a standalone plan runs
/// before returning `graph` into the cache under `key`. It derives the
/// graph's PlanFacts once and reads them for all three verifiers:
///  1. hazards (require_hazard_free), when capture_lint_enabled();
///  2. the memory plan, planned and alias-validated into the cache under
///     `key + "|mem"` (memplan_for), always;
///  3. definedness errors — use-before-def, uninit-accum, and the
///     arena-aliasing proof against that memory plan — when
///     capture_check_enabled(). The size band and liveness warnings are
///     advisory and never block capture.
/// Throws PlanLintError, MemPlanError or PlanCheckError naming `key`.
void verify_capture(const LaunchGraph &graph, const sim::DeviceSpec &device,
                    const std::string &key);

}  // namespace multigrain

#endif  // MULTIGRAIN_CORE_CHECK_H_
