#include "core/memplan.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "core/plan_cache.h"

namespace multigrain {

namespace {

/// Whether every use of `a` happens-before every use of `b` — the only
/// way two buffers' live ranges provably never overlap. Capture order is
/// topological, so this is possible only when a's range ends before b's
/// begins; the caller checks both directions.
bool
all_ordered(const PlanFacts &facts, const std::vector<int> &a,
            const std::vector<int> &b)
{
    if (a.back() >= b.front()) {
        return false;
    }
    for (const int i : a) {
        for (const int j : b) {
            if (!facts.ordered(i, j)) {
                return false;
            }
        }
    }
    return true;
}

bool
interfere(const PlanFacts &facts, const std::vector<int> &a,
          const std::vector<int> &b)
{
    return !all_ordered(facts, a, b) && !all_ordered(facts, b, a);
}

std::uint64_t
align_up(std::uint64_t v)
{
    return (v + kArenaAlign - 1) / kArenaAlign * kArenaAlign;
}

}  // namespace

double
MemPlan::pooling_savings() const
{
    const std::uint64_t naive = naive_hbm_bytes();
    if (naive == 0) {
        return 0.0;
    }
    return 1.0 -
           static_cast<double>(peak_hbm_bytes()) / static_cast<double>(naive);
}

MemPlan
plan_memory(const PlanFacts &facts)
{
    MemPlan plan;
    plan.num_nodes = facts.num_nodes();

    for (const BufferFacts &b : facts.buffers()) {
        MemPlanBuffer buf;
        buf.id = b.id;
        buf.name = b.name;
        buf.bytes = b.bytes;
        buf.first_use = b.first_use();
        buf.last_use = b.last_use();
        buf.uses = b.uses;
        if (!b.plan_local) {
            buf.cls = BufferClass::kShared;
        }
        else if (b.first_use_reads) {
            buf.cls = BufferClass::kInput;
        }
        else {
            buf.cls = BufferClass::kPooled;
        }
        plan.buffers.push_back(std::move(buf));
    }

    std::sort(plan.buffers.begin(), plan.buffers.end(),
              [](const MemPlanBuffer &a, const MemPlanBuffer &b) {
                  if (a.first_use != b.first_use) {
                      return a.first_use < b.first_use;
                  }
                  return a.name < b.name;
              });

    // Greedy first-fit: in deterministic order, place each pooled buffer
    // at the lowest aligned offset clear of every interfering buffer
    // already placed. Zero-sized buffers take no space and alias freely.
    std::vector<std::size_t> placed;
    for (std::size_t i = 0; i < plan.buffers.size(); ++i) {
        MemPlanBuffer &buf = plan.buffers[i];
        if (buf.cls != BufferClass::kPooled) {
            plan.external_bytes += buf.bytes;
            continue;
        }
        plan.pooled_request_bytes += buf.bytes;
        if (buf.bytes == 0) {
            continue;
        }
        std::vector<std::pair<std::uint64_t, std::uint64_t>> blockers;
        for (const std::size_t p : placed) {
            const MemPlanBuffer &other = plan.buffers[p];
            if (interfere(facts, buf.uses, other.uses)) {
                blockers.emplace_back(other.offset,
                                      other.offset + other.bytes);
            }
        }
        std::sort(blockers.begin(), blockers.end());
        std::uint64_t offset = 0;
        for (const auto &[begin, end] : blockers) {
            if (end <= offset) {
                continue;
            }
            if (begin >= offset + buf.bytes) {
                break;
            }
            offset = align_up(end);
        }
        buf.offset = offset;
        plan.arena_bytes = std::max(plan.arena_bytes, offset + buf.bytes);
        placed.push_back(i);
    }
    return plan;
}

void
validate_memplan(const PlanFacts &facts, const MemPlan &plan)
{
    if (plan.num_nodes != facts.num_nodes()) {
        std::ostringstream os;
        os << "memplan covers " << plan.num_nodes << " nodes but graph has "
           << facts.num_nodes();
        throw MemPlanError(os.str());
    }

    std::vector<const MemPlanBuffer *> pooled;
    for (const MemPlanBuffer &buf : plan.buffers) {
        if (buf.cls != BufferClass::kPooled || buf.bytes == 0) {
            continue;
        }
        if (buf.offset % kArenaAlign != 0) {
            std::ostringstream os;
            os << "buffer " << buf.name << " at misaligned arena offset "
               << buf.offset;
            throw MemPlanError(os.str());
        }
        if (buf.offset + buf.bytes > plan.arena_bytes) {
            std::ostringstream os;
            os << "buffer " << buf.name << " [" << buf.offset << ", "
               << buf.offset + buf.bytes << ") overruns arena of "
               << plan.arena_bytes << " bytes";
            throw MemPlanError(os.str());
        }
        if (facts.find(buf.id) == nullptr) {
            throw MemPlanError("memplan buffer " + buf.name +
                               " never used by the graph");
        }
        pooled.push_back(&buf);
    }

    for (std::size_t i = 0; i < pooled.size(); ++i) {
        for (std::size_t j = i + 1; j < pooled.size(); ++j) {
            const MemPlanBuffer &a = *pooled[i];
            const MemPlanBuffer &b = *pooled[j];
            const bool disjoint_life = !interfere(
                facts, facts.find(a.id)->uses, facts.find(b.id)->uses);
            const bool disjoint_span = a.offset + a.bytes <= b.offset ||
                                       b.offset + b.bytes <= a.offset;
            if (!disjoint_life && !disjoint_span) {
                std::ostringstream os;
                os << "live-overlapping buffers alias: " << a.name << " ["
                   << a.offset << ", " << a.offset + a.bytes << ") and "
                   << b.name << " [" << b.offset << ", "
                   << b.offset + b.bytes
                   << ") can be in flight simultaneously";
                throw MemPlanError(os.str());
            }
        }
    }
}

std::shared_ptr<const MemPlan>
memplan_for(const std::string &graph_key, const LaunchGraph &graph,
            const PlanFacts *facts)
{
    return PlanCache::instance().get_or_build<MemPlan>(
        graph_key + "|mem", [&]() {
            std::optional<PlanFacts> derived;
            const PlanFacts &f =
                facts != nullptr ? *facts : derived.emplace(graph);
            auto plan = std::make_shared<MemPlan>(plan_memory(f));
            validate_memplan(f, *plan);
            return plan;
        });
}

}  // namespace multigrain
