#include "gpusim/launch.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <unordered_map>

#include "common/error.h"

namespace multigrain::sim {

namespace {

/// Process-wide interning table. Leaked (never destroyed) so buffer ids
/// stay resolvable from atexit handlers and static destructors.
struct BufferTable {
    std::mutex mutex;
    std::vector<std::string> names;
    std::unordered_map<std::string, BufferId> ids;
};

BufferTable &
buffer_table()
{
    static BufferTable *table = new BufferTable;
    return *table;
}

}  // namespace

BufferId
intern_buffer(const std::string &name)
{
    MG_CHECK(!name.empty()) << "buffer name must be non-empty";
    BufferTable &table = buffer_table();
    const std::lock_guard<std::mutex> lock(table.mutex);
    const auto it = table.ids.find(name);
    if (it != table.ids.end()) {
        return it->second;
    }
    const BufferId id = static_cast<BufferId>(table.names.size());
    table.names.push_back(name);
    table.ids.emplace(name, id);
    return id;
}

std::string
buffer_name(BufferId id)
{
    BufferTable &table = buffer_table();
    const std::lock_guard<std::mutex> lock(table.mutex);
    MG_CHECK(id >= 0 && static_cast<std::size_t>(id) < table.names.size())
        << "unknown buffer id " << id;
    return table.names[static_cast<std::size_t>(id)];
}

bool
buffer_is_plan_local(BufferId id)
{
    return buffer_name(id).front() == '%';
}

namespace {

/// MULTIGRAIN_MEM_PERTURB: multiplicative scale on every annotated byte
/// size, read once per process. The memory analogue of
/// MULTIGRAIN_PERTURB (device.h): it exists so the mgperf gate's
/// self-test can prove a grown footprint trips the exact
/// peak_hbm_bytes policy, without a code change. 1.0 (or unset) is
/// identity; timing inputs are untouched.
double
mem_perturbation()
{
    static const double scale = [] {
        const char *spec = std::getenv("MULTIGRAIN_MEM_PERTURB");
        if (spec == nullptr || *spec == '\0') {
            return 1.0;
        }
        const double s = std::atof(spec);
        MG_CHECK(s > 0) << "MULTIGRAIN_MEM_PERTURB must be positive: "
                        << spec;
        return s;
    }();
    return scale;
}

std::uint64_t
scale_bytes(std::uint64_t bytes)
{
    const double s = mem_perturbation();
    if (s == 1.0) {
        return bytes;
    }
    return static_cast<std::uint64_t>(static_cast<double>(bytes) * s);
}

}  // namespace

KernelLaunch
annotate(KernelLaunch launch, std::initializer_list<SizedBuffer> reads,
         std::initializer_list<SizedBuffer> writes,
         std::initializer_list<SizedBuffer> accums)
{
    for (const SizedBuffer &buf : reads) {
        launch.reads.push_back(intern_buffer(buf.name));
        launch.read_bytes.push_back(scale_bytes(buf.bytes));
        launch.read_flags.push_back(buf.flags);
    }
    for (const SizedBuffer &buf : writes) {
        launch.writes.push_back(intern_buffer(buf.name));
        launch.write_bytes.push_back(scale_bytes(buf.bytes));
        launch.write_flags.push_back(buf.flags);
    }
    for (const SizedBuffer &buf : accums) {
        launch.accums.push_back(intern_buffer(buf.name));
        launch.accum_bytes.push_back(scale_bytes(buf.bytes));
        launch.accum_flags.push_back(buf.flags);
    }
    return launch;
}

index_t
KernelLaunch::num_tbs() const
{
    index_t n = 0;
    for (const auto &group : tbs) {
        n += group.count;
    }
    return n;
}

TbWork
KernelLaunch::total_work() const
{
    TbWork total;
    for (const auto &group : tbs) {
        total.tensor_flops += group.work.tensor_flops * group.count;
        total.cuda_flops += group.work.cuda_flops * group.count;
        total.dram_read_bytes += group.work.dram_read_bytes * group.count;
        total.dram_write_bytes += group.work.dram_write_bytes * group.count;
        total.l2_bytes += group.work.l2_bytes * group.count;
    }
    return total;
}

void
KernelLaunch::add_tb(const TbWork &work, index_t count)
{
    MG_CHECK(count >= 0) << "TB count must be non-negative";
    if (count == 0) {
        return;
    }
    if (!tbs.empty()) {
        TbGroup &tail = tbs.back();
        if (tail.work == work) {
            tail.count += count;
            return;
        }
    }
    tbs.push_back({work, count});
}

int
occupancy_per_sm(const DeviceSpec &device, const TbShape &shape)
{
    MG_CHECK(shape.threads > 0) << "TB must have threads";
    int limit = device.max_tb_per_sm;
    limit = std::min(limit, device.max_threads_per_sm / shape.threads);
    if (shape.smem_bytes > 0) {
        limit = std::min(limit, device.smem_per_sm_bytes / shape.smem_bytes);
    }
    const int regs_per_tb = shape.threads * shape.regs_per_thread;
    if (regs_per_tb > 0) {
        limit = std::min(limit, device.regs_per_sm / regs_per_tb);
    }
    return std::max(limit, 1);
}

}  // namespace multigrain::sim
