#include "core/plan_cache.h"

#include <cstdio>
#include <cstring>
#include <numeric>

#include "common/error.h"
#include "common/timer.h"
#include "formats/convert.h"

namespace multigrain {

const CsrLayout &
CachedPlanState::fine_transposed() const
{
    MG_CHECK(plan_.has_fine()) << "no fine part to transpose";
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!fine_t_) {
        const ScopedTimer timer("offline.transpose_fine_metadata");
        fine_t_ = std::make_shared<const CsrLayout>(
            transpose_layout(*plan_.fine));
    }
    return *fine_t_;
}

const BsrLayout &
CachedPlanState::coarse_transposed() const
{
    MG_CHECK(plan_.has_coarse()) << "no coarse part to transpose";
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!coarse_t_) {
        const ScopedTimer timer("offline.transpose_coarse_metadata");
        coarse_t_ = std::make_shared<const BsrLayout>(
            transpose_layout(*plan_.coarse));
    }
    return *coarse_t_;
}

std::shared_ptr<const CsrLayout>
CachedPlanState::global_layout() const
{
    MG_CHECK(plan_.has_special()) << "no global rows to lay out";
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!global_) {
        auto layout = std::make_shared<CsrLayout>();
        layout->rows = layout->cols = plan_.seq_len;
        layout->row_offsets.assign(
            static_cast<std::size_t>(plan_.seq_len) + 1, 0);
        for (const index_t row : plan_.global_rows) {
            layout->row_offsets[static_cast<std::size_t>(row) + 1] =
                plan_.valid_len;
            for (index_t c = 0; c < plan_.valid_len; ++c) {
                layout->col_indices.push_back(c);
            }
        }
        std::partial_sum(layout->row_offsets.begin(),
                         layout->row_offsets.end(),
                         layout->row_offsets.begin());
        global_ = std::move(layout);
    }
    return global_;
}

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity)
{
    MG_CHECK(capacity_ > 0) << "plan cache capacity must be positive";
}

PlanCache &
PlanCache::instance()
{
    static PlanCache cache;
    return cache;
}

std::shared_ptr<const void>
PlanCache::lookup(const std::string &key, std::type_index type)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
        ++misses_;
        return nullptr;
    }
    MG_CHECK(it->second->type == type)
        << "plan cache key '" << key << "' holds a different artifact type";
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
}

void
PlanCache::insert(const std::string &key, std::shared_ptr<const void> value,
                  std::type_index type)
{
    MG_CHECK(value != nullptr) << "cannot cache a null plan artifact";
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
        // A racing builder got here first; keep the newest value.
        it->second->value = std::move(value);
        it->second->type = type;
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.push_front(Entry{key, std::move(value), type});
    index_[key] = lru_.begin();
    evict_to_capacity_locked();
}

PlanCacheStats
PlanCache::stats() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    PlanCacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.entries = lru_.size();
    s.capacity = capacity_;
    return s;
}

PlanCacheStats
stats_delta(const PlanCacheStats &before, const PlanCacheStats &after)
{
    PlanCacheStats d;
    d.hits = after.hits - before.hits;
    d.misses = after.misses - before.misses;
    d.evictions = after.evictions - before.evictions;
    d.entries = after.entries;
    d.capacity = after.capacity;
    return d;
}

void
PlanCache::set_capacity(std::size_t capacity)
{
    MG_CHECK(capacity > 0) << "plan cache capacity must be positive";
    const std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = capacity;
    evict_to_capacity_locked();
}

void
PlanCache::clear()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    lru_.clear();
    index_.clear();
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
}

void
PlanCache::evict_to_capacity_locked()
{
    while (lru_.size() > capacity_) {
        index_.erase(lru_.back().key);
        lru_.pop_back();
        ++evictions_;
    }
}

std::string
device_plan_key(const sim::DeviceSpec &device)
{
    // FNV-1a over the numeric model constants, so two specs that share a
    // marketing name but differ in any constant do not alias.
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](double v) {
        unsigned char bytes[sizeof(double)];
        std::memcpy(bytes, &v, sizeof(double));
        for (const unsigned char b : bytes) {
            h ^= b;
            h *= 0x100000001b3ull;
        }
    };
    mix(static_cast<double>(device.num_sms));
    mix(device.tensor_tflops);
    mix(device.cuda_tflops);
    mix(device.dram_gbps);
    mix(device.hbm_gbytes);
    mix(device.l2_mb);
    mix(device.l2_gbps);
    mix(static_cast<double>(device.l1_kb_per_sm));
    mix(static_cast<double>(device.max_tb_per_sm));
    mix(static_cast<double>(device.max_threads_per_sm));
    mix(static_cast<double>(device.regs_per_sm));
    mix(static_cast<double>(device.smem_per_sm_bytes));
    mix(device.tensor_efficiency);
    mix(device.dense_tensor_efficiency);
    mix(device.cuda_efficiency);
    mix(device.dram_efficiency);
    mix(device.kernel_launch_us);
    mix(device.tb_overhead_us);
    mix(device.sm_mem_burst);
    mix(device.unit_saturation);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "#%016llx",
                  static_cast<unsigned long long>(h));
    return device.name + buf;
}

const std::vector<PlanCacheMetricDef> &
plan_cache_metric_registry()
{
    static const std::vector<PlanCacheMetricDef> registry = {
        {"plan_cache.hits", "count",
         "Plan-cache lookups served from a cached entry",
         [](const PlanCacheStats &s) {
             return static_cast<double>(s.hits);
         }},
        {"plan_cache.misses", "count",
         "Plan-cache lookups that had to build the artifact",
         [](const PlanCacheStats &s) {
             return static_cast<double>(s.misses);
         }},
        {"plan_cache.evictions", "count",
         "Entries dropped by LRU capacity pressure",
         [](const PlanCacheStats &s) {
             return static_cast<double>(s.evictions);
         }},
        {"plan_cache.entries", "count",
         "Entries currently resident in the plan cache",
         [](const PlanCacheStats &s) {
             return static_cast<double>(s.entries);
         }},
        {"plan_cache.capacity", "count",
         "Maximum resident entries before LRU eviction",
         [](const PlanCacheStats &s) {
             return static_cast<double>(s.capacity);
         }},
        {"plan_cache.hit_rate", "ratio",
         "hits / (hits + misses); 0 when the cache is untouched",
         [](const PlanCacheStats &s) { return s.hit_rate(); }},
    };
    return registry;
}

}  // namespace multigrain
