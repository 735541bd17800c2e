// PlanCache unit tests (LRU behavior, statistics) plus the cache-key
// ingredients: CompoundPattern::fingerprint() stability and
// device_plan_key() sensitivity. The end-to-end test pins the headline
// behavior: running the same workload twice serves the second run's plans
// entirely from the cache.

#include <memory>
#include <string>
#include <typeindex>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/attention.h"
#include "core/plan_cache.h"
#include "gpusim/device.h"
#include "patterns/pattern.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

namespace multigrain {
namespace {

std::shared_ptr<const std::string>
value(const std::string &text)
{
    return std::make_shared<const std::string>(text);
}

TEST(PlanCacheTest, HitOnIdenticalKeyMissOnUnknown)
{
    PlanCache cache(4);
    EXPECT_EQ(cache.lookup("a", typeid(std::string)), nullptr);
    cache.insert("a", value("va"), typeid(std::string));
    const auto hit = cache.lookup("a", typeid(std::string));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*std::static_pointer_cast<const std::string>(hit), "va");

    const PlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.capacity, 4u);
    EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(PlanCacheTest, GetOrBuildBuildsOnceThenServesCached)
{
    PlanCache cache(4);
    int builds = 0;
    const auto build = [&] {
        ++builds;
        return std::make_shared<const std::string>("built");
    };
    const auto first = cache.get_or_build<std::string>("k", build);
    const auto second = cache.get_or_build<std::string>("k", build);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PlanCacheTest, BoundedCapacityEvictsLeastRecentlyUsed)
{
    PlanCache cache(2);
    cache.insert("a", value("va"), typeid(std::string));
    cache.insert("b", value("vb"), typeid(std::string));
    // Touch "a" so "b" becomes the LRU entry.
    EXPECT_NE(cache.lookup("a", typeid(std::string)), nullptr);
    cache.insert("c", value("vc"), typeid(std::string));

    EXPECT_EQ(cache.lookup("b", typeid(std::string)), nullptr);
    EXPECT_NE(cache.lookup("a", typeid(std::string)), nullptr);
    EXPECT_NE(cache.lookup("c", typeid(std::string)), nullptr);
    const PlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);
}

TEST(PlanCacheTest, EvictedEntryStaysAliveThroughSharedPtr)
{
    PlanCache cache(1);
    const auto held = value("keep");
    cache.insert("a", held, typeid(std::string));
    cache.insert("b", value("vb"), typeid(std::string));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(*held, "keep");  // Eviction never invalidates live users.
}

TEST(PlanCacheTest, ShrinkingCapacityEvicts)
{
    PlanCache cache(4);
    cache.insert("a", value("va"), typeid(std::string));
    cache.insert("b", value("vb"), typeid(std::string));
    cache.insert("c", value("vc"), typeid(std::string));
    cache.set_capacity(1);
    const PlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.evictions, 2u);
    // The most recently used entry survives.
    EXPECT_NE(cache.lookup("c", typeid(std::string)), nullptr);
}

TEST(PlanCacheTest, ClearResetsEntriesAndCounters)
{
    PlanCache cache(4);
    cache.insert("a", value("va"), typeid(std::string));
    cache.lookup("a", typeid(std::string));
    cache.clear();
    const PlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.0);
}

TEST(PlanCacheTest, TypeMismatchOnSharedKeyIsAnError)
{
    PlanCache cache(4);
    cache.insert("a", value("va"), typeid(std::string));
    EXPECT_THROW(cache.lookup("a", typeid(int)), Error);
}

TEST(PlanCacheMetricsTest, RegistryCoversTheStats)
{
    PlanCacheStats stats;
    stats.hits = 3;
    stats.misses = 1;
    stats.evictions = 2;
    stats.entries = 5;
    stats.capacity = 8;
    std::vector<std::string> keys;
    for (const PlanCacheMetricDef &metric : plan_cache_metric_registry()) {
        keys.push_back(metric.key);
        if (std::string(metric.key) == "plan_cache.hits") {
            EXPECT_DOUBLE_EQ(metric.get(stats), 3.0);
        }
        if (std::string(metric.key) == "plan_cache.hit_rate") {
            EXPECT_DOUBLE_EQ(metric.get(stats), 0.75);
        }
    }
    EXPECT_NE(std::find(keys.begin(), keys.end(), "plan_cache.misses"),
              keys.end());
    EXPECT_NE(std::find(keys.begin(), keys.end(), "plan_cache.evictions"),
              keys.end());
    EXPECT_NE(std::find(keys.begin(), keys.end(), "plan_cache.capacity"),
              keys.end());
}

// ---------------------------------------------------------------------------
// Cache-key ingredients.

CompoundPattern
sample_pattern()
{
    CompoundPattern p;
    p.seq_len = 128;
    p.atoms.push_back(AtomicPattern::local(4));
    p.atoms.push_back(AtomicPattern::global({1, 40}));
    p.atoms.push_back(AtomicPattern::random(3, 21));
    return p;
}

TEST(FingerprintTest, StableAcrossIdenticalPatterns)
{
    EXPECT_EQ(sample_pattern().fingerprint(),
              sample_pattern().fingerprint());
}

TEST(FingerprintTest, SensitiveToEveryDeterminingField)
{
    const std::uint64_t base = sample_pattern().fingerprint();

    CompoundPattern p = sample_pattern();
    p.seq_len = 256;
    EXPECT_NE(p.fingerprint(), base);

    p = sample_pattern();
    p.valid_len = 100;
    EXPECT_NE(p.fingerprint(), base);

    p = sample_pattern();
    p.atoms[0] = AtomicPattern::local(5);
    EXPECT_NE(p.fingerprint(), base);

    p = sample_pattern();
    p.atoms[2] = AtomicPattern::random(3, 22);  // Same shape, other seed.
    EXPECT_NE(p.fingerprint(), base);

    p = sample_pattern();
    p.atoms.pop_back();
    EXPECT_NE(p.fingerprint(), base);
}

TEST(DevicePlanKeyTest, DistinguishesDevicesAndConstants)
{
    const sim::DeviceSpec a100 = sim::DeviceSpec::a100();
    EXPECT_EQ(device_plan_key(a100), device_plan_key(sim::DeviceSpec::a100()));
    EXPECT_NE(device_plan_key(a100),
              device_plan_key(sim::DeviceSpec::rtx3090()));

    sim::DeviceSpec tweaked = a100;
    tweaked.dram_gbps *= 2;
    EXPECT_NE(device_plan_key(a100), device_plan_key(tweaked));
}

// ---------------------------------------------------------------------------
// Engine + runner integration.

AttentionConfig
engine_config()
{
    AttentionConfig c;
    c.head_dim = 16;
    c.block = 16;
    return c;
}

TEST(PlanCacheIntegrationTest, IdenticalEnginesShareMetadataAndGraphs)
{
    PlanCache &cache = PlanCache::instance();
    cache.clear();

    const AttentionEngine first(sample_pattern(), engine_config(),
                                SliceMode::kMultigrain);
    const PlanCacheStats after_first = cache.stats();
    EXPECT_EQ(after_first.hits, 0u);
    EXPECT_GT(after_first.misses, 0u);

    const AttentionEngine second(sample_pattern(), engine_config(),
                                 SliceMode::kMultigrain);
    const PlanCacheStats after_second = cache.stats();
    EXPECT_EQ(after_second.hits, after_first.hits + 1);
    EXPECT_EQ(after_second.misses, after_first.misses);
    EXPECT_EQ(first.plan_key(), second.plan_key());

    // Same plan key + device -> the same captured graph object.
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    const auto g1 = first.forward_graph(device);
    const auto g2 = second.forward_graph(device);
    EXPECT_EQ(g1.get(), g2.get());
}

TEST(PlanCacheIntegrationTest, MissOnChangedBlockSizeOrDevice)
{
    PlanCache &cache = PlanCache::instance();
    cache.clear();

    const AttentionEngine base(sample_pattern(), engine_config(),
                               SliceMode::kMultigrain);
    AttentionConfig bigger = engine_config();
    bigger.block = 32;
    const AttentionEngine other(sample_pattern(), bigger,
                                SliceMode::kMultigrain);
    EXPECT_NE(base.plan_key(), other.plan_key());
    // Both constructions were misses: different block -> different key.
    const PlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 2u);

    // Same engine, different device -> separate graph entries.
    const auto on_a100 = base.forward_graph(sim::DeviceSpec::a100());
    const auto on_3090 = base.forward_graph(sim::DeviceSpec::rtx3090());
    EXPECT_NE(on_a100.get(), on_3090.get());
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(PlanCacheIntegrationTest, SecondRunOfSameWorkloadServedFromCache)
{
    PlanCache &cache = PlanCache::instance();
    cache.clear();

    const ModelConfig model = ModelConfig::tiny_test();
    Rng rng(2022);
    const WorkloadSample sample = sample_for_model(rng, model);
    const sim::DeviceSpec device = sim::DeviceSpec::a100();

    const TransformerRunner first(model, SliceMode::kMultigrain, sample, 1);
    const EndToEndResult r1 = first.simulate(device);
    const PlanCacheStats cold = cache.stats();
    EXPECT_GT(cold.misses, 0u);

    const TransformerRunner second(model, SliceMode::kMultigrain, sample,
                                   1);
    const EndToEndResult r2 = second.simulate(device);
    const PlanCacheStats warm = cache.stats();

    // The second step re-derived nothing: every lookup hit.
    EXPECT_EQ(warm.misses, cold.misses);
    EXPECT_GT(warm.hits, cold.hits);
    EXPECT_GT(warm.hit_rate(), 0.0);

    // And replay is deterministic: both runs simulate identically.
    EXPECT_EQ(r1.sim.total_us, r2.sim.total_us);
    ASSERT_EQ(r1.sim.kernels.size(), r2.sim.kernels.size());
    for (std::size_t i = 0; i < r1.sim.kernels.size(); ++i) {
        EXPECT_EQ(r1.sim.kernels[i].name, r2.sim.kernels[i].name);
        EXPECT_EQ(r1.sim.kernels[i].stream, r2.sim.kernels[i].stream);
        EXPECT_EQ(r1.sim.kernels[i].end_us, r2.sim.kernels[i].end_us);
    }
}

}  // namespace
}  // namespace multigrain
