// Tests for runtime/experiment_cache: hit/miss accounting (through a
// per-caller cache_traffic sink), identity of the
// served instance, bit-identical results from cached vs freshly built
// experiments, config-digest keying, single construction under concurrent
// access, and the constructor-failure retry path.

#include <gtest/gtest.h>

#include <future>
#include <stdexcept>
#include <vector>

#include "core/experiment.h"
#include "runtime/experiment_cache.h"
#include "runtime/thread_pool.h"

namespace {

using namespace synts;
using runtime::experiment_cache;

constexpr auto kBenchmark = workload::benchmark_id::radix;
constexpr auto kStage = circuit::pipe_stage::simple_alu;

TEST(runtime_cache, miss_then_hits_serve_the_same_instance)
{
    experiment_cache cache;
    runtime::cache_traffic traffic;
    const auto first = cache.get_or_create(kBenchmark, kStage, {}, nullptr, &traffic);
    const auto second = cache.get_or_create(kBenchmark, kStage, {}, nullptr, &traffic);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(traffic.stage.misses.load(), 1u);
    EXPECT_EQ(traffic.stage.hits.load(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(runtime_cache, distinct_keys_get_distinct_entries)
{
    experiment_cache cache;
    runtime::cache_traffic traffic;
    const auto a = cache.get_or_create(kBenchmark, kStage, {}, nullptr, &traffic);
    const auto b = cache.get_or_create(kBenchmark, circuit::pipe_stage::decode, {},
                                       nullptr, &traffic);
    core::experiment_config reseeded;
    reseeded.seed = 43;
    const auto c = cache.get_or_create(kBenchmark, kStage, reseeded, nullptr, &traffic);
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(traffic.stage.misses.load(), 3u);
    EXPECT_EQ(traffic.stage.hits.load(), 0u);
    EXPECT_EQ(cache.size(), 3u);
}

TEST(runtime_cache, config_digest_tracks_every_field)
{
    const core::experiment_config base;
    EXPECT_EQ(base.digest(), core::experiment_config{}.digest());

    core::experiment_config changed = base;
    changed.seed = 7;
    EXPECT_NE(changed.digest(), base.digest());

    changed = base;
    changed.thread_count = 8;
    EXPECT_NE(changed.digest(), base.digest());

    changed = base;
    changed.sampling.sample_fraction = 0.2;
    EXPECT_NE(changed.digest(), base.digest());

    changed = base;
    changed.characterization.histogram_bins = 256;
    EXPECT_NE(changed.digest(), base.digest());

    changed = base;
    changed.characterization.core.dcache.miss_penalty_cycles = 30;
    EXPECT_NE(changed.digest(), base.digest());

    changed = base;
    changed.params.leakage_power = 1e-6;
    EXPECT_NE(changed.digest(), base.digest());

    changed = base;
    changed.voltage_class_spread = 0.0;
    EXPECT_NE(changed.digest(), base.digest());
}

TEST(runtime_cache, cached_experiment_matches_fresh_construction_bit_for_bit)
{
    experiment_cache cache;
    const auto cached = cache.get_or_create(kBenchmark, kStage);
    const core::benchmark_experiment fresh(kBenchmark, kStage, {});

    const double theta = fresh.equal_weight_theta();
    EXPECT_EQ(cached->equal_weight_theta(), theta);

    for (const core::policy_kind kind :
         {core::policy_kind::synts_offline, core::policy_kind::synts_online}) {
        const auto from_cache = cached->run_policy(kind, theta);
        const auto from_fresh = fresh.run_policy(kind, theta);
        ASSERT_EQ(from_cache.intervals.size(), from_fresh.intervals.size());
        EXPECT_EQ(from_cache.sum.energy, from_fresh.sum.energy);
        EXPECT_EQ(from_cache.sum.time_ps, from_fresh.sum.time_ps);
        for (std::size_t k = 0; k < from_cache.intervals.size(); ++k) {
            EXPECT_EQ(from_cache.intervals[k].energy, from_fresh.intervals[k].energy);
            EXPECT_EQ(from_cache.intervals[k].time_ps, from_fresh.intervals[k].time_ps);
        }
    }
}

TEST(runtime_cache, concurrent_get_or_create_constructs_once)
{
    experiment_cache cache;
    runtime::cache_traffic traffic;
    runtime::thread_pool pool(4);
    constexpr std::size_t callers = 8;
    std::vector<std::future<experiment_cache::experiment_ptr>> futures;
    futures.reserve(callers);
    for (std::size_t i = 0; i < callers; ++i) {
        futures.push_back(pool.submit([&cache, &traffic] {
            return cache.get_or_create(kBenchmark, kStage, {}, nullptr, &traffic);
        }));
    }
    std::vector<experiment_cache::experiment_ptr> served;
    served.reserve(callers);
    for (auto& f : futures) {
        served.push_back(f.get());
    }
    for (const auto& ptr : served) {
        EXPECT_EQ(ptr.get(), served.front().get());
    }
    EXPECT_EQ(traffic.stage.misses.load(), 1u);
    EXPECT_EQ(traffic.stage.hits.load(), callers - 1);
}

TEST(runtime_cache, constructor_failure_is_rethrown_and_retryable)
{
    experiment_cache cache;
    runtime::cache_traffic traffic;
    core::experiment_config broken;
    broken.thread_count = 0; // make_profile rejects this
    EXPECT_THROW((void)cache.get_or_create(kBenchmark, kStage, broken, nullptr, &traffic),
                 std::invalid_argument);
    EXPECT_EQ(cache.size(), 0u); // failed entry dropped
    EXPECT_THROW((void)cache.get_or_create(kBenchmark, kStage, broken, nullptr, &traffic),
                 std::invalid_argument);
    EXPECT_EQ(traffic.stage.misses.load(), 2u); // both calls attempted construction
}

TEST(runtime_cache, clear_forgets_entries)
{
    experiment_cache cache;
    runtime::cache_traffic traffic;
    (void)cache.get_or_create(kBenchmark, kStage, {}, nullptr, &traffic);
    EXPECT_EQ(cache.size(), 1u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    (void)cache.get_or_create(kBenchmark, kStage, {}, nullptr, &traffic);
    EXPECT_EQ(traffic.stage.misses.load(), 2u);
}

TEST(runtime_cache, process_cache_is_a_singleton)
{
    EXPECT_EQ(&experiment_cache::process_cache(), &experiment_cache::process_cache());
}

} // namespace
