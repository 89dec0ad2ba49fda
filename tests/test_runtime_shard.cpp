// Tests for multi-process sweep sharding: the deterministic pair-granular
// partition, shard runs checkpointing under GLOBAL cell indices through one
// shared store, merge assembling a result byte-identical to the unsharded
// run (JSON and task seeds included), and the rejection matrix -- foreign
// layouts/manifests, overlapping partitions, incomplete shard sets. Uses
// deliberately tiny registered workloads so N-shard sweeps stay fast.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "helpers.h"
#include "obs/metrics.h"
#include "runtime/experiment_cache.h"
#include "runtime/sweep.h"
#include "runtime/sweep_io.h"
#include "runtime/thread_pool.h"
#include "storage/artifact_store.h"
#include "storage/serialize.h"
#include "util/hashing.h"
#include "workload/registry.h"
#include "workload/scenarios.h"

namespace {

using namespace synts;

using test::temp_dir;

/// Registers (once) and returns a tiny workload in the global registry --
/// 1 interval x 500 instructions, ~100x cheaper than a built-in profile --
/// so multi-shard sweeps run in milliseconds. Distinct `salt`s are
/// distinct workloads (distinct identity AND distinct operand streams).
workload::workload_key tiny_workload(const std::string& name, std::uint64_t salt)
{
    workload::workload_registry& global = workload::workload_registry::global();
    if (global.contains(name)) {
        return global.key(name);
    }
    util::digest_builder h;
    h.text("tiny_shard_test_workload");
    h.text(name);
    h.u64(salt);
    const workload::workload_key key{name, h.digest()};
    global.add(key, [salt](std::size_t thread_count) {
        workload::benchmark_profile profile =
            workload::make_lock_ladder_profile(workload::lock_ladder_params{},
                                               thread_count);
        profile.stream_salt = salt;
        profile.interval_count = 1;
        profile.instructions_per_interval = 500;
        return profile;
    });
    return key;
}

/// A 3-pair spec over tiny workloads (cross product 3 benchmarks x 1
/// stage), two policies -- 6 cells.
runtime::sweep_spec tiny_spec()
{
    runtime::sweep_spec spec;
    spec.benchmarks = {tiny_workload("shard_tiny_a", 11),
                       tiny_workload("shard_tiny_b", 22),
                       tiny_workload("shard_tiny_c", 33)};
    spec.stages = {circuit::pipe_stage::simple_alu};
    spec.policies = {core::policy_kind::nominal, core::policy_kind::per_core_ts};
    return spec;
}

std::string sweep_json(const runtime::sweep_result& result)
{
    std::ostringstream out;
    runtime::write_sweep_json(result, out);
    return out.str();
}

// -- the partition -----------------------------------------------------------

TEST(runtime_shard, partition_is_complete_disjoint_and_validated)
{
    const runtime::sweep_spec spec = tiny_spec();
    ASSERT_EQ(spec.expanded_pairs().size(), 3u);

    for (const std::size_t count : {1u, 2u, 3u, 5u}) {
        std::vector<int> owners(spec.expanded_pairs().size(), 0);
        for (std::size_t i = 0; i < count; ++i) {
            const runtime::sweep_shard shard = spec.shard(i, count);
            EXPECT_EQ(shard.index, i);
            EXPECT_EQ(shard.count, count);
            for (std::size_t p = 0; p < owners.size(); ++p) {
                if (shard.owns_pair(p)) {
                    ++owners[p];
                }
            }
        }
        // Every pair owned exactly once over the whole shard set.
        for (const int owner_count : owners) {
            EXPECT_EQ(owner_count, 1);
        }
    }

    EXPECT_THROW((void)spec.shard(0, 0), std::invalid_argument);
    EXPECT_THROW((void)spec.shard(2, 2), std::invalid_argument);
    EXPECT_THROW((void)spec.shard(7, 3), std::invalid_argument);
}

TEST(runtime_shard, shard_run_requires_a_store)
{
    runtime::thread_pool pool(2);
    runtime::experiment_cache cache;
    const runtime::sweep_scheduler scheduler(pool, cache);
    runtime::sweep_options options;
    options.shard = tiny_spec().shard(0, 2);
    EXPECT_THROW((void)scheduler.run(tiny_spec(), options), std::invalid_argument);
}

// -- shard + merge determinism ----------------------------------------------

TEST(runtime_shard, n_shard_runs_merge_byte_identical_to_unsharded)
{
    const runtime::sweep_spec spec = tiny_spec();

    // The reference: one unsharded run, no store involved at all.
    runtime::thread_pool pool(2);
    runtime::experiment_cache reference_cache;
    const runtime::sweep_result reference =
        runtime::sweep_scheduler(pool, reference_cache).run(spec);
    const std::string reference_json = sweep_json(reference);

    for (const std::size_t shard_count : {1u, 2u, 3u}) {
        temp_dir dir;
        storage::artifact_store store(dir.path);

        // One fresh cache per shard run: each emulates its own process.
        for (std::size_t i = 0; i < shard_count; ++i) {
            runtime::experiment_cache cache;
            const runtime::sweep_result slice =
                runtime::sweep_scheduler(pool, cache)
                    .run(spec, {&store, false, spec.shard(i, shard_count)});
            // The slice echoes a spec reduced to its owned pairs -- but
            // reports the FULL sweep's digest (the checkpoint keying
            // identity its JSON emits), not the reduced echo's.
            EXPECT_EQ(slice.spec.expanded_pairs().size() * spec.policies.size(),
                      slice.cells.size());
            EXPECT_EQ(slice.spec_digest, spec.digest());
            EXPECT_TRUE(slice.checkpointing);
        }

        const runtime::sweep_result merged = runtime::merge_sweep_shards(spec, store);
        ASSERT_EQ(merged.cells.size(), reference.cells.size()) << shard_count;
        for (std::size_t c = 0; c < merged.cells.size(); ++c) {
            // Byte equality of the canonical encodings IS bit equality of
            // every field, task_seed included.
            EXPECT_EQ(storage::encode(merged.cells[c]),
                      storage::encode(reference.cells[c]))
                << "shard_count " << shard_count << " cell " << c;
        }
        EXPECT_EQ(sweep_json(merged), reference_json) << shard_count;
        EXPECT_EQ(merged.cells_loaded, merged.cells.size());
        EXPECT_EQ(merged.cells_missed(), 0u);
    }
}

TEST(runtime_shard, shard_cells_reuse_unsharded_checkpoint_keys)
{
    // A shard run and an unsharded checkpointing run of the same spec must
    // produce the same (spec digest, index) keys -- resume interoperates.
    const runtime::sweep_spec spec = tiny_spec();
    const std::uint64_t digest = spec.digest();
    temp_dir dir;
    storage::artifact_store store(dir.path);
    runtime::thread_pool pool(2);

    runtime::experiment_cache cache;
    (void)runtime::sweep_scheduler(pool, cache).run(spec,
                                                    {&store, false, spec.shard(1, 3)});
    // Shard 1 of 3 owns exactly pair 1 -> global cells 2 and 3.
    const std::size_t policies = spec.policies.size();
    for (std::size_t p = 0; p < spec.expanded_pairs().size(); ++p) {
        for (std::size_t q = 0; q < policies; ++q) {
            const bool expected = p % 3 == 1;
            EXPECT_EQ(store.contains(storage::cell_bucket,
                                     runtime::sweep_cell_digest(
                                         digest, p * policies + q)),
                      expected)
                << "pair " << p << " policy " << q;
        }
    }
}

// -- rejection matrix --------------------------------------------------------

TEST(runtime_shard, overlapping_partitions_of_one_spec_are_refused)
{
    const runtime::sweep_spec spec = tiny_spec();
    temp_dir dir;
    storage::artifact_store store(dir.path);
    runtime::thread_pool pool(2);

    runtime::experiment_cache cache;
    (void)runtime::sweep_scheduler(pool, cache).run(spec,
                                                    {&store, false, spec.shard(0, 2)});
    // A 3-way partition of the same spec in the same store would overlap
    // the recorded 2-way one.
    runtime::experiment_cache other_cache;
    EXPECT_THROW((void)runtime::sweep_scheduler(pool, other_cache)
                     .run(spec, {&store, false, spec.shard(0, 3)}),
                 runtime::shard_error);
    // The recorded layout (same count) is fine, including re-runs.
    EXPECT_NO_THROW((void)runtime::sweep_scheduler(pool, other_cache)
                        .run(spec, {&store, false, spec.shard(0, 2)}));
}

TEST(runtime_shard, merge_requires_layout_and_every_shard_manifest)
{
    const runtime::sweep_spec spec = tiny_spec();
    temp_dir dir;
    storage::artifact_store store(dir.path);

    // Nothing recorded at all.
    EXPECT_THROW((void)runtime::merge_sweep_shards(spec, store), runtime::shard_error);

    // Only shard 0 of 2 has run: layout exists, shard 1's manifest is
    // missing.
    runtime::thread_pool pool(2);
    runtime::experiment_cache cache;
    (void)runtime::sweep_scheduler(pool, cache).run(spec,
                                                    {&store, false, spec.shard(0, 2)});
    EXPECT_THROW((void)runtime::merge_sweep_shards(spec, store), runtime::shard_error);

    // After shard 1 completes, the merge goes through.
    runtime::experiment_cache other_cache;
    (void)runtime::sweep_scheduler(pool, other_cache)
        .run(spec, {&store, false, spec.shard(1, 2)});
    EXPECT_NO_THROW((void)runtime::merge_sweep_shards(spec, store));
}

TEST(runtime_shard, merge_rejects_foreign_and_malformed_manifests)
{
    const runtime::sweep_spec spec = tiny_spec();
    const std::uint64_t digest = spec.digest();
    temp_dir dir;
    storage::artifact_store store(dir.path);

    // A layout frame stamped for a DIFFERENT spec planted at this spec's
    // layout key: decodable, wrong identity.
    const runtime::shard_manifest foreign{digest ^ 0xDEADBEEF, 1, 1,
                                          spec.task_count()};
    ASSERT_TRUE(store.store(storage::manifest_bucket,
                            runtime::shard_layout_digest(digest),
                            storage::encode(foreign)));
    EXPECT_THROW((void)runtime::merge_sweep_shards(spec, store), runtime::shard_error);

    // A layout whose cell count disagrees with the spec's expansion.
    const runtime::shard_manifest wrong_shape{digest, 1, 1, spec.task_count() + 7};
    ASSERT_TRUE(store.store(storage::manifest_bucket,
                            runtime::shard_layout_digest(digest),
                            storage::encode(wrong_shape)));
    EXPECT_THROW((void)runtime::merge_sweep_shards(spec, store), runtime::shard_error);

    // A correct layout but a foreign manifest at shard 0's key.
    const runtime::shard_manifest layout{digest, 2, 2, spec.task_count()};
    ASSERT_TRUE(store.store(storage::manifest_bucket,
                            runtime::shard_layout_digest(digest),
                            storage::encode(layout)));
    const runtime::shard_manifest foreign_shard{digest ^ 1, 2, 0, 4};
    ASSERT_TRUE(store.store(storage::manifest_bucket,
                            runtime::shard_manifest_digest(digest, 2, 0),
                            storage::encode(foreign_shard)));
    EXPECT_THROW((void)runtime::merge_sweep_shards(spec, store), runtime::shard_error);
}

// -- stats attribution under concurrency -------------------------------------

TEST(runtime_shard, concurrent_sweeps_on_one_cache_attribute_their_own_traffic)
{
    // Two different single-pair sweeps share ONE experiment cache and run
    // concurrently. Before per-sweep sinks, each sweep's stats were
    // computed by differencing the cache's GLOBAL counters around its run
    // window -- so each sweep also swallowed the other's traffic. With
    // attribution threaded through the lookups, each must see exactly its
    // own: 1 program miss, 1 stage miss, 1 compute, 0 hits.
    const workload::workload_key key_a = tiny_workload("shard_stats_a", 77);
    const workload::workload_key key_b = tiny_workload("shard_stats_b", 88);

    runtime::experiment_cache cache; // shared by both sweeps
    runtime::thread_pool pool_a(2);
    runtime::thread_pool pool_b(2);
    const runtime::sweep_scheduler scheduler_a(pool_a, cache);
    const runtime::sweep_scheduler scheduler_b(pool_b, cache);

    runtime::sweep_spec spec_a;
    spec_a.benchmarks = {key_a};
    spec_a.stages = {circuit::pipe_stage::simple_alu};
    spec_a.policies = {core::policy_kind::nominal};
    runtime::sweep_spec spec_b = spec_a;
    spec_b.benchmarks = {key_b};

    runtime::sweep_result result_a;
    runtime::sweep_result result_b;
    obs::metrics_registry& registry = obs::metrics_registry::global();
    registry.reset();
    std::thread other([&] { result_b = scheduler_b.run(spec_b); });
    result_a = scheduler_a.run(spec_a);
    other.join();

    for (const runtime::sweep_result* result : {&result_a, &result_b}) {
        EXPECT_EQ(result->program_cache_misses, 1u);
        EXPECT_EQ(result->program_cache_hits, 0u);
        EXPECT_EQ(result->program_computes, 1u);
        EXPECT_EQ(result->cache_misses, 1u);
        EXPECT_EQ(result->cache_hits, 0u);
        EXPECT_EQ(result->disk_hits, 0u);
        EXPECT_EQ(result->disk_misses, 0u);
    }
    // The process-wide registry still sees the union.
    EXPECT_EQ(registry.counter_at("cache.tier2.misses").value(), 2u);
    EXPECT_EQ(registry.counter_at("cache.tier2.computes").value(), 2u);
    EXPECT_EQ(registry.counter_at("cache.tier1.misses").value(), 2u);

    // A re-run of sweep A against the warm cache reports pure hits -- and
    // zero computes, where the old differencing could even wrap negative
    // when another thread's traffic landed in the window.
    const runtime::sweep_result warm = scheduler_a.run(spec_a);
    EXPECT_EQ(warm.cache_hits, 1u);
    EXPECT_EQ(warm.cache_misses, 0u);
    EXPECT_EQ(warm.program_cache_misses, 0u);
    EXPECT_EQ(warm.program_computes, 0u);
}

// -- cells_missed underflow guard --------------------------------------------

TEST(runtime_shard, cells_missed_never_underflows)
{
    runtime::sweep_result result;
    result.checkpointing = true;
    result.cells.resize(2);
    result.cells_loaded = 5; // merge/layout mismatch can report more loaded
    EXPECT_EQ(result.cells_missed(), 0u);

    result.cells_loaded = 1;
    EXPECT_EQ(result.cells_missed(), 1u);

    result.checkpointing = false;
    EXPECT_EQ(result.cells_missed(), 0u);
}

} // namespace
