// Tests for the sweep progress frames and the --status fleet view: shard
// runs publish shard_progress frames (and unsharded store-backed runs
// publish as shard 0 of 1) whose counts match the completion manifests
// exactly, and the --status view (render_watch_report over
// collect_store_status) reconstructs per-shard and total progress from
// nothing but the store's manifest bucket.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "helpers.h"
#include "runtime/experiment_cache.h"
#include "runtime/fleet_watch.h"
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

/// Tiny registered workload (1 interval x 500 instructions) so store-backed
/// sweeps run in milliseconds; distinct from other suites' names.
workload::workload_key tiny_workload(const std::string& name, std::uint64_t salt)
{
    workload::workload_registry& global = workload::workload_registry::global();
    if (global.contains(name)) {
        return global.key(name);
    }
    util::digest_builder h;
    h.text("tiny_obs_status_workload");
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

/// 3 pairs x 2 policies = 6 cells; shard 0 of 2 owns pairs {0, 2} = 4
/// cells, shard 1 of 2 owns pair {1} = 2 cells.
runtime::sweep_spec tiny_spec()
{
    runtime::sweep_spec spec;
    spec.benchmarks = {tiny_workload("obs_status_a", 71),
                       tiny_workload("obs_status_b", 72),
                       tiny_workload("obs_status_c", 73)};
    spec.stages = {circuit::pipe_stage::simple_alu};
    spec.policies = {core::policy_kind::nominal, core::policy_kind::per_core_ts};
    return spec;
}

std::optional<runtime::shard_progress> load_progress(const storage::artifact_store& store,
                                                     std::uint64_t spec_digest,
                                                     std::size_t count, std::size_t index)
{
    const std::optional<std::string> frame = store.load(
        storage::manifest_bucket,
        runtime::shard_progress_digest(spec_digest, count, index));
    if (!frame) {
        return std::nullopt;
    }
    return storage::decode_shard_progress(*frame);
}

/// What `synts_runner --status` prints for `store`.
std::string render_status(const storage::artifact_store& store)
{
    return runtime::render_watch_report(runtime::collect_store_status(store));
}

TEST(obs_status, shard_run_publishes_progress_matching_its_manifest)
{
    const runtime::sweep_spec spec = tiny_spec();
    const std::uint64_t digest = spec.digest();
    temp_dir dir;
    storage::artifact_store store(dir.path);
    runtime::thread_pool pool(2);

    runtime::experiment_cache cache;
    (void)runtime::sweep_scheduler(pool, cache).run(spec,
                                                    {&store, false, spec.shard(0, 2)});

    // The final progress frame is exact: every owned cell durable.
    const std::optional<runtime::shard_progress> progress =
        load_progress(store, digest, 2, 0);
    ASSERT_TRUE(progress.has_value());
    EXPECT_EQ(progress->spec_digest, digest);
    EXPECT_EQ(progress->shard_count, 2u);
    EXPECT_EQ(progress->shard_index, 0u);
    EXPECT_EQ(progress->cells_owned, 4u);
    EXPECT_EQ(progress->cells_done, 4u);

    // And agrees with the completion manifest published after it.
    const std::optional<std::string> manifest_frame = store.load(
        storage::manifest_bucket, runtime::shard_manifest_digest(digest, 2, 0));
    ASSERT_TRUE(manifest_frame.has_value());
    const runtime::shard_manifest manifest =
        storage::decode_shard_manifest(*manifest_frame);
    EXPECT_EQ(manifest.cell_count, progress->cells_done);

    // The unstarted shard has no frames at all.
    EXPECT_FALSE(load_progress(store, digest, 2, 1).has_value());
}

TEST(obs_status, status_view_tracks_a_fleet_from_partial_to_complete)
{
    const runtime::sweep_spec spec = tiny_spec();
    const std::uint64_t digest = spec.digest();
    const std::string digest_text = std::to_string(digest);
    temp_dir dir;
    storage::artifact_store store(dir.path);
    runtime::thread_pool pool(2);

    {
        runtime::experiment_cache cache;
        (void)runtime::sweep_scheduler(pool, cache)
            .run(spec, {&store, false, spec.shard(0, 2)});
    }
    const std::string partial = render_status(store);
    EXPECT_NE(partial.find("sweep " + digest_text + ": 2 shards, 6 cells"),
              std::string::npos)
        << partial;
    EXPECT_NE(partial.find("shard 0/2: 4/4 (100.0%) complete"), std::string::npos)
        << partial;
    EXPECT_NE(partial.find("shard 1/2: no progress recorded"), std::string::npos)
        << partial;
    // The layout's total keeps the denominator honest: 4 of 6, not 4 of 4.
    EXPECT_NE(partial.find("total: 4/6 (66.7%)"), std::string::npos) << partial;
    EXPECT_EQ(partial.find("total: 4/6 (100.0%)"), std::string::npos) << partial;

    {
        runtime::experiment_cache cache;
        (void)runtime::sweep_scheduler(pool, cache)
            .run(spec, {&store, false, spec.shard(1, 2)});
    }
    const std::string complete = render_status(store);
    EXPECT_NE(complete.find("shard 0/2: 4/4 (100.0%) complete"), std::string::npos)
        << complete;
    EXPECT_NE(complete.find("shard 1/2: 2/2 (100.0%) complete"), std::string::npos)
        << complete;
    EXPECT_NE(complete.find("total: 6/6 (100.0%)"), std::string::npos) << complete;
}

TEST(obs_status, unsharded_store_run_publishes_as_shard_zero_of_one)
{
    const runtime::sweep_spec spec = tiny_spec();
    const std::uint64_t digest = spec.digest();
    temp_dir dir;
    storage::artifact_store store(dir.path);
    runtime::thread_pool pool(2);

    runtime::experiment_cache cache;
    (void)runtime::sweep_scheduler(pool, cache).run(spec, {&store, false});

    const std::optional<runtime::shard_progress> progress =
        load_progress(store, digest, 1, 0);
    ASSERT_TRUE(progress.has_value());
    EXPECT_EQ(progress->cells_owned, 6u);
    EXPECT_EQ(progress->cells_done, 6u);

    const std::string status = render_status(store);
    EXPECT_NE(status.find("sweep " + std::to_string(digest) + ": 1 shard"),
              std::string::npos)
        << status;
    EXPECT_NE(status.find("shard 0/1: 6/6 (100.0%)"), std::string::npos) << status;
    EXPECT_NE(status.find("total: 6/6 (100.0%)"), std::string::npos) << status;
}

TEST(obs_status, sweep_json_meta_rides_on_one_strippable_line)
{
    // The meta contract: ONE extra line, so determinism consumers recover
    // the unstamped document with `grep -v '"meta"'`.
    runtime::sweep_result result;
    std::ostringstream bare;
    runtime::write_sweep_json(result, bare);

    runtime::sweep_json_meta meta = runtime::collect_sweep_json_meta();
    EXPECT_FALSE(meta.generated_utc.empty());
    EXPECT_GE(meta.hardware_concurrency, 1u);
    meta.git_describe = "v1.2.3-4-gabcdef0";
    std::ostringstream stamped;
    runtime::write_sweep_json(result, stamped, &meta);

    std::istringstream lines(stamped.str());
    std::string line;
    std::string stripped;
    std::size_t meta_lines = 0;
    while (std::getline(lines, line)) {
        if (line.find("\"meta\"") != std::string::npos) {
            ++meta_lines;
            EXPECT_NE(line.find("\"schema_version\": 1"), std::string::npos);
            EXPECT_NE(line.find("\"generated_utc\": \""), std::string::npos);
            EXPECT_NE(line.find("\"hostname\": \""), std::string::npos);
            EXPECT_NE(line.find("\"hardware_concurrency\": "), std::string::npos);
            EXPECT_NE(line.find("\"git_describe\": \"v1.2.3-4-gabcdef0\""),
                      std::string::npos);
            continue;
        }
        stripped += line + "\n";
    }
    EXPECT_EQ(meta_lines, 1u);
    EXPECT_EQ(stripped, bare.str());
}

TEST(obs_status, status_of_empty_store_reports_no_sweeps)
{
    temp_dir dir;
    const storage::artifact_store store(dir.path);
    EXPECT_EQ(render_status(store), "no sweeps recorded\n");
}

TEST(obs_status, store_list_enumerates_manifest_bucket_digests_sorted)
{
    temp_dir dir;
    storage::artifact_store store(dir.path);
    EXPECT_TRUE(store.list(storage::manifest_bucket).empty());

    const runtime::shard_progress progress{42, 1, 0, 3, 1};
    ASSERT_TRUE(store.store(storage::manifest_bucket,
                            runtime::shard_progress_digest(42, 1, 0),
                            storage::encode(progress)));
    ASSERT_TRUE(store.store(storage::manifest_bucket,
                            runtime::shard_layout_digest(42),
                            storage::encode(runtime::shard_manifest{42, 1, 1, 3})));
    const std::vector<std::uint64_t> digests = store.list(storage::manifest_bucket);
    ASSERT_EQ(digests.size(), 2u);
    EXPECT_LT(digests[0], digests[1]);
    // Other buckets are untouched.
    EXPECT_TRUE(store.list(storage::cell_bucket).empty());
}

} // namespace
