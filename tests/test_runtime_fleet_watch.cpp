// Tests for the fleet stall watchdog behind `synts_runner --watch`: rates
// and ETAs differenced between explicit-timestamp ticks, the mtime-based
// STALLED verdict (frames aged by rewriting file mtimes -- no sleeping),
// finished-shard semantics (done == owned never stalls, with or without a
// completion manifest), and the console rendering. Frames are fabricated
// directly in the store's manifest bucket; no sweeps run.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>

#include "helpers.h"
#include "runtime/fleet_watch.h"
#include "runtime/sweep.h"
#include "storage/artifact_store.h"
#include "storage/serialize.h"

namespace {

using namespace synts;
namespace fs = std::filesystem;

using test::temp_dir;

constexpr std::uint64_t digest = 4242;

void publish_layout(const storage::artifact_store& store, std::uint32_t shard_count,
                    std::uint64_t total_cells)
{
    ASSERT_TRUE(store.store(
        storage::manifest_bucket, runtime::shard_layout_digest(digest),
        storage::encode(
            runtime::shard_manifest{digest, shard_count, shard_count, total_cells})));
}

void publish_progress(const storage::artifact_store& store, std::uint32_t shard_count,
                      std::uint32_t index, std::uint64_t owned, std::uint64_t done)
{
    ASSERT_TRUE(store.store(
        storage::manifest_bucket,
        runtime::shard_progress_digest(digest, shard_count, index),
        storage::encode(runtime::shard_progress{digest, shard_count, index, owned, done})));
}

/// Rewrites the progress frame's mtime `age_s` seconds into the past --
/// the watch reads frame age from the filesystem, so tests inject
/// staleness without waiting for it.
void age_progress_frame(const storage::artifact_store& store,
                        std::uint32_t shard_count, std::uint32_t index, double age_s)
{
    const fs::path path = store.entry_path(
        storage::manifest_bucket,
        runtime::shard_progress_digest(digest, shard_count, index));
    fs::last_write_time(path, fs::file_time_type::clock::now() -
                                  std::chrono::milliseconds(
                                      static_cast<std::int64_t>(age_s * 1000.0)));
}

TEST(runtime_fleet_watch, empty_store_is_neither_complete_nor_stalled)
{
    temp_dir dir;
    const storage::artifact_store store(dir.path);
    runtime::fleet_watch watch(store);
    const runtime::watch_report report = watch.tick(1'000'000'000ull);
    EXPECT_TRUE(report.sweeps.empty());
    EXPECT_FALSE(report.all_complete);
    EXPECT_FALSE(report.any_stalled);
    EXPECT_EQ(runtime::render_watch_report(report), "no sweeps recorded\n");
}

TEST(runtime_fleet_watch, rates_and_etas_derive_between_ticks)
{
    temp_dir dir;
    const storage::artifact_store store(dir.path);
    publish_layout(store, 2, 16);
    publish_progress(store, 2, 0, 10, 2);

    runtime::fleet_watch watch(store);

    // First sighting of a shard: no previous observation, no rate.
    const runtime::watch_report first = watch.tick(1'000'000'000ull);
    ASSERT_EQ(first.sweeps.size(), 1u);
    ASSERT_EQ(first.sweeps[0].shards.size(), 2u);
    EXPECT_FALSE(first.sweeps[0].shards[0].cells_per_s.has_value());
    EXPECT_FALSE(first.sweeps[0].shards[0].stalled);
    EXPECT_FALSE(first.sweeps[0].complete);
    EXPECT_FALSE(first.all_complete);

    // 4 more cells over the next 2 seconds: 2 cells/s, eta (10-6)/2 = 2 s.
    publish_progress(store, 2, 0, 10, 6);
    const runtime::watch_report second = watch.tick(3'000'000'000ull);
    const runtime::watch_shard& shard0 = second.sweeps[0].shards[0];
    ASSERT_TRUE(shard0.cells_per_s.has_value());
    EXPECT_DOUBLE_EQ(*shard0.cells_per_s, 2.0);
    ASSERT_TRUE(shard0.eta_s.has_value());
    EXPECT_DOUBLE_EQ(*shard0.eta_s, 2.0);
    EXPECT_FALSE(shard0.stalled);

    // Sweep aggregates: the one rated shard carries the fleet numbers, and
    // the layout keeps the owned total honest (16 cells, not shard 0's 10).
    EXPECT_EQ(second.sweeps[0].total_done, 6u);
    EXPECT_EQ(second.sweeps[0].total_owned, 16u);
    ASSERT_TRUE(second.sweeps[0].cells_per_s.has_value());
    EXPECT_DOUBLE_EQ(*second.sweeps[0].cells_per_s, 2.0);
    ASSERT_TRUE(second.sweeps[0].eta_s.has_value());
    EXPECT_DOUBLE_EQ(*second.sweeps[0].eta_s, 2.0);

    const std::string text = runtime::render_watch_report(second);
    EXPECT_NE(text.find("sweep 4242: 2 shards, 16 cells"), std::string::npos) << text;
    EXPECT_NE(text.find("shard 0/2: 6/10 (60.0%) 2.0 cells/s eta 2s"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("shard 1/2: no progress recorded"), std::string::npos) << text;
    EXPECT_NE(text.find("total: 6/16 (37.5%) 2.0 cells/s eta 2s"), std::string::npos)
        << text;
}

TEST(runtime_fleet_watch, stale_incomplete_frame_is_stalled)
{
    temp_dir dir;
    const storage::artifact_store store(dir.path);
    publish_layout(store, 1, 10);
    publish_progress(store, 1, 0, 10, 3);
    age_progress_frame(store, 1, 0, 30.0); // well past the 10 s default

    runtime::fleet_watch watch(store);
    const runtime::watch_report report = watch.tick(1'000'000'000ull);
    ASSERT_EQ(report.sweeps.size(), 1u);
    EXPECT_TRUE(report.sweeps[0].shards[0].stalled);
    EXPECT_TRUE(report.any_stalled);
    EXPECT_FALSE(report.all_complete);

    const std::string text = runtime::render_watch_report(report);
    EXPECT_NE(text.find("STALLED (age "), std::string::npos) << text;
}

TEST(runtime_fleet_watch, stall_threshold_is_configurable)
{
    temp_dir dir;
    const storage::artifact_store store(dir.path);
    publish_layout(store, 1, 10);
    publish_progress(store, 1, 0, 10, 3);
    age_progress_frame(store, 1, 0, 5.0);

    // 5 s old: fresh under the 10 s default, stalled under a 2 s budget.
    runtime::fleet_watch lenient(store);
    EXPECT_FALSE(lenient.tick(1).any_stalled);

    runtime::watch_config tight;
    tight.stall_ns = 2'000'000'000ull;
    runtime::fleet_watch strict(store, tight);
    EXPECT_TRUE(strict.tick(1).any_stalled);
}

TEST(runtime_fleet_watch, finished_shards_never_stall)
{
    temp_dir dir;
    const storage::artifact_store store(dir.path);

    // An unsharded checkpoint run: progress frame only (done == owned),
    // no completion manifest, frame long past the stall threshold.
    publish_layout(store, 1, 6);
    publish_progress(store, 1, 0, 6, 6);
    age_progress_frame(store, 1, 0, 60.0);

    runtime::fleet_watch watch(store);
    const runtime::watch_report report = watch.tick(1'000'000'000ull);
    ASSERT_EQ(report.sweeps.size(), 1u);
    EXPECT_FALSE(report.sweeps[0].shards[0].stalled);
    EXPECT_FALSE(report.any_stalled);
    // done >= owned counts as complete even without the attestation.
    EXPECT_TRUE(report.sweeps[0].complete);
    EXPECT_TRUE(report.all_complete);
}

TEST(runtime_fleet_watch, completion_manifest_wins_over_stale_progress)
{
    temp_dir dir;
    const storage::artifact_store store(dir.path);
    publish_layout(store, 1, 6);
    publish_progress(store, 1, 0, 6, 4); // stale mid-run frame...
    age_progress_frame(store, 1, 0, 60.0);
    ASSERT_TRUE(store.store(
        storage::manifest_bucket, runtime::shard_manifest_digest(digest, 1, 0),
        storage::encode(runtime::shard_manifest{digest, 1, 0, 6}))); // ...but attested

    runtime::fleet_watch watch(store);
    const runtime::watch_report report = watch.tick(1'000'000'000ull);
    ASSERT_EQ(report.sweeps.size(), 1u);
    EXPECT_TRUE(report.sweeps[0].shards[0].status.complete);
    EXPECT_FALSE(report.sweeps[0].shards[0].stalled);
    EXPECT_TRUE(report.all_complete);
    EXPECT_FALSE(report.any_stalled);

    const std::string text = runtime::render_watch_report(report);
    EXPECT_NE(text.find("shard 0/1: 6/6 (100.0%) complete"), std::string::npos)
        << text;
}

TEST(runtime_fleet_watch, collect_store_status_exposes_frame_age)
{
    temp_dir dir;
    const storage::artifact_store store(dir.path);
    publish_layout(store, 2, 8);
    publish_progress(store, 2, 0, 4, 1);
    age_progress_frame(store, 2, 0, 20.0);

    const runtime::watch_report report = runtime::collect_store_status(store);
    ASSERT_EQ(report.sweeps.size(), 1u);
    const std::vector<runtime::watch_shard>& shards = report.sweeps[0].shards;
    ASSERT_EQ(shards.size(), 2u);
    ASSERT_TRUE(shards[0].status.frame_age_ns.has_value());
    // Age is a real filesystem timestamp difference: at least the injected
    // 20 s, and not absurdly larger.
    EXPECT_GE(*shards[0].status.frame_age_ns, 20'000'000'000ull);
    EXPECT_LT(*shards[0].status.frame_age_ns, 120'000'000'000ull);
    // The unreported shard has no frame to age.
    EXPECT_FALSE(shards[1].status.frame_age_ns.has_value());
}

} // namespace
