// Tests for storage/artifact_store and the sweep checkpoints it holds:
// sharded layout and atomic publish, every corruption class (truncated,
// bit-flipped, wrong-version, bad-magic, misplaced cell frames) degrading
// to a recompute -- never a crash, never stale data -- --resume semantics,
// and two runners racing on one shared store directory (the TSan job runs
// this suite).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>

#include "helpers.h"
#include "core/experiment.h"
#include "obs/metrics.h"
#include "runtime/experiment_cache.h"
#include "runtime/sweep.h"
#include "runtime/thread_pool.h"
#include "storage/artifact_store.h"
#include "storage/serialize.h"
#include "util/hashing.h"

namespace {

using namespace synts;
namespace fs = std::filesystem;

constexpr auto kBenchmark = workload::benchmark_id::radix;

using test::temp_dir;

void corrupt_file(const fs::path& path, std::size_t byte, std::uint8_t mask)
{
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file) << path;
    file.seekg(static_cast<std::streamoff>(byte));
    char c = 0;
    file.get(c);
    file.seekp(static_cast<std::streamoff>(byte));
    file.put(static_cast<char>(static_cast<std::uint8_t>(c) ^ mask));
}

void truncate_file(const fs::path& path, std::size_t keep_bytes)
{
    fs::resize_file(path, keep_bytes);
}

/// Overwrites the 4-byte little-endian word at `byte`, then re-seals the
/// trailing checksum, so the frame fails on that field and not on the
/// checksum gate.
void patch_and_reseal(const fs::path& path, std::size_t byte, std::uint32_t value)
{
    std::string frame;
    {
        std::ifstream in(path, std::ios::binary);
        frame.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_GE(frame.size(), byte + 4 + 8) << path;
    for (std::size_t i = 0; i < 4; ++i) {
        frame[byte + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
    }
    util::digest_builder h;
    for (std::size_t i = 0; i + 8 < frame.size(); ++i) {
        h.byte(static_cast<std::uint8_t>(frame[i]));
    }
    const std::uint64_t sum = h.digest();
    for (std::size_t i = 0; i < 8; ++i) {
        frame[frame.size() - 8 + i] = static_cast<char>((sum >> (8 * i)) & 0xFF);
    }
    std::ofstream(path, std::ios::binary | std::ios::trunc) << frame;
}

bool same_cells(const runtime::sweep_cell& a, const runtime::sweep_cell& b)
{
    return storage::encode(a) == storage::encode(b);
}

// -- raw store behavior -----------------------------------------------------

TEST(storage_store, blob_round_trip_layout_and_counters)
{
    obs::metrics_registry& registry = obs::metrics_registry::global();
    registry.reset();
    temp_dir dir;
    storage::artifact_store store(dir.path);
    EXPECT_EQ(store.root(), dir.path);

    const std::uint64_t key = 0xABCDEF0011223344ull;
    EXPECT_FALSE(store.contains(storage::program_bucket, key));
    EXPECT_EQ(store.load(storage::program_bucket, key), std::nullopt);
    EXPECT_EQ(registry.counter_at("store.load_misses").value(), 1u);

    ASSERT_TRUE(store.store(storage::program_bucket, key, "some frame bytes"));
    EXPECT_TRUE(store.contains(storage::program_bucket, key));
    EXPECT_EQ(store.load(storage::program_bucket, key), "some frame bytes");
    EXPECT_EQ(registry.counter_at("store.load_hits").value(), 1u);
    EXPECT_EQ(registry.counter_at("store.stores").value(), 1u);

    // Sharded, versioned layout: v<format_version>/<bucket>/<top byte>/<hex16>.bin.
    const fs::path version_dir = "v" + std::to_string(storage::format_version);
    const fs::path expected = dir.path / version_dir / "program" / "ab" /
                              "abcdef0011223344.bin";
    EXPECT_EQ(store.entry_path(storage::program_bucket, key), expected);
    EXPECT_TRUE(fs::is_regular_file(expected));

    // Overwrite is a whole-file replace; no tmp files linger.
    ASSERT_TRUE(store.store(storage::program_bucket, key, "updated"));
    EXPECT_EQ(store.load(storage::program_bucket, key), "updated");
    EXPECT_TRUE(fs::is_empty(dir.path / version_dir / "tmp"));

    store.erase(storage::program_bucket, key);
    EXPECT_FALSE(store.contains(storage::program_bucket, key));

    // Distinct buckets do not collide on one key.
    ASSERT_TRUE(store.store(storage::cell_bucket, key, "cell bytes"));
    EXPECT_FALSE(store.contains(storage::program_bucket, key));
    EXPECT_TRUE(store.contains(storage::cell_bucket, key));
}

TEST(storage_store, orphaned_tmp_files_are_reaped_on_open)
{
    temp_dir dir;
    {
        storage::artifact_store seed(dir.path); // create the layout
    }
    const fs::path tmp = dir.path / ("v" + std::to_string(storage::format_version)) / "tmp";
    // A staging file of a writer that can no longer exist (pid far above
    // any Linux pid_max), one with an unparseable name, and one of OURS.
    std::ofstream(tmp / "aaaa.999999999.0.tmp").put('x');
    std::ofstream(tmp / "garbage.tmp").put('x');
    const fs::path mine = tmp / ("bbbb." + std::to_string(::getpid()) + ".0.tmp");
    std::ofstream(mine).put('x');

    storage::artifact_store store(dir.path); // reaps stale entries on open
    EXPECT_FALSE(fs::exists(tmp / "aaaa.999999999.0.tmp"));
    EXPECT_FALSE(fs::exists(tmp / "garbage.tmp"));
    EXPECT_TRUE(fs::exists(mine)) << "a live writer's staging file was reaped";
}

TEST(storage_store, unusable_root_is_a_constructor_error)
{
    // A root that exists as a FILE can never become a store directory.
    temp_dir dir;
    const fs::path blocked = dir.path / "blocked";
    std::ofstream(blocked).put('x');
    EXPECT_THROW(storage::artifact_store{blocked}, std::runtime_error);
}

// -- sweep checkpointing and resume -----------------------------------------

runtime::sweep_spec checkpoint_spec()
{
    runtime::sweep_spec spec;
    spec.benchmarks = {kBenchmark};
    spec.stages = {circuit::pipe_stage::simple_alu};
    spec.policies = {core::policy_kind::nominal, core::policy_kind::synts_offline};
    spec.theta_multipliers = {0.5, 1.0};
    return spec;
}

TEST(storage_store, warm_sweep_re_run_computes_nothing_and_matches_bit_for_bit)
{
    temp_dir dir;
    const runtime::sweep_spec spec = checkpoint_spec();
    runtime::thread_pool pool(2);

    // Cold run: everything computed and checkpointed.
    runtime::experiment_cache cold_cache;
    storage::artifact_store cold_store(dir.path);
    const runtime::sweep_result cold =
        runtime::sweep_scheduler(pool, cold_cache).run(spec, {&cold_store, false});
    EXPECT_EQ(cold.program_computes, 1u);
    EXPECT_EQ(cold.cells_stored, 2u);
    EXPECT_EQ(cold.cells_loaded, 0u);

    // Warm run, NO resume: the store holds no artifacts, so the pipeline
    // runs again end to end -- and reproduces every cell bit for bit.
    runtime::experiment_cache warm_cache;
    storage::artifact_store warm_store(dir.path);
    const runtime::sweep_result warm =
        runtime::sweep_scheduler(pool, warm_cache).run(spec, {&warm_store, false});
    EXPECT_EQ(warm.program_computes, 1u);
    EXPECT_EQ(warm.cells_loaded, 0u);
    ASSERT_EQ(warm.cells.size(), cold.cells.size());
    for (std::size_t i = 0; i < cold.cells.size(); ++i) {
        EXPECT_TRUE(same_cells(cold.cells[i], warm.cells[i])) << "cell " << i;
    }

    // Warm --resume: cells restored outright; no cache traffic at all.
    runtime::experiment_cache resumed_cache;
    storage::artifact_store resumed_store(dir.path);
    const runtime::sweep_result resumed =
        runtime::sweep_scheduler(pool, resumed_cache).run(spec, {&resumed_store, true});
    EXPECT_EQ(resumed.cells_loaded, 2u);
    EXPECT_EQ(resumed.program_cache_misses, 0u);
    EXPECT_EQ(resumed.program_computes, 0u);
    EXPECT_EQ(resumed.cache_misses, 0u);
    for (std::size_t i = 0; i < cold.cells.size(); ++i) {
        EXPECT_TRUE(same_cells(cold.cells[i], resumed.cells[i])) << "cell " << i;
    }
}

/// Resumes `spec` from `dir` through a fresh cache and store handle, as a
/// new process would.
runtime::sweep_result resume_from(const fs::path& dir, const runtime::sweep_spec& spec,
                                  runtime::thread_pool& pool)
{
    runtime::experiment_cache cache;
    storage::artifact_store store(dir);
    return runtime::sweep_scheduler(pool, cache).run(spec, {&store, /*resume=*/true});
}

/// Expects `victim` -- a resume whose cell 0 checkpoint was unusable -- to
/// have treated it as a miss: cell 0 recomputed (bit-identical to `cold`)
/// and re-persisted, cell 1 restored. The next resume must then restore
/// both cells without computing anything.
void expect_cell0_rebuilt(const runtime::sweep_result& cold,
                          const runtime::sweep_result& victim, const fs::path& dir,
                          const runtime::sweep_spec& spec, runtime::thread_pool& pool)
{
    EXPECT_EQ(victim.cells_loaded, 1u);
    EXPECT_EQ(victim.cells_stored, 1u);
    EXPECT_EQ(victim.program_computes, 1u);
    ASSERT_EQ(victim.cells.size(), cold.cells.size());
    for (std::size_t i = 0; i < cold.cells.size(); ++i) {
        EXPECT_TRUE(same_cells(cold.cells[i], victim.cells[i])) << "cell " << i;
    }

    const runtime::sweep_result repaired = resume_from(dir, spec, pool);
    EXPECT_EQ(repaired.cells_loaded, cold.cells.size());
    EXPECT_EQ(repaired.program_computes, 0u);
    EXPECT_TRUE(same_cells(cold.cells[0], repaired.cells[0]));
}

TEST(storage_store, every_corruption_class_is_a_miss_and_gets_rebuilt)
{
    struct corruption {
        const char* name;
        void (*apply)(const fs::path&);
    };
    const corruption corruptions[] = {
        {"truncated", [](const fs::path& p) { truncate_file(p, 40); }},
        {"truncated to zero", [](const fs::path& p) { truncate_file(p, 0); }},
        {"bit-flipped payload", [](const fs::path& p) { corrupt_file(p, 60, 0x10); }},
        {"bit-flipped checksum",
         [](const fs::path& p) {
             corrupt_file(p, fs::file_size(p) - 1, 0x01);
         }},
        // The last two re-seal the checksum, so the frame is rejected on the
        // field itself: a v1 stamp, and a magic that is not "SYNTSTOR".
        {"wrong version", [](const fs::path& p) { patch_and_reseal(p, 8, 1); }},
        {"bad magic", [](const fs::path& p) { patch_and_reseal(p, 0, 0x21444142); }},
    };

    temp_dir dir;
    const runtime::sweep_spec spec = checkpoint_spec();
    runtime::thread_pool pool(2);
    runtime::experiment_cache seeder;
    storage::artifact_store store(dir.path);
    const runtime::sweep_result cold =
        runtime::sweep_scheduler(pool, seeder).run(spec, {&store, false});
    const fs::path entry = store.entry_path(storage::cell_bucket,
                                            runtime::sweep_cell_digest(spec.digest(), 0));

    // Each class corrupts cell 0's checkpoint; the rebuild of one class
    // repairs the store for the next.
    for (const corruption& c : corruptions) {
        SCOPED_TRACE(c.name);
        ASSERT_TRUE(fs::is_regular_file(entry));
        c.apply(entry);
        expect_cell0_rebuilt(cold, resume_from(dir.path, spec, pool), dir.path, spec, pool);
    }
}

TEST(storage_store, wrong_digest_entry_is_a_miss_never_stale_data)
{
    // A VALID cell frame parked under another cell's key (here: the
    // synts_offline cell where the nominal cell belongs) must be rejected
    // by its stamped identity -- never served as the nominal result.
    temp_dir dir;
    const runtime::sweep_spec spec = checkpoint_spec();
    runtime::thread_pool pool(2);
    runtime::experiment_cache seeder;
    storage::artifact_store store(dir.path);
    const runtime::sweep_result cold =
        runtime::sweep_scheduler(pool, seeder).run(spec, {&store, false});
    ASSERT_EQ(cold.cells[0].policy, core::policy_kind::nominal);
    ASSERT_EQ(cold.cells[1].policy, core::policy_kind::synts_offline);

    const std::uint64_t key0 = runtime::sweep_cell_digest(spec.digest(), 0);
    const std::uint64_t key1 = runtime::sweep_cell_digest(spec.digest(), 1);
    const std::optional<std::string> frame1 = store.load(storage::cell_bucket, key1);
    ASSERT_TRUE(frame1.has_value());
    ASSERT_TRUE(store.store(storage::cell_bucket, key0, *frame1));

    const runtime::sweep_result victim = resume_from(dir.path, spec, pool);
    EXPECT_EQ(victim.cells[0].policy, core::policy_kind::nominal);
    expect_cell0_rebuilt(cold, victim, dir.path, spec, pool);
}

TEST(storage_store, resume_recomputes_only_the_missing_cells)
{
    temp_dir dir;
    const runtime::sweep_spec spec = checkpoint_spec();
    runtime::thread_pool pool(2);

    runtime::experiment_cache cold_cache;
    auto store = std::make_shared<storage::artifact_store>(dir.path);
    cold_cache.attach_store(store);
    const runtime::sweep_result cold =
        runtime::sweep_scheduler(pool, cold_cache).run(spec, {store.get(), false});

    // Simulate a sweep killed mid-run: cell 1's checkpoint never landed.
    store->erase(storage::cell_bucket, runtime::sweep_cell_digest(spec.digest(), 1));

    runtime::experiment_cache resumed_cache;
    auto resumed_store = std::make_shared<storage::artifact_store>(dir.path);
    resumed_cache.attach_store(resumed_store);
    const runtime::sweep_result resumed =
        runtime::sweep_scheduler(pool, resumed_cache)
            .run(spec, {resumed_store.get(), true});

    EXPECT_EQ(resumed.cells_loaded, 1u);  // cell 0 restored
    EXPECT_EQ(resumed.cells_stored, 1u);  // cell 1 recomputed and re-persisted
    EXPECT_EQ(resumed.program_computes, 1u); // cell 1 needs the pipeline again
    for (std::size_t i = 0; i < cold.cells.size(); ++i) {
        EXPECT_TRUE(same_cells(cold.cells[i], resumed.cells[i])) << "cell " << i;
    }

    // A corrupt checkpoint is equivalent to a missing one.
    corrupt_file(resumed_store->entry_path(storage::cell_bucket,
                                           runtime::sweep_cell_digest(spec.digest(), 0)),
                 20, 0x40);
    runtime::experiment_cache again_cache;
    auto again_store = std::make_shared<storage::artifact_store>(dir.path);
    again_cache.attach_store(again_store);
    const runtime::sweep_result again =
        runtime::sweep_scheduler(pool, again_cache)
            .run(spec, {again_store.get(), true});
    EXPECT_EQ(again.cells_loaded, 1u);
    EXPECT_EQ(again.cells_stored, 1u);
    EXPECT_TRUE(same_cells(cold.cells[0], again.cells[0]));
}

TEST(storage_store, resume_keys_on_the_spec_a_different_sweep_shares_nothing)
{
    temp_dir dir;
    runtime::thread_pool pool(2);

    runtime::experiment_cache first_cache;
    auto store = std::make_shared<storage::artifact_store>(dir.path);
    first_cache.attach_store(store);
    const runtime::sweep_spec spec = checkpoint_spec();
    (void)runtime::sweep_scheduler(pool, first_cache).run(spec, {store.get(), false});

    // Same pair, different theta ladder: every cell key changes, so resume
    // must restore nothing (stale checkpoints cannot leak across specs).
    runtime::sweep_spec changed = spec;
    changed.theta_multipliers = {0.25, 4.0};
    ASSERT_NE(changed.digest(), spec.digest());

    runtime::experiment_cache second_cache;
    auto second_store = std::make_shared<storage::artifact_store>(dir.path);
    second_cache.attach_store(second_store);
    const runtime::sweep_result result =
        runtime::sweep_scheduler(pool, second_cache)
            .run(changed, {second_store.get(), true});
    EXPECT_EQ(result.cells_loaded, 0u);
    EXPECT_EQ(result.cells_stored, 2u);
    EXPECT_EQ(result.program_computes, 1u);
}

// -- concurrent runners sharing one store directory -------------------------

TEST(storage_store, two_runners_race_on_one_store_directory)
{
    // Two independent runners (own pool, cache and store handle; one
    // directory) checkpoint the same spec concurrently -- the worst case
    // for write-back racing: both miss, both compute, both publish the same
    // cell keys while the other may be reading them. Atomic rename makes
    // the race benign; both must end with identical cells, and a third
    // resume must restore every one. Run under TSan by the CI storage job.
    temp_dir dir;
    const runtime::sweep_spec spec = checkpoint_spec();

    runtime::sweep_result results[2];
    std::thread runners[2];
    for (int i = 0; i < 2; ++i) {
        runners[i] = std::thread([&, i] {
            runtime::thread_pool pool(1);
            runtime::experiment_cache cache;
            storage::artifact_store store(dir.path);
            results[i] =
                runtime::sweep_scheduler(pool, cache).run(spec, {&store, /*resume=*/true});
        });
    }
    for (std::thread& runner : runners) {
        runner.join();
    }

    ASSERT_EQ(results[0].cells.size(), 2u);
    ASSERT_EQ(results[1].cells.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(same_cells(results[0].cells[i], results[1].cells[i])) << "cell " << i;
    }

    // Whoever lost a publish race left fully valid entries behind.
    runtime::thread_pool pool(1);
    const runtime::sweep_result after = resume_from(dir.path, spec, pool);
    EXPECT_EQ(after.cells_loaded, 2u);
    EXPECT_EQ(after.program_computes, 0u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(same_cells(results[0].cells[i], after.cells[i])) << "cell " << i;
    }
}

} // namespace
