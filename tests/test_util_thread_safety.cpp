// Tests for util/thread_safety.h + util/lock_rank.{h,cpp}: the annotated
// mutex wrappers and the debug lock-rank deadlock detector.
//
// The rank checks are compiled out in release builds (NDEBUG without
// SYNTS_FORCE_LOCK_RANK_CHECKS), so the detector-behavior tests gate on
// SYNTS_LOCK_RANK_CHECKS and reduce to plain locking smoke tests when off
// -- the suite passes in every build mode, and the TSan CI job forces the
// checks on (-DSYNTS_LOCK_RANK=ON) so the death tests run under
// ThreadSanitizer too.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <set>
#include <thread>
#include <vector>

#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "runtime/experiment_cache.h"
#include "runtime/thread_pool.h"
#include "util/thread_safety.h"
#include "workload/registry.h"

namespace {

using synts::util::annotated_mutex;
using synts::util::annotated_shared_mutex;
using synts::util::cv_mutex_lock;
using synts::util::lock_rank;
using synts::util::lock_rank_name;
using synts::util::mutex_lock;
using synts::util::shared_mutex_lock;

TEST(util_lock_rank, every_table_rank_has_a_name)
{
    const lock_rank table[] = {
        lock_rank::pool_queue,        lock_rank::cache_shard,
        lock_rank::workload_registry, lock_rank::sampler_wake,
        lock_rank::metrics_registry,  lock_rank::sampler_series,
        lock_rank::health_events,     lock_rank::trace_buffers,
    };
    std::set<const char*> names;
    for (const lock_rank rank : table) {
        const char* name = lock_rank_name(rank);
        ASSERT_NE(name, nullptr) << "unnamed rank " << static_cast<unsigned>(rank);
        names.insert(name);
    }
    EXPECT_EQ(names.size(), std::size(table)) << "duplicate rank names";
    EXPECT_EQ(lock_rank_name(static_cast<lock_rank>(9999)), nullptr);
}

TEST(util_lock_rank, correct_order_nesting_passes)
{
    annotated_mutex low(lock_rank::pool_queue, "test.low");
    annotated_mutex mid(lock_rank::cache_shard, "test.mid");
    annotated_mutex high(lock_rank::workload_registry, "test.high");
    {
        const mutex_lock a(low);
        const mutex_lock b(mid);
        const mutex_lock c(high);
    }
    // Sequential re-acquisition at any rank is fine once the stack drains.
    {
        const mutex_lock c(high);
    }
    {
        const mutex_lock a(low);
    }
#if SYNTS_LOCK_RANK_CHECKS
    EXPECT_EQ(synts::util::lock_rank_detail::held_count(), 0u);
#endif
}

TEST(util_lock_rank, try_lock_participates_in_rank_tracking)
{
    annotated_mutex low(lock_rank::pool_queue, "test.try_low");
    annotated_mutex high(lock_rank::cache_shard, "test.try_high");
    ASSERT_TRUE(low.try_lock());
#if SYNTS_LOCK_RANK_CHECKS
    EXPECT_EQ(synts::util::lock_rank_detail::held_count(), 1u);
#endif
    ASSERT_TRUE(high.try_lock());
    high.unlock();
    low.unlock();
#if SYNTS_LOCK_RANK_CHECKS
    EXPECT_EQ(synts::util::lock_rank_detail::held_count(), 0u);
#endif
}

TEST(util_lock_rank, shared_mutex_readers_exclude_writer)
{
    annotated_shared_mutex rw(lock_rank::cache_shard, "test.rw");
    std::atomic<int> readers{0};
    std::atomic<bool> writer_done{false};
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (int i = 0; i < 3; ++i) {
        threads.emplace_back([&] {
            for (int n = 0; n < 200; ++n) {
                const shared_mutex_lock lock(rw);
                readers.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    threads.emplace_back([&] {
        for (int n = 0; n < 100; ++n) {
            rw.lock();
            rw.unlock();
        }
        writer_done.store(true, std::memory_order_relaxed);
    });
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_EQ(readers.load(), 600);
    EXPECT_TRUE(writer_done.load());
}

TEST(util_lock_rank, condition_variable_wait_keeps_stack_balanced)
{
    annotated_mutex gate(lock_rank::sampler_wake, "test.cv_gate");
    std::condition_variable_any cv;
    bool ready = false;
    std::thread signaller([&] {
        const mutex_lock lock(gate);
        ready = true;
        cv.notify_one();
    });
    {
        cv_mutex_lock lock(gate);
        while (!ready) {
            cv.wait(lock);
        }
        // The cv released and reacquired through the guard; the rank stack
        // must reflect exactly one held lock here.
#if SYNTS_LOCK_RANK_CHECKS
        EXPECT_EQ(synts::util::lock_rank_detail::held_count(), 1u);
#endif
    }
    signaller.join();
#if SYNTS_LOCK_RANK_CHECKS
    EXPECT_EQ(synts::util::lock_rank_detail::held_count(), 0u);
#endif
}

#if SYNTS_LOCK_RANK_CHECKS

TEST(util_lock_rank, inverted_acquisition_aborts)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    annotated_mutex low(lock_rank::pool_queue, "test.inv_low");
    annotated_mutex high(lock_rank::cache_shard, "test.inv_high");
    EXPECT_DEATH(
        {
            const mutex_lock first(high);
            const mutex_lock second(low); // rank 30 under rank 40: inversion
        },
        "lock rank order violation.*test\\.inv_low.*test\\.inv_high");
}

TEST(util_lock_rank, same_rank_nesting_aborts)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    annotated_mutex a(lock_rank::workload_registry, "test.same_a");
    annotated_mutex b(lock_rank::workload_registry, "test.same_b");
    EXPECT_DEATH(
        {
            const mutex_lock first(a);
            const mutex_lock second(b); // equal rank: no order is declared
        },
        "lock rank order violation.*test\\.same_b.*test\\.same_a");
}

TEST(util_lock_rank, live_registry_covers_every_subsystem_mutex)
{
    // Instantiate every mutex-bearing subsystem, then assert each live
    // annotated mutex carries a rank the table names -- the "rank table
    // covers every annotated mutex" acceptance check, evaluated against
    // reality rather than a hand-maintained list.
    synts::runtime::thread_pool pool(2);
    synts::runtime::experiment_cache cache(4);
    synts::obs::metrics_registry registry;
    synts::obs::sampler sampler(registry);
    synts::obs::trace_recorder recorder;
    const synts::workload::workload_registry workloads =
        synts::workload::workload_registry::with_builtins();
    (void)synts::obs::health_monitor::cell_monitor();

    const auto live = synts::util::lock_rank_detail::live_mutexes();
    // At minimum: pool queue + cache shards + metrics + sampler x2 +
    // trace + registry + health.
    ASSERT_GT(live.size(), 10u);
    std::set<lock_rank> ranks_seen;
    for (const auto& m : live) {
        EXPECT_NE(lock_rank_name(m.rank), nullptr)
            << "mutex \"" << m.name << "\" has rank "
            << static_cast<unsigned>(m.rank) << " not in the table";
        EXPECT_NE(m.name, nullptr);
        ranks_seen.insert(m.rank);
    }
    // The instantiated set above exercises every row of the table.
    EXPECT_GE(ranks_seen.size(), 8u);
}

TEST(util_lock_rank, release_of_unheld_lock_aborts)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    annotated_mutex m(lock_rank::workload_registry, "test.unheld");
    EXPECT_DEATH(synts::util::lock_rank_detail::note_released(
                     lock_rank::workload_registry, "test.unheld"),
                 "does not hold");
    (void)m;
}

#endif // SYNTS_LOCK_RANK_CHECKS

TEST(util_thread_safety, concurrent_lockers_in_rank_order_are_clean)
{
    // TSan target (the thread-sanitizer CI job runs this suite with the
    // rank checks forced on): many threads hammering a correct two-level
    // nesting must neither race nor trip the detector.
    annotated_mutex outer(lock_rank::pool_queue, "test.conc_outer");
    annotated_mutex inner(lock_rank::cache_shard, "test.conc_inner");
    std::uint64_t guarded = 0;
    std::vector<std::thread> threads;
    constexpr int thread_count = 8;
    constexpr int iterations = 500;
    threads.reserve(thread_count);
    for (int t = 0; t < thread_count; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < iterations; ++i) {
                const mutex_lock a(outer);
                const mutex_lock b(inner);
                ++guarded;
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_EQ(guarded, static_cast<std::uint64_t>(thread_count) * iterations);
}

TEST(util_thread_safety, release_build_wrapper_adds_no_state)
{
#if SYNTS_LOCK_RANK_CHECKS
    GTEST_SKIP() << "rank bookkeeping resident (debug/forced build)";
#else
    // The zero-overhead claim, pinned structurally: without checks the
    // wrapper is exactly a std::mutex (bench_locks pins the time side).
    static_assert(sizeof(annotated_mutex) == sizeof(std::mutex));
    static_assert(sizeof(annotated_shared_mutex) == sizeof(std::shared_mutex));
#endif
}

} // namespace
