// Tests for runtime/thread_pool: correctness under contention, exception
// propagation through futures, parallel_for vs serial equivalence, and
// help-while-waiting (no deadlock from nested parallelism, even on a
// single-worker pool), and the shutdown gate (a late external submit throws
// pool_stopped).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "runtime/thread_pool.h"

namespace {

namespace runtime = synts::runtime;
using synts::runtime::thread_pool;

TEST(runtime_pool, worker_count_defaults_to_at_least_one)
{
    thread_pool pool;
    EXPECT_GE(pool.worker_count(), 1u);
    thread_pool fixed(3);
    EXPECT_EQ(fixed.worker_count(), 3u);
}

TEST(runtime_pool, submit_returns_value_through_future)
{
    thread_pool pool(2);
    auto future = pool.submit([](int a, int b) { return a + b; }, 20, 22);
    EXPECT_EQ(future.get(), 42);
}

TEST(runtime_pool, many_tasks_all_execute_exactly_once)
{
    synts::obs::metrics_registry& registry = synts::obs::metrics_registry::global();
    registry.reset();
    std::atomic<int> counter{0};
    constexpr int n = 2000;
    {
        thread_pool pool(4);
        std::vector<std::future<void>> futures;
        futures.reserve(n);
        for (int i = 0; i < n; ++i) {
            futures.push_back(pool.submit([&counter] {
                counter.fetch_add(1, std::memory_order_relaxed);
            }));
        }
        for (auto& f : futures) {
            f.get();
        }
    }
    // Read after the pool joined: a task's future is ready before the
    // worker that ran it bumps pool.tasks_executed.
    EXPECT_EQ(counter.load(), n);
    EXPECT_GE(registry.counter_at("pool.tasks_executed").value(),
              static_cast<std::uint64_t>(n));
}

TEST(runtime_pool, results_deterministic_vs_serial_run)
{
    // Each task computes a pure function of its index into a pre-assigned
    // slot; the aggregate must equal the serial evaluation regardless of
    // scheduling order.
    constexpr std::size_t n = 500;
    std::vector<double> serial(n);
    for (std::size_t i = 0; i < n; ++i) {
        serial[i] = std::sin(static_cast<double>(i)) * std::sqrt(i + 1.0);
    }

    thread_pool pool(4);
    std::vector<double> parallel(n);
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        futures.push_back(pool.submit([&parallel, i] {
            parallel[i] = std::sin(static_cast<double>(i)) * std::sqrt(i + 1.0);
        }));
    }
    for (auto& f : futures) {
        f.get();
    }
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(parallel[i], serial[i]) << "slot " << i;
    }
}

TEST(runtime_pool, exceptions_propagate_and_pool_survives)
{
    thread_pool pool(2);
    auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW((void)bad.get(), std::runtime_error);
    // The worker that ran the throwing task must still serve new work.
    auto good = pool.submit([] { return 7; });
    EXPECT_EQ(good.get(), 7);
}

TEST(runtime_pool, parallel_for_covers_every_index_once)
{
    thread_pool pool(4);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> visits(n);
    pool.parallel_for(0, n, [&visits](std::size_t i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(visits[i].load(), 1) << "index " << i;
    }
}

TEST(runtime_pool, parallel_for_empty_and_single_ranges)
{
    thread_pool pool(2);
    int calls = 0;
    pool.parallel_for(5, 5, [&calls](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    std::atomic<int> one{0};
    pool.parallel_for(9, 10, [&one](std::size_t i) {
        EXPECT_EQ(i, 9u);
        one.fetch_add(1);
    });
    EXPECT_EQ(one.load(), 1);
}

TEST(runtime_pool, parallel_for_propagates_body_exception)
{
    thread_pool pool(2);
    EXPECT_THROW(pool.parallel_for(0, 100,
                                   [](std::size_t i) {
                                       if (i == 37) {
                                           throw std::logic_error("index 37");
                                       }
                                   },
                                   8),
                 std::logic_error);
}

TEST(runtime_pool, nested_parallel_for_does_not_deadlock_single_worker)
{
    // The inner parallel_for runs on the pool's only worker; the helping
    // waiter must drain the inner blocks instead of parking forever.
    thread_pool pool(1);
    std::atomic<int> inner_total{0};
    auto outer = pool.submit([&pool, &inner_total] {
        pool.parallel_for(0, 16, [&inner_total](std::size_t) {
            inner_total.fetch_add(1, std::memory_order_relaxed);
        });
    });
    outer.get();
    EXPECT_EQ(inner_total.load(), 16);
}

TEST(runtime_pool, submissions_from_tasks_are_stealable)
{
    // Tasks submitted from inside a worker join the one shared queue, so
    // the other workers run them while the submitter polls their futures.
    thread_pool pool(4);
    std::atomic<int> total{0};
    auto root = pool.submit([&pool, &total] {
        std::vector<std::future<void>> children;
        children.reserve(64);
        for (int i = 0; i < 64; ++i) {
            children.push_back(pool.submit([&total] {
                total.fetch_add(1, std::memory_order_relaxed);
            }));
        }
        for (auto& child : children) {
            while (child.wait_for(std::chrono::milliseconds(1)) !=
                   std::future_status::ready) {
            }
        }
    });
    root.get();
    EXPECT_EQ(total.load(), 64);
}

TEST(runtime_pool, queue_depth_and_task_counts_settle_after_join)
{
    // The pool.queue_depth gauge is set under the queue lock on every push
    // and pop, so once the pool has joined it reads the empty queue; and
    // every task enqueued -- parallel_for participants and worker
    // self-submits made while the destructor drains -- was executed.
    synts::obs::metrics_registry& registry = synts::obs::metrics_registry::global();
    registry.reset();
    std::atomic<int> leaves{0};
    constexpr int outer = 8;
    constexpr std::size_t inner = 64;
    {
        thread_pool pool(3);
        for (int i = 0; i < outer; ++i) {
            (void)pool.submit([&pool, &leaves] {
                pool.parallel_for(
                    0, inner,
                    [&pool, &leaves](std::size_t j) {
                        if (j % 16 == 0) {
                            (void)pool.submit([&leaves] { leaves.fetch_add(1); });
                        }
                        leaves.fetch_add(1);
                    },
                    4);
            });
        }
    } // joins with the nested loops and their follow-ups mid-flight
    EXPECT_EQ(leaves.load(), outer * static_cast<int>(inner + inner / 16));
    EXPECT_EQ(registry.gauge_at("pool.queue_depth").value(), 0);
    const std::uint64_t enqueued = registry.counter_at("pool.tasks_enqueued").value();
    EXPECT_GE(enqueued, static_cast<std::uint64_t>(outer) * (1 + inner / 16));
    EXPECT_EQ(enqueued, registry.counter_at("pool.tasks_executed").value());
}

TEST(runtime_pool, destructor_drains_queued_tasks)
{
    std::atomic<int> done{0};
    {
        thread_pool pool(1);
        for (int i = 0; i < 50; ++i) {
            (void)pool.submit([&done] { done.fetch_add(1); });
        }
    } // ~thread_pool drains, then joins
    EXPECT_EQ(done.load(), 50);
}

TEST(runtime_pool, tasks_submitted_during_destructor_drain_still_run)
{
    // Shutdown contract: a running task may submit() follow-ups while the
    // destructor drains; a worker exits only when it finds the queue empty,
    // and the submitting worker is still running, so every link of the
    // chain executes before join. Regression-pins the drain ordering (this suite
    // runs under TSan in CI, so it also pins the absence of a rebuilt
    // submit/stop race).
    std::atomic<int> chain{0};
    {
        thread_pool pool(2);
        for (int i = 0; i < 8; ++i) {
            (void)pool.submit([&pool, &chain] {
                (void)pool.submit([&pool, &chain] {
                    (void)pool.submit([&chain] { chain.fetch_add(1); });
                    chain.fetch_add(1);
                });
                chain.fetch_add(1);
            });
        }
    } // destructor begins while the chains are mid-flight
    EXPECT_EQ(chain.load(), 3 * 8);
}

TEST(runtime_pool, destruction_with_mixed_pending_and_running_work_loses_nothing)
{
    // Queued-but-never-started tasks and in-flight tasks drain alike: the
    // executed count at join time equals every submission ever made, so no
    // pending task is destroyed unexecuted (futures would otherwise report
    // broken_promise to their holders).
    constexpr int n = 200;
    std::atomic<int> done{0};
    std::uint64_t executed = 0;
    {
        thread_pool pool(3);
        for (int i = 0; i < n; ++i) {
            (void)pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
        }
        // Destructor runs with most of the 200 still queued.
    }
    executed = done.load();
    EXPECT_EQ(executed, static_cast<std::uint64_t>(n));
}

// Keeps the runtime_cancel suite name of the file it moved from, so the
// test's id is stable; it exercises plain submit, not cancellation.
TEST(runtime_cancel, external_submit_after_shutdown_throws_pool_stopped)
{
    // Pin: destruction began + external submit == deterministic
    // pool_stopped, never a silent drop or UB. A gated task holds the
    // drain so the destructor is reliably mid-shutdown while we probe.
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    auto pool = std::make_unique<thread_pool>(1);
    thread_pool* raw = pool.get();
    (void)raw->submit([open] { open.get(); });

    std::thread destroyer([p = std::move(pool)]() mutable { p.reset(); });
    bool caught = false;
    for (int i = 0; i < 10000 && !caught; ++i) {
        try {
            (void)raw->submit([] {});
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        } catch (const runtime::pool_stopped&) {
            caught = true;
        }
    }
    gate.set_value();
    destroyer.join();
    EXPECT_TRUE(caught);
}

} // namespace
