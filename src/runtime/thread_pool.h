// thread_pool.h -- the thread pool for the experiment runtime.
//
// The sweep workload is a bag of coarse, independent, CPU-bound tasks
// (characterize a benchmark, run a policy ladder): the canonical sweep
// queues about 150 of them. One deque under one mutex serves that load
// without contention: workers pop the oldest task from the front, and a
// helping waiter (run_one_task) pops the newest from the back.
// `submit` returns a std::future carrying the task's value or exception;
// `parallel_for` blocks, and while blocked executes its OWN blocks
// (self-claiming from a shared counter, never unrelated pool tasks), so
// nested parallelism cannot deadlock even on a single-worker pool and a
// caller mid-construction of a cache entry never lifts a task that would
// block on that same entry. The shape follows the speculative-thread worker
// loop of adevs' SpecThread (see SNIPPETS.md): park on a condition
// variable, wake, drain, repark.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/parallel.h"
#include "util/thread_safety.h"

namespace synts::obs {
class counter;
class gauge;
class latency_histogram;
} // namespace synts::obs

namespace synts::runtime {

/// Thrown by submit() from a NON-worker thread once the pool's destructor
/// has begun draining: an external submission either lands before the
/// drain flag -- and is then guaranteed to execute before join -- or is
/// rejected with this exception, deterministically. parallel_for() never
/// throws it: a racing caller just executes every block itself. Pinned by
/// tests/test_runtime_pool.cpp.
class pool_stopped : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Pool of `worker_count` threads sharing one task queue.
class thread_pool {
public:
    /// `worker_count` 0 picks std::thread::hardware_concurrency() (min 1).
    /// Exception-safe: if spawning the i-th worker thread fails, the
    /// already-started workers are stopped and joined before the exception
    /// propagates (no std::terminate from unjoined std::threads).
    explicit thread_pool(std::size_t worker_count = 0);

    /// Drains every queued task, then joins the workers.
    ///
    /// Shutdown contract (pinned by tests/test_runtime_pool.cpp, TSan-run
    /// in CI):
    ///   * every task queued before destruction begins is executed, and a
    ///     task that submit()s a follow-up while the destructor drains is
    ///     fine -- a worker exits only when it finds the queue empty, and
    ///     the submitting worker is still running, so the follow-up too
    ///     runs before join. Chains of such submissions all drain.
    ///   * an external submit racing destruction is deterministic:
    ///     enqueue() checks the drain flag under the queue lock, which the
    ///     destructor holds to set it, so the submit either lands before
    ///     the flag (and its task runs before join) or throws pool_stopped
    ///     having enqueued nothing. Destroying the pool while an external
    ///     submitter still holds a reference remains a lifetime bug -- the
    ///     gate turns the outcome from UB into a thrown exception, it does
    ///     not make the dangling use correct.
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    /// Number of worker threads.
    [[nodiscard]] std::size_t worker_count() const noexcept { return workers_.size(); }

    /// Schedules `f(args...)`; the future carries the result or exception.
    /// Throws pool_stopped once the destructor has begun draining.
    template <typename F, typename... Args>
    auto submit(F&& f, Args&&... args)
        -> std::future<std::invoke_result_t<std::decay_t<F>, std::decay_t<Args>...>>
    {
        using result_type = std::invoke_result_t<std::decay_t<F>, std::decay_t<Args>...>;
        std::packaged_task<result_type()> task(
            [fn = std::forward<F>(f),
             tup = std::make_tuple(std::forward<Args>(args)...)]() mutable {
                return std::apply(std::move(fn), std::move(tup));
            });
        std::future<result_type> future = task.get_future();
        enqueue(std::packaged_task<void()>(std::move(task)));
        return future;
    }

    /// Runs `body(i)` for every i in [begin, end), in parallel, in blocks of
    /// `grain` indices (0 = auto). Blocks until every index completed; the
    /// calling thread claims and executes this loop's blocks while it waits
    /// (never unrelated pool tasks -- see the .cpp for why that matters),
    /// so completion never depends on a free worker. Rethrows the first
    /// failing block's exception (by index order) after all blocks settle.
    void parallel_for(std::size_t begin, std::size_t end,
                      const std::function<void(std::size_t)>& body,
                      std::size_t grain = 0);

    /// Runs one queued task on the calling thread, if any is available.
    /// Returns false when the queue is empty. This is the helping
    /// primitive: anything blocked on a future of this pool should loop
    /// run_one_task() instead of sleeping, so a caller inside a pool worker
    /// can never starve the tasks it is waiting for (sweep_scheduler::run's
    /// wait loop does; parallel_for runs only its own blocks instead).
    bool run_one_task();

private:
    /// Pushes `task` and wakes one worker. Throws pool_stopped for a
    /// submit from outside the pool once the drain has begun.
    void enqueue(std::packaged_task<void()> task);
    /// Runs `task`, bumping pool.tasks_executed and -- only when
    /// telemetry is enabled -- timing it into the pool.task_ns histogram.
    void execute_task(std::packaged_task<void()>& task);
    void worker_loop();
    /// Sets the drain flag, wakes every worker and joins them.
    void stop_and_join();

    /// Guards the queue and the drain flag. Workers hold it only to pop or
    /// to park, never while running a task.
    util::annotated_mutex mutex_{util::lock_rank::pool_queue, "thread_pool.queue"};
    std::deque<std::packaged_task<void()>> tasks_ SYNTS_GUARDED_BY(mutex_);
    bool stopping_ SYNTS_GUARDED_BY(mutex_) = false;
    std::condition_variable_any wake_;
    std::vector<std::thread> workers_;

    // Registry instruments (pool.* taxonomy), resolved once at
    // construction; they aggregate across every pool in the process.
    obs::counter* obs_executed_;
    obs::counter* obs_enqueued_;
    obs::gauge* obs_queue_depth_;
    obs::latency_histogram* obs_task_ns_;
};

/// Adapts `pool` to the layer-neutral util::parallel_for_fn hook the
/// characterization pipeline (workload generation, profiling, per-interval
/// timing simulation) consumes. The returned function captures `pool` by
/// reference and must not outlive it; because parallel_for is self-claiming
/// (the caller completes the fan-out alone if no worker is free, and never
/// executes unrelated pool tasks while blocked), the hook is safe to invoke
/// from inside a pool task -- including mid-construction of a cache entry.
[[nodiscard]] util::parallel_for_fn make_parallel_for(thread_pool& pool);

} // namespace synts::runtime
