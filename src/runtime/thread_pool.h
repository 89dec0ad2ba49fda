// thread_pool.h -- work-stealing thread pool for the experiment runtime.
//
// The sweep workload is a bag of coarse, independent, CPU-bound tasks
// (characterize a benchmark, run a policy ladder), so the pool favors
// simplicity over lock-free exotica: one deque per worker, owner pops LIFO
// from the front, idle workers steal FIFO from the back of a victim chosen
// round-robin. External submissions are striped across the queues.
// `submit` returns a std::future carrying the task's value or exception;
// `parallel_for` blocks, and while blocked executes its OWN blocks
// (self-claiming from a shared counter, never unrelated pool tasks), so
// nested parallelism cannot deadlock even on a single-worker pool and a
// caller mid-construction of a cache entry never lifts a task that would
// block on that same entry. The shape follows the speculative-thread worker
// loop of adevs' SpecThread (see SNIPPETS.md): park on a condition
// variable, wake, drain, repark.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
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

/// Move-only type-erased nullary task. std::function requires copyable
/// callables, which std::packaged_task is not; this is the minimal
/// replacement (std::move_only_function is C++23).
class unique_task {
public:
    unique_task() = default;

    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, unique_task>)
    unique_task(F&& f) // NOLINT(google-explicit-constructor)
        : impl_(std::make_unique<model<std::decay_t<F>>>(std::forward<F>(f)))
    {
    }

    /// Runs the task. Requires a non-empty task.
    void operator()() { impl_->call(); }

    /// True when a callable is held.
    [[nodiscard]] explicit operator bool() const noexcept { return impl_ != nullptr; }

private:
    struct callable_base {
        virtual ~callable_base() = default;
        virtual void call() = 0;
    };
    template <typename F>
    struct model final : callable_base {
        explicit model(F f) : fn(std::move(f)) {}
        void call() override { fn(); }
        F fn;
    };
    std::unique_ptr<callable_base> impl_;
};

/// Thrown by submit() from a NON-worker thread once the pool's destructor
/// has begun draining. Before the shutdown gate this race was
/// documented-unsafe (a task could be enqueued after the workers decided
/// no work was pending and be stranded, or touch freed queues); now an
/// external submission either lands before the drain flag -- and is then
/// guaranteed to execute before join -- or is rejected with this
/// exception, deterministically. parallel_for() never throws it: a racing
/// caller just executes every block itself. Pinned by
/// tests/test_runtime_pool.cpp.
class pool_stopped : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Work-stealing pool of `worker_count` threads.
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
    ///     fine -- the follow-up lands on the submitting worker's own queue
    ///     and workers only exit once no task is pending, so it too runs
    ///     before join. Chains of such submissions all drain.
    ///   * submitting from any NON-worker thread concurrently with (or
    ///     after) destruction used to be documented-unsafe. It is now
    ///     deterministic: enqueue() checks the drain flag under the same
    ///     lock the destructor sets it, so a racing external submit either
    ///     lands before the flag (and its task runs before join) or throws
    ///     pool_stopped having enqueued nothing. Destroying the pool while
    ///     an external submitter still holds a reference remains a
    ///     lifetime bug -- the gate turns the outcome from UB into a
    ///     thrown exception, it does not make the dangling use correct.
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    /// Number of worker threads.
    [[nodiscard]] std::size_t worker_count() const noexcept { return queues_.size(); }

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
        enqueue(unique_task(std::move(task)));
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
    /// Returns false when every queue is empty. This is the helping
    /// primitive: anything blocked on a future of this pool should loop
    /// run_one_task() instead of sleeping, so a caller inside a pool worker
    /// can never starve the tasks it is waiting for (sweep_scheduler::run's
    /// wait loop does; parallel_for runs only its own blocks instead).
    bool run_one_task();

private:
    struct worker_queue {
        util::annotated_mutex mutex{util::lock_rank::pool_queue,
                                    "thread_pool.worker_queue"};
        std::deque<unique_task> tasks SYNTS_GUARDED_BY(mutex);
    };

    void enqueue(unique_task task);
    /// Runs `task`, bumping pool.tasks_executed and -- only when
    /// telemetry is enabled -- timing it into the pool.task_ns histogram.
    void execute_task(unique_task& task);
    void worker_loop(std::size_t index);
    /// Pops from own queue front, else steals from a victim's back.
    bool acquire_task(std::size_t index, unique_task& out);
    /// Non-worker variant used by helping waiters: steal from anyone.
    bool steal_any(unique_task& out);

    std::vector<std::unique_ptr<worker_queue>> queues_;
    std::vector<std::thread> workers_;

    /// The sleep/shutdown gate. Guards no non-atomic data of its own (the
    /// flags it orders are atomics); it exists so a worker's recheck-then-
    /// park and enqueue's publish-then-notify are mutually exclusive, and
    /// so the drain flag flips under the same lock enqueue checks it.
    /// Ranked below pool_queue: enqueue pushes while holding the gate.
    util::annotated_mutex sleep_mutex_{util::lock_rank::pool_sleep,
                                       "thread_pool.sleep"};
    std::condition_variable_any wake_;
    std::atomic<std::size_t> pending_{0};
    std::atomic<std::size_t> next_queue_{0};
    std::atomic<bool> stopping_{false};

    // Registry instruments (pool.* taxonomy), resolved once at
    // construction; they aggregate across every pool in the process.
    obs::counter* obs_executed_;
    obs::counter* obs_steals_;
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
