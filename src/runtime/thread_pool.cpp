#include "runtime/thread_pool.h"

#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace synts::runtime {

namespace {

/// The pool whose worker runs on this thread, or nullptr outside a pool.
/// enqueue() lets a worker's own submissions through the drain gate.
thread_local const thread_pool* tls_worker_pool = nullptr;

} // namespace

thread_pool::thread_pool(std::size_t worker_count)
    : obs_executed_(&obs::metrics_registry::global().counter_at("pool.tasks_executed")),
      obs_enqueued_(&obs::metrics_registry::global().counter_at("pool.tasks_enqueued")),
      obs_queue_depth_(&obs::metrics_registry::global().gauge_at("pool.queue_depth")),
      obs_task_ns_(&obs::metrics_registry::global().histogram_at("pool.task_ns"))
{
    if (worker_count == 0) {
        worker_count = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    workers_.reserve(worker_count);
    try {
        for (std::size_t i = 0; i < worker_count; ++i) {
            workers_.emplace_back([this] { worker_loop(); });
        }
    } catch (...) {
        // Thread creation can fail (resource exhaustion). Already-started
        // workers MUST be stopped and joined before the exception leaves,
        // or their std::thread destructors call std::terminate.
        stop_and_join();
        throw;
    }
}

thread_pool::~thread_pool()
{
    stop_and_join();
}

void thread_pool::stop_and_join()
{
    {
        const util::mutex_lock lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

void thread_pool::enqueue(std::packaged_task<void()> task)
{
    {
        // The drain flag is read under the lock the destructor sets it
        // with, so an EXTERNAL submit either lands before the flag (and
        // workers exit only on an empty queue, so it runs before join) or
        // throws pool_stopped with nothing enqueued. A worker's own
        // submissions stay exempt: the drain contract promises that
        // follow-ups submitted by in-flight tasks run before join.
        const util::mutex_lock lock(mutex_);
        if (stopping_ && tls_worker_pool != this) {
            throw pool_stopped("thread_pool: submit after shutdown began");
        }
        tasks_.push_back(std::move(task));
        obs_queue_depth_->set(static_cast<std::int64_t>(tasks_.size()));
    }
    obs_enqueued_->add(1);
    wake_.notify_one();
}

void thread_pool::execute_task(std::packaged_task<void()>& task)
{
    {
        const obs::scoped_timer timer(*obs_task_ns_);
        task();
    }
    obs_executed_->add(1);
}

bool thread_pool::run_one_task()
{
    std::packaged_task<void()> task;
    {
        const util::mutex_lock lock(mutex_);
        if (tasks_.empty()) {
            return false;
        }
        task = std::move(tasks_.back());
        tasks_.pop_back();
        obs_queue_depth_->set(static_cast<std::int64_t>(tasks_.size()));
    }
    execute_task(task);
    return true;
}

void thread_pool::worker_loop()
{
    tls_worker_pool = this;
    for (;;) {
        std::packaged_task<void()> task;
        {
            util::cv_mutex_lock lock(mutex_);
            while (tasks_.empty() && !stopping_) {
                wake_.wait(lock);
            }
            if (tasks_.empty()) {
                return; // draining, and nothing is left to run
            }
            task = std::move(tasks_.front());
            tasks_.pop_front();
            obs_queue_depth_->set(static_cast<std::int64_t>(tasks_.size()));
        }
        execute_task(task);
    }
}

void thread_pool::parallel_for(std::size_t begin, std::size_t end,
                               const std::function<void(std::size_t)>& body,
                               std::size_t grain)
{
    if (begin >= end) {
        return;
    }
    const std::size_t count = end - begin;
    if (grain == 0) {
        // Aim for a few blocks per worker so claiming can rebalance.
        grain = std::max<std::size_t>(1, count / (4 * worker_count()));
    }
    const std::size_t block_count = (count + grain - 1) / grain;

    // Self-claiming execution: the caller and any recruited workers pull
    // block indices from a shared counter and run ONLY this loop's blocks --
    // never unrelated pool tasks. Two properties follow:
    //
    //   * progress never depends on the pool: a fully-busy (or one-worker)
    //     pool just degrades to the caller running every block itself, so
    //     nested parallelism cannot deadlock;
    //   * the caller executes no foreign task while blocked. The earlier
    //     help-with-anything scheme could lift a task that blocks on a
    //     shared-future the caller itself was mid-constructing (the
    //     experiment cache's in-flight entries) -- a self-wait cycle. A
    //     sweep worker characterizing inside the cache must therefore never
    //     pick up another sweep pair while it waits.
    struct control {
        std::atomic<std::size_t> next_block{0};
        std::atomic<std::size_t> remaining;
        std::vector<std::exception_ptr> errors; ///< [block]
        const std::function<void(std::size_t)>* body = nullptr;
        std::size_t begin = 0;
        std::size_t end = 0;
        std::size_t grain = 1;
        std::size_t block_count = 0;
    };
    const auto ctl = std::make_shared<control>();
    ctl->remaining.store(block_count, std::memory_order_relaxed);
    ctl->errors.resize(block_count);
    ctl->body = &body;
    ctl->begin = begin;
    ctl->end = end;
    ctl->grain = grain;
    ctl->block_count = block_count;

    const auto drain = [](control& c) {
        for (;;) {
            const std::size_t block = c.next_block.fetch_add(1, std::memory_order_relaxed);
            if (block >= c.block_count) {
                return;
            }
            const std::size_t block_begin = c.begin + block * c.grain;
            const std::size_t block_end = std::min(c.end, block_begin + c.grain);
            try {
                for (std::size_t i = block_begin; i < block_end; ++i) {
                    (*c.body)(i);
                }
            } catch (...) {
                c.errors[block] = std::current_exception();
            }
            if (c.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                c.remaining.notify_all();
            }
        }
    };

    // Recruit at most one participant per block beyond the caller. A
    // participant that wakes after everything is claimed touches only the
    // counter (the shared control keeps it valid past the caller's return),
    // so stragglers are harmless.
    const std::size_t participants =
        std::min(worker_count(), block_count > 0 ? block_count - 1 : 0);
    for (std::size_t p = 0; p < participants; ++p) {
        try {
            enqueue(std::packaged_task<void()>([ctl, drain] { drain(*ctl); }));
        } catch (const pool_stopped&) {
            // Recruiting raced pool shutdown. Unwinding here would leave
            // already-recruited participants holding `body` past the
            // caller's frame, so degrade instead: stop recruiting and let
            // the caller drain every unclaimed block itself below.
            break;
        }
    }

    drain(*ctl);
    for (std::size_t r = ctl->remaining.load(std::memory_order_acquire); r != 0;
         r = ctl->remaining.load(std::memory_order_acquire)) {
        ctl->remaining.wait(r, std::memory_order_acquire);
    }

    // First failing block by index order, matching the old contract.
    for (std::exception_ptr& error : ctl->errors) {
        if (error) {
            std::rethrow_exception(error);
        }
    }
}

util::parallel_for_fn make_parallel_for(thread_pool& pool)
{
    return [&pool](std::size_t count, const std::function<void(std::size_t)>& body) {
        pool.parallel_for(0, count, body);
    };
}

} // namespace synts::runtime
