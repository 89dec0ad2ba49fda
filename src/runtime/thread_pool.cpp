#include "runtime/thread_pool.h"

#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <exception>

namespace synts::runtime {

namespace {

/// Index of the pool worker running on this thread, or npos outside a pool.
/// Used so tasks submitted from inside a worker land on that worker's own
/// queue (LIFO locality) instead of round-robin.
constexpr std::size_t npos = static_cast<std::size_t>(-1);
thread_local std::size_t tls_worker_index = npos;
thread_local const thread_pool* tls_worker_pool = nullptr;

} // namespace

thread_pool::thread_pool(std::size_t worker_count)
    : obs_executed_(&obs::metrics_registry::global().counter_at("pool.tasks_executed")),
      obs_steals_(&obs::metrics_registry::global().counter_at("pool.steals")),
      obs_enqueued_(&obs::metrics_registry::global().counter_at("pool.tasks_enqueued")),
      obs_queue_depth_(&obs::metrics_registry::global().gauge_at("pool.queue_depth")),
      obs_task_ns_(&obs::metrics_registry::global().histogram_at("pool.task_ns"))
{
    if (worker_count == 0) {
        worker_count = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    queues_.reserve(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i) {
        queues_.push_back(std::make_unique<worker_queue>());
    }
    workers_.reserve(worker_count);
    try {
        for (std::size_t i = 0; i < worker_count; ++i) {
            workers_.emplace_back([this, i] { worker_loop(i); });
        }
    } catch (...) {
        // Thread creation can fail (resource exhaustion). Already-started
        // workers MUST be stopped and joined before the exception leaves,
        // or their std::thread destructors call std::terminate.
        {
            const util::mutex_lock lock(sleep_mutex_);
            stopping_.store(true, std::memory_order_release);
        }
        wake_.notify_all();
        for (std::thread& worker : workers_) {
            worker.join();
        }
        throw;
    }
}

thread_pool::~thread_pool()
{
    {
        const util::mutex_lock lock(sleep_mutex_);
        stopping_.store(true, std::memory_order_release);
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

void thread_pool::enqueue(unique_task task)
{
    const bool from_worker = tls_worker_pool == this;
    std::size_t target = from_worker ? tls_worker_index : npos;
    if (target == npos) {
        target = next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
    }
    {
        // sleep_mutex_ is held across the whole {gate, push, increment}
        // sequence, for two reasons:
        //
        //   * the increment must be ordered against the workers' predicate
        //     check under sleep_mutex_, or a notify can land in the window
        //     between a worker seeing pending_ == 0 and blocking -- a lost
        //     wakeup that strands a queued task forever;
        //   * the destructor sets stopping_ under this same mutex, so an
        //     EXTERNAL submit either fully lands before the drain flag (and
        //     workers cannot exit while pending_ > 0, so it runs before
        //     join) or observes the flag here and throws pool_stopped with
        //     nothing enqueued. Without the gate this race was UB.
        //
        // Worker self-submissions stay exempt: the drain contract promises
        // that follow-ups submitted by in-flight tasks run before join.
        // Lock order sleep_mutex_ -> queue mutex is acyclic: workers take
        // the queue mutexes and sleep_mutex_ separately, never nested the
        // other way.
        const util::mutex_lock lock(sleep_mutex_);
        if (!from_worker && stopping_.load(std::memory_order_acquire)) {
            throw pool_stopped("thread_pool: submit after shutdown began");
        }
        {
            worker_queue& queue = *queues_[target];
            const util::mutex_lock queue_lock(queue.mutex);
            queue.tasks.push_front(std::move(task));
        }
        obs_queue_depth_->set(static_cast<std::int64_t>(
            pending_.fetch_add(1, std::memory_order_release) + 1));
    }
    obs_enqueued_->add(1);
    wake_.notify_one();
}

void thread_pool::execute_task(unique_task& task)
{
    {
        const obs::scoped_timer timer(*obs_task_ns_);
        task();
    }
    obs_executed_->add(1);
}

bool thread_pool::run_one_task()
{
    unique_task task;
    if (!steal_any(task)) {
        return false;
    }
    obs_queue_depth_->set(static_cast<std::int64_t>(
        pending_.fetch_sub(1, std::memory_order_acq_rel) - 1));
    execute_task(task);
    return true;
}

bool thread_pool::acquire_task(std::size_t index, unique_task& out)
{
    {
        worker_queue& own = *queues_[index];
        const util::mutex_lock lock(own.mutex);
        if (!own.tasks.empty()) {
            out = std::move(own.tasks.front());
            own.tasks.pop_front();
            return true;
        }
    }
    for (std::size_t hop = 1; hop < queues_.size(); ++hop) {
        worker_queue& victim = *queues_[(index + hop) % queues_.size()];
        const util::mutex_lock lock(victim.mutex);
        if (!victim.tasks.empty()) {
            out = std::move(victim.tasks.back());
            victim.tasks.pop_back();
            obs_steals_->add(1);
            return true;
        }
    }
    return false;
}

bool thread_pool::steal_any(unique_task& out)
{
    for (std::size_t i = 0; i < queues_.size(); ++i) {
        worker_queue& victim = *queues_[i];
        const util::mutex_lock lock(victim.mutex);
        if (!victim.tasks.empty()) {
            out = std::move(victim.tasks.back());
            victim.tasks.pop_back();
            return true;
        }
    }
    return false;
}

void thread_pool::worker_loop(std::size_t index)
{
    tls_worker_index = index;
    tls_worker_pool = this;
    for (;;) {
        unique_task task;
        if (acquire_task(index, task)) {
            obs_queue_depth_->set(static_cast<std::int64_t>(
                pending_.fetch_sub(1, std::memory_order_acq_rel) - 1));
            execute_task(task);
            continue;
        }
        util::cv_mutex_lock lock(sleep_mutex_);
        // The predicate reads only atomics (no guarded data), so the
        // predicate overload stays analysis-clean here.
        wake_.wait(lock, [this] {
            return pending_.load(std::memory_order_acquire) > 0 ||
                   stopping_.load(std::memory_order_acquire);
        });
        if (stopping_.load(std::memory_order_acquire) &&
            pending_.load(std::memory_order_acquire) == 0) {
            return;
        }
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
            enqueue(unique_task([ctl, drain] { drain(*ctl); }));
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
