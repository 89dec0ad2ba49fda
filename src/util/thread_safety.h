// thread_safety.h -- Clang thread-safety-analysis capability wrappers.
//
// Every mutex in src/ is an annotated_mutex (or annotated_shared_mutex)
// from this header; the repo lint (scripts/lint_synts.py) rejects raw
// std::mutex anywhere else. Under clang the wrappers expose capability
// attributes so `-Wthread-safety -Werror` turns an unguarded access to a
// SYNTS_GUARDED_BY member -- or a *_locked helper called without its
// SYNTS_REQUIRES lock -- into a build break. Under GCC every attribute
// macro expands to nothing and the wrappers compile to plain
// std::mutex/std::shared_mutex.
//
// The same wrappers feed the debug-only lock-rank deadlock detector
// (util/lock_rank.h): each mutex is constructed with a rank from the
// canonical table and a name, and every acquisition is checked against the
// calling thread's held-rank stack. In release builds (NDEBUG, no
// SYNTS_FORCE_LOCK_RANK_CHECKS) the rank/name members and every check
// vanish -- annotated_mutex is layout-identical to std::mutex.
//
// Idioms the analysis requires (clang TSA matches capability EXPRESSIONS
// textually, and does not see through libstdc++'s lock types):
//   - use the scoped guards below, never std::lock_guard/std::unique_lock;
//   - bind a local reference first when locking through an indirection,
//     so the guard expression and the member accesses name the same
//     object:  shard& home = *shards_[i];
//              const util::mutex_lock lock(home.mutex);
//              home.entries.clear();
//   - waits go through cv_mutex_lock + std::condition_variable_any, and
//     the wait condition is re-checked in an explicit loop rather than a
//     predicate lambda (the analysis cannot see that libstdc++ invokes the
//     predicate with the lock held);
//   - constructors and destructors are not analyzed (clang treats them as
//     NO_THREAD_SAFETY_ANALYSIS), which is why e.g. workload_registry's
//     copy constructor may fill its own members lock-free.

#pragma once

#include "util/lock_rank.h"

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#if defined(__clang__)
#define SYNTS_TSA(x) __attribute__((x))
#else
#define SYNTS_TSA(x)
#endif

#define SYNTS_CAPABILITY(name) SYNTS_TSA(capability(name))
#define SYNTS_SCOPED_CAPABILITY SYNTS_TSA(scoped_lockable)
#define SYNTS_GUARDED_BY(mutex) SYNTS_TSA(guarded_by(mutex))
#define SYNTS_PT_GUARDED_BY(mutex) SYNTS_TSA(pt_guarded_by(mutex))
#define SYNTS_REQUIRES(...) SYNTS_TSA(requires_capability(__VA_ARGS__))
#define SYNTS_REQUIRES_SHARED(...) SYNTS_TSA(requires_shared_capability(__VA_ARGS__))
#define SYNTS_ACQUIRE(...) SYNTS_TSA(acquire_capability(__VA_ARGS__))
#define SYNTS_ACQUIRE_SHARED(...) SYNTS_TSA(acquire_shared_capability(__VA_ARGS__))
#define SYNTS_RELEASE(...) SYNTS_TSA(release_capability(__VA_ARGS__))
#define SYNTS_RELEASE_SHARED(...) SYNTS_TSA(release_shared_capability(__VA_ARGS__))
#define SYNTS_TRY_ACQUIRE(...) SYNTS_TSA(try_acquire_capability(__VA_ARGS__))
#define SYNTS_EXCLUDES(...) SYNTS_TSA(locks_excluded(__VA_ARGS__))
#define SYNTS_RETURN_CAPABILITY(mutex) SYNTS_TSA(lock_returned(mutex))
#define SYNTS_NO_THREAD_SAFETY_ANALYSIS SYNTS_TSA(no_thread_safety_analysis)

namespace synts::util {

/// std::mutex plus a capability attribute and a lock rank. Release builds
/// carry no extra state and every member inlines to the std::mutex call.
class SYNTS_CAPABILITY("mutex") annotated_mutex {
public:
#if SYNTS_LOCK_RANK_CHECKS
    annotated_mutex(lock_rank rank, const char* name) : rank_(rank), name_(name)
    {
        lock_rank_detail::note_created(this, rank_, name_);
    }

    ~annotated_mutex() { lock_rank_detail::note_destroyed(this); }
#else
    annotated_mutex(lock_rank, const char*) noexcept {}

    ~annotated_mutex() = default;
#endif

    annotated_mutex(const annotated_mutex&) = delete;
    annotated_mutex& operator=(const annotated_mutex&) = delete;

    void lock() SYNTS_ACQUIRE()
    {
#if SYNTS_LOCK_RANK_CHECKS
        // Checked BEFORE blocking: a rank inversion aborts with both names
        // instead of deadlocking against the thread holding the other lock.
        lock_rank_detail::note_acquired(rank_, name_);
#endif
        mutex_.lock();
    }

    bool try_lock() SYNTS_TRY_ACQUIRE(true)
    {
        if (!mutex_.try_lock()) {
            return false;
        }
#if SYNTS_LOCK_RANK_CHECKS
        // A successful try_lock establishes the same ordering edge a
        // blocking lock would, so it is held to the same rank discipline.
        lock_rank_detail::note_acquired(rank_, name_);
#endif
        return true;
    }

    void unlock() SYNTS_RELEASE()
    {
        mutex_.unlock();
#if SYNTS_LOCK_RANK_CHECKS
        lock_rank_detail::note_released(rank_, name_);
#endif
    }

private:
    std::mutex mutex_;
#if SYNTS_LOCK_RANK_CHECKS
    lock_rank rank_;
    const char* name_;
#endif
};

/// std::shared_mutex counterpart. Shared (reader) acquisitions obey the
/// same rank order as exclusive ones: a reader blocking behind a writer
/// creates the same wait-for edge.
class SYNTS_CAPABILITY("shared_mutex") annotated_shared_mutex {
public:
#if SYNTS_LOCK_RANK_CHECKS
    annotated_shared_mutex(lock_rank rank, const char* name) : rank_(rank), name_(name)
    {
        lock_rank_detail::note_created(this, rank_, name_);
    }

    ~annotated_shared_mutex() { lock_rank_detail::note_destroyed(this); }
#else
    annotated_shared_mutex(lock_rank, const char*) noexcept {}

    ~annotated_shared_mutex() = default;
#endif

    annotated_shared_mutex(const annotated_shared_mutex&) = delete;
    annotated_shared_mutex& operator=(const annotated_shared_mutex&) = delete;

    void lock() SYNTS_ACQUIRE()
    {
#if SYNTS_LOCK_RANK_CHECKS
        lock_rank_detail::note_acquired(rank_, name_);
#endif
        mutex_.lock();
    }

    void unlock() SYNTS_RELEASE()
    {
        mutex_.unlock();
#if SYNTS_LOCK_RANK_CHECKS
        lock_rank_detail::note_released(rank_, name_);
#endif
    }

    void lock_shared() SYNTS_ACQUIRE_SHARED()
    {
#if SYNTS_LOCK_RANK_CHECKS
        lock_rank_detail::note_acquired(rank_, name_);
#endif
        mutex_.lock_shared();
    }

    void unlock_shared() SYNTS_RELEASE_SHARED()
    {
        mutex_.unlock_shared();
#if SYNTS_LOCK_RANK_CHECKS
        lock_rank_detail::note_released(rank_, name_);
#endif
    }

private:
    std::shared_mutex mutex_;
#if SYNTS_LOCK_RANK_CHECKS
    lock_rank rank_;
    const char* name_;
#endif
};

/// Scope-bound exclusive lock (the std::lock_guard replacement).
class SYNTS_SCOPED_CAPABILITY mutex_lock {
public:
    explicit mutex_lock(annotated_mutex& mutex) SYNTS_ACQUIRE(mutex) : mutex_(mutex)
    {
        mutex_.lock();
    }

    ~mutex_lock() SYNTS_RELEASE() { mutex_.unlock(); }

    mutex_lock(const mutex_lock&) = delete;
    mutex_lock& operator=(const mutex_lock&) = delete;

private:
    annotated_mutex& mutex_;
};

/// Scope-bound shared (reader) lock.
class SYNTS_SCOPED_CAPABILITY shared_mutex_lock {
public:
    explicit shared_mutex_lock(annotated_shared_mutex& mutex) SYNTS_ACQUIRE_SHARED(mutex)
        : mutex_(mutex)
    {
        mutex_.lock_shared();
    }

    ~shared_mutex_lock() SYNTS_RELEASE() { mutex_.unlock_shared(); }

    shared_mutex_lock(const shared_mutex_lock&) = delete;
    shared_mutex_lock& operator=(const shared_mutex_lock&) = delete;

private:
    annotated_shared_mutex& mutex_;
};

/// Scope-bound exclusive lock that std::condition_variable_any can wait
/// on. The BasicLockable surface (lock/unlock) is deliberately free of
/// acquire/release annotations: the condition variable releases and
/// reacquires around the wait, and the analysis models the capability as
/// held across it (the abseil CondVar model). The lock-rank stack still
/// sees the real release/reacquire through annotated_mutex itself.
class SYNTS_SCOPED_CAPABILITY cv_mutex_lock {
public:
    explicit cv_mutex_lock(annotated_mutex& mutex) SYNTS_ACQUIRE(mutex) : mutex_(mutex)
    {
        mutex_.lock();
    }

    ~cv_mutex_lock() SYNTS_RELEASE() { mutex_.unlock(); }

    cv_mutex_lock(const cv_mutex_lock&) = delete;
    cv_mutex_lock& operator=(const cv_mutex_lock&) = delete;

    void lock() SYNTS_NO_THREAD_SAFETY_ANALYSIS { mutex_.lock(); }

    void unlock() SYNTS_NO_THREAD_SAFETY_ANALYSIS { mutex_.unlock(); }

private:
    annotated_mutex& mutex_;
};

} // namespace synts::util
