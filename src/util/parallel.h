// parallel.h -- layer-neutral parallel-for hook.
//
// The characterization pipeline (workload generation, architectural
// profiling, per-interval timing simulation) lives below the runtime layer,
// so it cannot name runtime::thread_pool directly. Instead each phase takes
// a `parallel_for_fn`: a type-erased "run body(i) for every i in [0, count)"
// executor. The runtime adapts its thread pool to this signature
// (runtime::make_parallel_for); an empty function means serial execution.
//
// Contract for implementations: body(i) is invoked exactly once per index,
// on any thread, in any order, and the call must not return until every
// index has completed. Callers guarantee body is safe to run concurrently
// for distinct indices and that results land in pre-assigned slots, so the
// output is bit-identical regardless of schedule.

#pragma once

#include <cstddef>
#include <functional>

namespace synts::util {

/// Type-erased parallel-for executor (see file comment for the contract).
using parallel_for_fn =
    std::function<void(std::size_t count, const std::function<void(std::size_t)>& body)>;

/// Runs `body` over [0, count): through `parallel` when set, serially in
/// index order otherwise.
inline void for_each_index(const parallel_for_fn& parallel, std::size_t count,
                           const std::function<void(std::size_t)>& body)
{
    if (parallel) {
        parallel(count, body);
        return;
    }
    for (std::size_t i = 0; i < count; ++i) {
        body(i);
    }
}

} // namespace synts::util
