// bench_locks -- the annotated-mutex overhead gate.
//
// The thread-safety contract (util/thread_safety.h) is "zero overhead in
// release": with the lock-rank checks compiled out, annotated_mutex is
// layout-identical to std::mutex and every lock()/unlock() must inline to
// the bare call. This bench measures an uncontended lock/unlock pair and a
// correctly-ordered two-level nesting both ways -- bare std::mutex vs
// annotated_mutex -- interleaved round-robin (thermal / frequency drift
// hits both variants equally), best-of over rounds, and GATES
// annotated-over-bare at <= 2% when the checks are compiled out. A
// regression (someone making the rank bookkeeping unconditional, say)
// exits non-zero and fails CI instead of landing silently.
//
// When SYNTS_LOCK_RANK_CHECKS is on (debug builds, -DSYNTS_LOCK_RANK=ON)
// the bookkeeping is resident BY DESIGN, so the ratio is reported for
// information and the gate passes vacuously -- the zero-overhead claim is
// about release builds only.
//
// Output: one JSON document on stdout (scripts/run_benches.sh captures it
// as BENCH_locks.json). Human-readable progress goes to stderr.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex> // synts-lint: allow(raw-mutex) -- the bare baseline under test

#include "util/thread_safety.h"

namespace {

using namespace synts;

constexpr double overhead_gate = 1.02; // <= 2% over bare (release only)
constexpr int rounds = 9;
constexpr std::uint64_t iterations = 2'000'000;

/// A token amount of guarded work so the loop is not pure lock traffic and
/// the compiler cannot fuse adjacent unlock/lock pairs.
inline std::uint64_t body(std::uint64_t x) noexcept
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

double bare_ns_per_iter(std::uint64_t& sink)
{
    std::mutex outer;                   // synts-lint: allow(raw-mutex)
    std::mutex inner;                   // synts-lint: allow(raw-mutex)
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        {
            const std::lock_guard lock(outer); // synts-lint: allow(raw-mutex)
            x = body(x);
        }
        {
            const std::lock_guard a(outer);    // synts-lint: allow(raw-mutex)
            const std::lock_guard b(inner);    // synts-lint: allow(raw-mutex)
            x = body(x);
        }
    }
    sink ^= x;
    return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                                    t0)
               .count() /
           static_cast<double>(iterations);
}

double annotated_ns_per_iter(std::uint64_t& sink)
{
    util::annotated_mutex outer(util::lock_rank::pool_queue, "bench.outer");
    util::annotated_mutex inner(util::lock_rank::cache_shard, "bench.inner");
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        {
            const util::mutex_lock lock(outer);
            x = body(x);
        }
        {
            const util::mutex_lock a(outer);
            const util::mutex_lock b(inner);
            x = body(x);
        }
    }
    sink ^= x;
    return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                                    t0)
               .count() /
           static_cast<double>(iterations);
}

} // namespace

int main()
{
    std::uint64_t sink = 0;
    double bare = 1e300;
    double annotated = 1e300;

    // Warmup round (not recorded), then best-of over interleaved rounds.
    (void)bare_ns_per_iter(sink);
    (void)annotated_ns_per_iter(sink);
    for (int round = 0; round < rounds; ++round) {
        bare = std::min(bare, bare_ns_per_iter(sink));
        annotated = std::min(annotated, annotated_ns_per_iter(sink));
        std::fprintf(stderr, "round %d/%d: bare %.2f ns, annotated %.2f ns\n",
                     round + 1, rounds, bare, annotated);
    }

    const double annotated_over_bare = annotated / bare;
    const bool checks_enabled = SYNTS_LOCK_RANK_CHECKS != 0;
    // The gate binds only where the contract claims zero overhead.
    const bool pass = checks_enabled || annotated_over_bare <= overhead_gate;

    std::printf("{\n");
    std::printf("  \"bench\": \"lock_overhead\",\n");
    std::printf("  \"iterations\": %llu,\n",
                static_cast<unsigned long long>(iterations));
    std::printf("  \"rounds\": %d,\n", rounds);
    std::printf("  \"rank_checks_enabled\": %s,\n", checks_enabled ? "true" : "false");
    std::printf("  \"bare_ns_per_iter\": %.4f,\n", bare);
    std::printf("  \"annotated_ns_per_iter\": %.4f,\n", annotated);
    std::printf("  \"annotated_over_bare\": %.4f,\n", annotated_over_bare);
    std::printf("  \"gate\": %.2f,\n", overhead_gate);
    std::printf("  \"pass\": %s,\n", pass ? "true" : "false");
    // The sink defeats dead-code elimination; recorded so it is "used".
    std::printf("  \"checksum\": %llu\n", static_cast<unsigned long long>(sink));
    std::printf("}\n");

    if (!pass) {
        std::fprintf(stderr,
                     "FAIL: annotated mutex costs %.1f%% over bare std::mutex "
                     "in a release build (gate %.0f%%)\n",
                     (annotated_over_bare - 1.0) * 100.0,
                     (overhead_gate - 1.0) * 100.0);
        return 1;
    }
    if (checks_enabled) {
        std::fprintf(stderr,
                     "PASS (informational): rank checks enabled, annotated "
                     "%.1f%% over bare; the release gate does not apply\n",
                     (annotated_over_bare - 1.0) * 100.0);
    } else {
        std::fprintf(stderr, "PASS: annotated mutex %.2f%% over bare std::mutex\n",
                     (annotated_over_bare - 1.0) * 100.0);
    }
    return 0;
}
