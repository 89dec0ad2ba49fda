// experiment_cache.h -- multi-tier, process-wide memoization of the staged
// characterization pipeline.
//
// benchmark_experiment construction is the heavyweight step of every figure
// bench. The seed tree re-ran it from scratch for every (figure, policy)
// block; PR 1 memoized whole experiments on (benchmark, stage, digest). This
// version splits the cache along the pipeline's phase boundary:
//
//   program tier  (benchmark, workload_digest) -> program_artifacts
//       the generated SPLASH-2 trace + per-thread architectural profiles --
//       everything stage-INDEPENDENT. All three pipe stages of a benchmark
//       (and any configs differing only in sampling/histogram/energy/
//       voltage knobs) share one entry, so the trace is generated and the
//       architectural profiler run exactly once per workload.
//   stage tier    (benchmark, stage, digest)   -> benchmark_experiment
//       the per-stage characterization + config space + error models,
//       constructed FROM the program tier's artifacts.
//   disk tier     (optional; attach_store)     -> storage::artifact_store
//       a process-SURVIVING tier below the program tier. A program-tier
//       miss falls through memory -> disk -> compute: the store is probed
//       for a serialized artifact frame keyed by the same program_key
//       digest; a decodable frame whose stamped provenance matches the
//       request is adopted (a disk hit -- no trace generation, no profiler
//       run), anything else (absent, truncated, bit-flipped, wrong
//       version, wrong digest) counts as a disk miss and the freshly
//       computed artifacts are written back atomically. Deserialized
//       artifacts are bit-identical to computed ones, so the tier never
//       changes what a key maps to -- it only changes how fast.
//
// Both tiers use the same discipline:
//
//   * the key->entry map is sharded and mutex-striped, so lookups from many
//     sweep workers don't serialize on one lock;
//   * each entry is a shared_future: the first caller constructs *outside*
//     the shard lock while later callers block on the future, so a popular
//     key is constructed exactly once and never holds up unrelated keys.
//     Construction happens on the calling thread (never deferred to a pool
//     task), so waiting cannot deadlock a fully-busy pool. Pool-parallel
//     construction preserves this: parallel_for is self-claiming (the
//     constructing thread completes the fan-out alone if no worker is
//     free, and never executes a foreign task that could block on the very
//     entry it is mid-constructing);
//   * a constructor exception is rethrown to every waiter and the entry is
//     dropped so a later call can retry. A workload-level failure therefore
//     leaves BOTH tiers empty (the stage factory invokes the program tier,
//     and each tier erases its own failed entry).
//
// Passing a thread_pool to get_or_create fans the *inside* of a miss's
// construction (trace generation, profiling, per-(thread, interval) timing
// simulation) out across the pool; results are bit-identical to serial
// construction, so the pool choice never affects what a key maps to.
//
// The cached experiment is shared as shared_ptr<const ...>: every consumer
// path (run_policy, pareto_sweep, make_solver_input) is const and free of
// hidden mutable state, so one instance may serve all workers.

#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <future>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "util/hashing.h"

namespace synts::storage {
class artifact_store;
}

namespace synts::runtime {

/// Stage-tier key: what uniquely determines a characterized experiment.
/// The workload axis is the registry key (workload/registry.h), not an enum
/// ordinal, so any registered workload -- built-in SPLASH-2 profile or
/// parametric scenario instance -- gets its own entries.
struct experiment_key {
    workload::workload_key workload;
    circuit::pipe_stage stage = circuit::pipe_stage::decode;
    std::uint64_t config_digest = 0;

    friend bool operator==(const experiment_key&, const experiment_key&) = default;

    [[nodiscard]] std::uint64_t digest() const noexcept
    {
        util::digest_builder h;
        h.u64(workload.id);
        h.text(workload.name);
        h.value(stage);
        h.value(config_digest);
        return h.digest();
    }
};

/// Program-tier key: what uniquely determines the stage-independent
/// artifacts (see experiment_config::workload_digest()). Its digest() is
/// also the persistent store key of the artifact frame, so it must stay
/// stable across processes (both fields already are).
struct program_key {
    workload::workload_key workload;
    std::uint64_t workload_digest = 0;

    friend bool operator==(const program_key&, const program_key&) = default;

    [[nodiscard]] std::uint64_t digest() const noexcept
    {
        util::digest_builder h;
        h.u64(workload.id);
        h.text(workload.name);
        h.value(workload_digest);
        return h.digest();
    }
};

/// Hit/miss counters of one memo tier, attributable to one caller.
struct tier_traffic {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
};

/// Per-caller cache-traffic attribution sink. The cache keeps no counters
/// of its own; every lookup bumps the process-wide registry counters
/// (cache.tier<N>.*), which two sweeps sharing one cache (or a sweep
/// running while another thread warms the cache) cannot untangle by
/// differencing -- the windows overlap and every count lands in both. A
/// caller that needs attribution-correct numbers passes its own sink
/// through get_or_create; every lookup then increments BOTH the registry
/// and the caller's sink, and the sink sees exactly the traffic of the
/// calls made with it. Waiting on another caller's in-flight construction
/// counts as a hit here (this caller was served without doing the work);
/// the constructing caller owns the miss and any disk traffic / compute it
/// triggers.
struct cache_traffic {
    tier_traffic stage;
    tier_traffic program;
    std::atomic<std::uint64_t> disk_hits{0};
    std::atomic<std::uint64_t> disk_misses{0};
    /// Times the expensive pipeline (trace generation + architectural
    /// profiling) ran on behalf of this caller. Counted directly at the
    /// compute site -- never derived by subtracting counters, so it cannot
    /// wrap however the windows overlap.
    std::atomic<std::uint64_t> program_computes{0};
};

/// One sharded, mutex-striped shared-future memo level. Key must provide
/// digest() and operator==; Ptr is the shared_ptr the factory produces.
template <typename Key, typename Ptr>
class memo_tier {
public:
    /// `shard_count` is rounded up to a power of two (the shard mask
    /// requires it), minimum 1. `registry_hits`/`registry_misses` are the
    /// process-wide registry counters every lookup bumps; they must outlive
    /// the tier.
    memo_tier(std::size_t shard_count, obs::counter& registry_hits,
              obs::counter& registry_misses)
        : registry_hits_(registry_hits), registry_misses_(registry_misses)
    {
        shard_count = std::bit_ceil(shard_count == 0 ? std::size_t{1} : shard_count);
        shards_.reserve(shard_count);
        for (std::size_t i = 0; i < shard_count; ++i) {
            shards_.push_back(std::make_unique<shard>());
        }
    }

    /// Returns the entry of `key`, invoking `factory()` on this thread if
    /// absent. Blocks when another thread is mid-construction of the same
    /// key; a factory exception is rethrown to every waiter and the entry
    /// dropped so a later call can retry. `sink`, when given, receives the
    /// call's hit/miss in addition to the registry counters (see
    /// cache_traffic).
    template <typename Factory>
    [[nodiscard]] Ptr get_or_create(const Key& key, Factory&& factory,
                                    tier_traffic* sink = nullptr)
    {
        shard& home = shard_for(key);

        std::promise<Ptr> construction;
        std::shared_future<Ptr> entry;
        bool owner = false;
        {
            const util::mutex_lock lock(home.mutex);
            auto it = home.entries.find(key);
            if (it != home.entries.end()) {
                entry = it->second;
            } else {
                entry = construction.get_future().share();
                home.entries.emplace(key, entry);
                owner = true;
            }
        }

        if (!owner) {
            registry_hits_.add(1);
            if (sink != nullptr) {
                sink->hits.fetch_add(1, std::memory_order_relaxed);
            }
            return entry.get(); // blocks while the owner constructs
        }

        registry_misses_.add(1);
        if (sink != nullptr) {
            sink->misses.fetch_add(1, std::memory_order_relaxed);
        }
        try {
            construction.set_value(factory());
        } catch (...) {
            construction.set_exception(std::current_exception());
            {
                const util::mutex_lock lock(home.mutex);
                home.entries.erase(key);
            }
            throw;
        }
        return entry.get();
    }

    [[nodiscard]] std::size_t size() const
    {
        std::size_t total = 0;
        for (const auto& s : shards_) {
            shard& home = *s;
            const util::mutex_lock lock(home.mutex);
            total += home.entries.size();
        }
        return total;
    }

    void clear()
    {
        for (const auto& s : shards_) {
            shard& home = *s;
            const util::mutex_lock lock(home.mutex);
            home.entries.clear();
        }
    }

private:
    struct key_hash {
        std::size_t operator()(const Key& key) const noexcept
        {
            return static_cast<std::size_t>(key.digest());
        }
    };
    struct shard {
        /// Held only for map operations -- factories run outside, waiters
        /// block on the shared_future, never on the shard. A leaf below
        /// pool_queue (enqueue never runs under a shard lock).
        util::annotated_mutex mutex{util::lock_rank::cache_shard,
                                    "experiment_cache.shard"};
        std::unordered_map<Key, std::shared_future<Ptr>, key_hash> entries
            SYNTS_GUARDED_BY(mutex);
    };

    [[nodiscard]] shard& shard_for(const Key& key) noexcept
    {
        // Re-mix so shard choice and bucket choice use decorrelated bits.
        return *shards_[util::hash_mix(key.digest(), shards_.size()) &
                        (shards_.size() - 1)];
    }

    std::vector<std::unique_ptr<shard>> shards_;
    obs::counter& registry_hits_;
    obs::counter& registry_misses_;
};

/// The two-tier experiment memo (see file comment).
class experiment_cache {
public:
    using experiment_ptr = std::shared_ptr<const core::benchmark_experiment>;
    using program_ptr = std::shared_ptr<const core::program_artifacts>;

    /// `shard_count` is rounded up to a power of two (default 16) and used
    /// for both tiers.
    explicit experiment_cache(std::size_t shard_count = 16);

    experiment_cache(const experiment_cache&) = delete;
    experiment_cache& operator=(const experiment_cache&) = delete;

    /// Returns the cached experiment for (workload, stage, config),
    /// constructing it on this thread if absent -- sourcing the
    /// stage-independent artifacts from the program tier, so a stage miss
    /// only pays for the per-stage work when the workload is already
    /// resident. benchmark_id call sites convert implicitly. `pool`, when
    /// given, parallelizes a miss's construction (bit-identical results
    /// either way) and must outlive the call. `traffic`, when given,
    /// receives this call's traffic on every tier it touches, so callers
    /// sharing the cache can attribute hits/misses/computes to themselves
    /// (see cache_traffic).
    [[nodiscard]] experiment_ptr get_or_create(const workload::workload_key& workload,
                                               circuit::pipe_stage stage,
                                               const core::experiment_config& config = {},
                                               thread_pool* pool = nullptr,
                                               cache_traffic* traffic = nullptr);

    /// Returns the cached stage-independent artifacts for
    /// (workload, config.workload_digest()), constructing them on this
    /// thread if absent. With a store attached, a memory miss probes the
    /// disk tier before computing (see file comment). `traffic` as above.
    [[nodiscard]] program_ptr
    get_or_create_program(const workload::workload_key& workload,
                          const core::experiment_config& config = {},
                          thread_pool* pool = nullptr,
                          cache_traffic* traffic = nullptr);

    /// Attaches (or, with nullptr, detaches) the persistent disk tier.
    /// Not synchronized against in-flight lookups: attach before handing
    /// the cache to workers. The store may be shared with other caches and
    /// processes; see artifact_store for the torn-write guarantees.
    void attach_store(std::shared_ptr<storage::artifact_store> store) noexcept
    {
        store_ = std::move(store);
    }

    /// The attached disk tier, or nullptr.
    [[nodiscard]] const std::shared_ptr<storage::artifact_store>& store() const noexcept
    {
        return store_;
    }

    /// Stage-tier entries currently resident (settled or under
    /// construction).
    [[nodiscard]] std::size_t size() const { return stage_tier_.size(); }
    /// Program-tier entries currently resident.
    [[nodiscard]] std::size_t program_size() const { return program_tier_.size(); }

    /// Drops every entry of both tiers (in-flight constructions settle
    /// their waiters normally; the results are just no longer retained).
    void clear();

    /// The process-wide cache shared by the benches and the runner CLI.
    [[nodiscard]] static experiment_cache& process_cache();

private:
    memo_tier<experiment_key, experiment_ptr> stage_tier_;
    memo_tier<program_key, program_ptr> program_tier_;
    std::shared_ptr<storage::artifact_store> store_;

    // Registry instruments (cache.tier<N>.* taxonomy: tier1 = stage memo,
    // tier2 = program memo, tier3 = disk). memo_tier bumps the hit/miss
    // counters of tiers 1 and 2; these cover the disk tier, the compute
    // count, and the gated latency histograms.
    obs::counter* obs_disk_hits_;
    obs::counter* obs_disk_misses_;
    obs::counter* obs_computes_;
    obs::latency_histogram* obs_stage_build_ns_;
    obs::latency_histogram* obs_compute_ns_;
    obs::latency_histogram* obs_disk_load_ns_;
};

} // namespace synts::runtime
