// sweep.h -- declarative experiment sweeps over the thread pool.
//
// A sweep_spec names WHAT to evaluate: a set of (benchmark, stage) pairs
// (explicitly, or as a benchmarks x stages cross product), a set of
// policies, and an optional theta-multiplier ladder. The sweep_scheduler
// decides HOW: it expands the spec into one task per (benchmark, stage)
// pair -- the pair's characterization, theta_eq and Nominal baseline are
// computed once and shared across its policy cells -- runs the tasks on a
// thread_pool, memoizes the heavyweight characterizations in
// an experiment_cache (each (benchmark, stage, config) is characterized
// once no matter how many specs or figures consume it), and aggregates the
// cells in a deterministic, schedule-independent order.
//
// Determinism contract: every cell's numbers are produced by the same
// const code path the serial benches use (equal_weight_theta, run_policy,
// pareto_sweep on an identically-constructed benchmark_experiment), tasks
// share no mutable state, and results land in pre-assigned slots -- so a
// sweep's output is bit-identical across runs, worker counts, and the
// serial path. Each cell also carries a `task_seed` stream tag derived from
// (config.seed, cell index) via hash_mix, for future stochastic policies;
// nothing in the current policies draws from it.

#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "runtime/experiment_cache.h"
#include "runtime/thread_pool.h"

namespace synts::storage {
class artifact_store;
}

namespace synts::runtime {

/// One (workload, stage) evaluation target. Workloads are registry keys
/// (workload/registry.h); benchmark_id literals convert implicitly.
using benchmark_stage = std::pair<workload::workload_key, circuit::pipe_stage>;

/// One process's slice of a sharded sweep: shard `index` of `count` owns
/// every expanded pair p with p % count == index (pair-granular round
/// robin -- a pair's characterization is never split across processes).
/// The partition is a pure function of (index, count), so N runner
/// processes pointed at one spec and one shared artifact store cover every
/// cell exactly once with no coordination beyond the store itself.
struct sweep_shard {
    std::size_t index = 0;
    std::size_t count = 1;

    /// True when this shard owns expanded pair `pair` (its GLOBAL index).
    [[nodiscard]] bool owns_pair(std::size_t pair) const noexcept
    {
        return count != 0 && pair % count == index;
    }

    friend bool operator==(const sweep_shard&, const sweep_shard&) = default;
};

/// Declarative description of a batched sweep.
struct sweep_spec {
    /// Cross-product axes (used when `pairs` is empty). Any registered
    /// workload key -- built-in SPLASH-2 profile or parametric scenario
    /// instance -- is a valid axis value.
    std::vector<workload::workload_key> benchmarks;
    std::vector<circuit::pipe_stage> stages;
    /// Explicit pair list; when non-empty it replaces the cross product
    /// (the figure benches plot hand-picked pairs, not a full grid).
    std::vector<benchmark_stage> pairs;

    /// Policies evaluated per pair.
    std::vector<core::policy_kind> policies;

    /// Theta ladder as multipliers of each experiment's equal-weight theta.
    /// Empty = no Pareto sweep; cells then carry only the equal-weight run.
    std::vector<double> theta_multipliers;

    /// Experiment construction knobs (seed, thread count, models).
    core::experiment_config config{};

    /// The pairs this spec expands to (explicit list or cross product).
    [[nodiscard]] std::vector<benchmark_stage> expanded_pairs() const;

    /// Number of (pair, policy) result cells the sweep expands to.
    [[nodiscard]] std::size_t task_count() const;

    /// Stable digest over everything that determines the sweep's cells:
    /// the config digest, the expanded pair list, the policy list, and the
    /// theta ladder. Two specs with equal digests expand to cell-for-cell
    /// identical sweeps, so checkpointed cells are keyed on
    /// (spec digest, cell index) -- any spec edit changes every key and a
    /// stale checkpoint can never be resumed into the wrong sweep.
    [[nodiscard]] std::uint64_t digest() const;

    /// Deterministic pair-granular partition for multi-process sweeps:
    /// shard i of n owns pairs {p : p % n == i} of expanded_pairs(), with
    /// their global indices preserved -- so every owned cell's
    /// `task_seed = hash_mix(seed, index)` and checkpoint key
    /// (spec digest, index) are byte-identical to the unsharded run's.
    /// Throws std::invalid_argument when count == 0 or index >= count
    /// (count larger than the pair list is fine: trailing shards are
    /// legitimately empty).
    [[nodiscard]] sweep_shard shard(std::size_t index, std::size_t count) const;
};

/// Checkpoint key of cell `index` of a spec (see sweep_spec::digest()).
[[nodiscard]] std::uint64_t sweep_cell_digest(std::uint64_t spec_digest,
                                              std::size_t index) noexcept;

/// Fully evaluated (workload, stage, policy) cell.
struct sweep_cell {
    workload::workload_key workload;
    circuit::pipe_stage stage = circuit::pipe_stage::decode;
    core::policy_kind policy = core::policy_kind::nominal;

    /// The experiment's equal-weight theta (shared by the pair's cells).
    double theta_eq = 0.0;
    /// Deterministic per-cell RNG stream tag (see header comment).
    std::uint64_t task_seed = 0;

    /// Policy run at theta_eq (the Fig. 6.18 operating point).
    core::benchmark_experiment::policy_run equal_weight;
    /// Pareto front over spec.theta_multipliers (empty when no ladder),
    /// index-aligned with the ladder; identical to core::pareto_sweep.
    std::vector<core::pareto_point> pareto;
};

/// Aggregated sweep outcome, cell order = pair-major, policy-minor (the
/// spec's declaration order, independent of execution schedule).
struct sweep_result {
    sweep_spec spec;
    /// The FULL spec's digest -- the checkpoint keying identity
    /// (sweep_cell_digest(spec_digest, index)). Carried explicitly because
    /// a shard run's `spec` echo is reduced to the owned pairs (whose own
    /// digest() differs); every run of one sweep -- unsharded, any shard,
    /// or merged -- reports the same value here, and it is what the JSON
    /// document emits.
    std::uint64_t spec_digest = 0;
    std::vector<sweep_cell> cells;
    double wall_seconds = 0.0;
    /// Stage-tier cache traffic attributable to this sweep.
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    /// Program-tier (shared artifacts) cache traffic attributable to this
    /// sweep. misses == lookups not served by memory; of those, disk_hits
    /// were served by the persistent store and program_computes actually
    /// generated the trace and ran the profiler.
    std::uint64_t program_cache_hits = 0;
    std::uint64_t program_cache_misses = 0;
    /// Disk-tier (persistent artifact store) traffic attributable to this
    /// sweep; both zero when no store is attached to the cache.
    std::uint64_t disk_hits = 0;
    std::uint64_t disk_misses = 0;
    /// Trace generations + profiler runs this sweep actually performed.
    std::uint64_t program_computes = 0;
    /// True when the run had a checkpoint store (sweep_options::store).
    bool checkpointing = false;
    /// Checkpoint traffic: cells adopted from the store (resume) and cells
    /// computed then persisted this run; both zero without a store.
    std::uint64_t cells_loaded = 0;
    std::uint64_t cells_stored = 0;

    /// Cells that went through compute because no usable checkpoint
    /// covered them; 0 when the run had no store at all. Guarded against
    /// underflow: a merge or layout mismatch can legitimately present
    /// cells_loaded > cells.size(), which on the unsigned types would wrap
    /// to ~2^64 -- such a state reports 0 missed, never a wrapped count.
    [[nodiscard]] std::uint64_t cells_missed() const noexcept
    {
        if (!checkpointing || cells_loaded >= cells.size()) {
            return 0;
        }
        return cells.size() - cells_loaded;
    }

    /// The cell of (workload, stage, policy), or nullptr.
    [[nodiscard]] const sweep_cell* find(const workload::workload_key& workload,
                                         circuit::pipe_stage stage,
                                         core::policy_kind policy) const noexcept;
};

/// Checkpointing knobs for sweep_scheduler::run. The constructors keep
/// the brace-positional {store, resume} spelling of the test/bench call
/// sites working now that the struct has grown a shard field (aggregate
/// init with missing trailing fields trips -Wmissing-field-initializers).
struct sweep_options {
    sweep_options() = default;
    sweep_options(storage::artifact_store* store, bool resume = false,
                  std::optional<sweep_shard> shard = std::nullopt)
        : store(store), resume(resume), shard(std::move(shard))
    {
    }

    /// Checkpoint store override. When null (the default), the run uses
    /// the store attached to the scheduler's experiment_cache -- attaching
    /// once via experiment_cache::attach_store enables BOTH the artifact
    /// disk tier and cell checkpointing, so the feature cannot be silently
    /// half-wired. When set, every computed cell is persisted (atomic
    /// write-back) as it finishes, keyed on (spec digest, cell index) -- a
    /// killed sweep leaves its finished cells behind. Must outlive the run.
    storage::artifact_store* store = nullptr;
    /// With `store`: cells already materialized (decodable, matching
    /// (benchmark, stage, policy)) are adopted instead of recomputed, so a
    /// restarted sweep re-runs only the missing cells. A pair whose every
    /// cell is checkpointed skips its characterization entirely. Off by
    /// default so a warm re-run still exercises (and thus re-verifies) the
    /// evaluation path -- it then recomputes cells from disk-tier
    /// artifacts, bit-identically, with zero trace generations.
    bool resume = false;
    /// When set, the run computes ONLY the pairs the shard owns (see
    /// sweep_spec::shard), checkpoints them under their global cell
    /// indices, and records a shard manifest + the sweep's shard layout in
    /// the store, so N processes sharing one store jointly cover the spec
    /// and merge_sweep_shards can assemble the full result. Requires a
    /// store (explicit or cache-attached) -- a shard run's only durable
    /// product is its checkpoints. A layout already recorded for this spec
    /// with a different shard count is a conflicting (overlapping)
    /// sharding and fails the run with shard_error.
    std::optional<sweep_shard> shard;
};

/// Raised when sharded-sweep bookkeeping refuses to proceed: a shard run
/// against a store whose recorded layout for the spec disagrees, or a
/// merge over manifests that are missing, foreign (different spec),
/// malformed, or mismatched with the requested spec. The runner CLI maps
/// this to a usage-style exit (2): the store's contents and the request
/// disagree, and no data was harmed.
class shard_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Store key of the shard-layout frame of a spec (manifest bucket).
[[nodiscard]] std::uint64_t shard_layout_digest(std::uint64_t spec_digest) noexcept;

/// Store key of shard (index, count)'s completion manifest (manifest
/// bucket).
[[nodiscard]] std::uint64_t shard_manifest_digest(std::uint64_t spec_digest,
                                                  std::size_t shard_count,
                                                  std::size_t shard_index) noexcept;

/// Persistent record of a sharded sweep in an artifact store, serialized
/// as a storage frame (storage/serialize.h). Two uses share the struct:
///
///   * the LAYOUT frame, at shard_layout_digest(spec_digest): declares how
///     the spec is sharded in this store (shard_index == shard_count, the
///     one value no real shard can have, marks the frame as layout;
///     cell_count is the spec's TOTAL cell count). Every shard run
///     publishes it and refuses to start when an existing layout
///     disagrees, so overlapping partitions of one spec cannot interleave
///     in one store;
///   * per-shard completion frames, at shard_manifest_digest(...): written
///     only after every cell the shard owns is durably checkpointed
///     (cell_count = the shard's OWN cell count). merge_sweep_shards
///     requires all `shard_count` of them.
struct shard_manifest {
    std::uint64_t spec_digest = 0;
    std::uint32_t shard_count = 1;
    std::uint32_t shard_index = 0;
    std::uint64_t cell_count = 0;

    friend bool operator==(const shard_manifest&, const shard_manifest&) = default;
};

/// Store key of shard (index, count)'s live progress frame (manifest
/// bucket). Distinct from the completion-manifest key so progress updates
/// never race the completion attestation.
[[nodiscard]] std::uint64_t shard_progress_digest(std::uint64_t spec_digest,
                                                  std::size_t shard_count,
                                                  std::size_t shard_index) noexcept;

/// Live progress of one shard (or of an unsharded checkpointing run, which
/// publishes as shard 0 of 1): how many of the cells it owns are durably in
/// the store so far. The scheduler republishes the frame (atomic
/// rename-over, throttled to ~4 Hz plus a guaranteed final publish) as the
/// run advances, so `synts_runner --status` can render a fleet view of a
/// sweep mid-flight without touching the processes. cells_done counts
/// restored + stored cells -- exactly the durable ones; the completion
/// manifest, not this frame, is what the merge trusts.
struct shard_progress {
    std::uint64_t spec_digest = 0;
    std::uint32_t shard_count = 1;
    std::uint32_t shard_index = 0;
    std::uint64_t cells_owned = 0;
    std::uint64_t cells_done = 0;

    friend bool operator==(const shard_progress&, const shard_progress&) = default;
};

/// Assembles the full sweep_result of `spec` from the checkpoints sharded
/// runs left in `store`: verifies the layout frame and every shard's
/// completion manifest (spec digest, shard count, per-shard cell counts),
/// then loads all cells. Throws shard_error when the store does not hold a
/// complete, layout-consistent shard set FOR THIS SPEC; the assembled
/// result is bit-identical to an unsharded run's (same cells, same
/// task_seeds), so its JSON document byte-matches the single-process one.
[[nodiscard]] sweep_result merge_sweep_shards(const sweep_spec& spec,
                                              const storage::artifact_store& store);

/// Expands sweep_specs into pool tasks and aggregates the results.
class sweep_scheduler {
public:
    /// Both the pool and the cache must outlive the scheduler.
    sweep_scheduler(thread_pool& pool, experiment_cache& cache)
        : pool_(&pool), cache_(&cache)
    {
    }

    /// Runs every cell of `spec` (or, with options.shard, exactly the
    /// owned slice); blocks until done. The first cell exception (in cell
    /// order) is rethrown after all tasks settle. Determinism contract:
    /// `options` never change what a cell contains, only whether it is
    /// recomputed or restored -- and a shard run's cells are bit-identical
    /// to the same cells of the unsharded run. A shard run's result echoes
    /// a spec reduced to the owned pairs (explicit pair list), so tables
    /// and CSVs cover exactly what this process computed; the canonical
    /// full document comes from merge_sweep_shards.
    ///
    /// The calling thread is an executor: while it waits it runs queued
    /// pool tasks (thread_pool::run_one_task), so a pool of N workers runs
    /// up to N+1 tasks at once. That keeps run() deadlock-free when called
    /// from inside a pool task; it also means a 1-worker sweep uses about
    /// two cores (CPU time near twice wall time).
    [[nodiscard]] sweep_result run(const sweep_spec& spec,
                                   const sweep_options& options = {}) const;

private:
    thread_pool* pool_;
    experiment_cache* cache_;
};

} // namespace synts::runtime
