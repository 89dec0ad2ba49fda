#include "runtime/sweep.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <future>
#include <optional>
#include <string>

#include "circuit/netlist_builder.h"
#include "core/policies.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/artifact_store.h"
#include "storage/serialize.h"
#include "util/hashing.h"

namespace synts::runtime {

std::vector<benchmark_stage> sweep_spec::expanded_pairs() const
{
    if (!pairs.empty()) {
        return pairs;
    }
    std::vector<benchmark_stage> expanded;
    expanded.reserve(benchmarks.size() * stages.size());
    for (const workload::workload_key& workload : benchmarks) {
        for (const circuit::pipe_stage stage : stages) {
            expanded.emplace_back(workload, stage);
        }
    }
    return expanded;
}

std::size_t sweep_spec::task_count() const
{
    return expanded_pairs().size() * policies.size();
}

std::uint64_t sweep_spec::digest() const
{
    util::digest_builder h;
    h.value(config.digest());
    const std::vector<benchmark_stage> expanded = expanded_pairs();
    h.u64(expanded.size());
    for (const auto& [workload, stage] : expanded) {
        h.u64(workload.id);
        h.text(workload.name);
        h.value(stage);
    }
    h.u64(policies.size());
    for (const core::policy_kind policy : policies) {
        h.value(policy);
    }
    h.values(theta_multipliers);
    return h.digest();
}

std::uint64_t sweep_cell_digest(std::uint64_t spec_digest, std::size_t index) noexcept
{
    return util::hash_mix(spec_digest, index);
}

sweep_shard sweep_spec::shard(std::size_t index, std::size_t count) const
{
    if (count == 0) {
        throw std::invalid_argument("sweep_spec::shard: shard count must be >= 1");
    }
    if (index >= count) {
        throw std::invalid_argument("sweep_spec::shard: shard index " +
                                    std::to_string(index) + " out of range for " +
                                    std::to_string(count) + " shard(s)");
    }
    return sweep_shard{index, count};
}

std::uint64_t shard_layout_digest(std::uint64_t spec_digest) noexcept
{
    util::digest_builder h;
    h.text("shard_layout");
    h.u64(spec_digest);
    return h.digest();
}

std::uint64_t shard_manifest_digest(std::uint64_t spec_digest, std::size_t shard_count,
                                    std::size_t shard_index) noexcept
{
    util::digest_builder h;
    h.text("shard_manifest");
    h.u64(spec_digest);
    h.u64(shard_count);
    h.u64(shard_index);
    return h.digest();
}

std::uint64_t shard_progress_digest(std::uint64_t spec_digest, std::size_t shard_count,
                                    std::size_t shard_index) noexcept
{
    util::digest_builder h;
    h.text("shard_progress");
    h.u64(spec_digest);
    h.u64(shard_count);
    h.u64(shard_index);
    return h.digest();
}

const sweep_cell* sweep_result::find(const workload::workload_key& workload,
                                     circuit::pipe_stage stage,
                                     core::policy_kind policy) const noexcept
{
    for (const sweep_cell& cell : cells) {
        if (cell.workload == workload && cell.stage == stage &&
            cell.policy == policy) {
            return &cell;
        }
    }
    return nullptr;
}

namespace {

/// Checkpoint probe: decodes a stored cell frame and sanity-checks its
/// identity against the slot it would fill. Returns nullopt -- recompute
/// -- on any failure; a corrupt or foreign checkpoint is never adopted.
std::optional<sweep_cell> try_load_cell(const storage::artifact_store& store,
                                        std::uint64_t cell_key,
                                        const workload::workload_key& workload,
                                        circuit::pipe_stage stage,
                                        core::policy_kind policy)
{
    const std::optional<std::string> frame = store.load(storage::cell_bucket, cell_key);
    if (!frame) {
        return std::nullopt;
    }
    try {
        sweep_cell cell = storage::decode_sweep_cell(*frame);
        if (cell.workload != workload || cell.stage != stage ||
            cell.policy != policy) {
            return std::nullopt;
        }
        return cell;
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

/// Manifest probe: decodes a shard-manifest frame from the manifest
/// bucket; nullopt when absent or undecodable.
std::optional<shard_manifest> try_load_manifest(const storage::artifact_store& store,
                                                std::uint64_t key)
{
    const std::optional<std::string> frame = store.load(storage::manifest_bucket, key);
    if (!frame) {
        return std::nullopt;
    }
    try {
        return storage::decode_shard_manifest(*frame);
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

/// Live-progress publisher of one store-backed run (sharded or not -- an
/// unsharded run publishes as shard 0 of 1). Workers report each durable
/// cell; the publisher republishes the shard_progress frame at most every
/// `interval_ns` (atomic rename-over of one key, so concurrent republishes
/// are benign), and run() calls publish_final() after the tasks join so the
/// last frame is exact even when the throttle swallowed the closing bumps.
class progress_publisher {
public:
    progress_publisher(const storage::artifact_store* store, std::uint64_t spec_digest,
                       const sweep_shard& shard, std::uint64_t cells_owned)
        : store_(store), key_(shard_progress_digest(spec_digest, shard.count,
                                                    shard.index))
    {
        frame_.spec_digest = spec_digest;
        frame_.shard_count = static_cast<std::uint32_t>(shard.count);
        frame_.shard_index = static_cast<std::uint32_t>(shard.index);
        frame_.cells_owned = cells_owned;
    }

    /// One more owned cell became durable (restored from or stored to the
    /// checkpoint store).
    void cell_done()
    {
        if (store_ == nullptr) {
            return;
        }
        const std::uint64_t done = done_.fetch_add(1, std::memory_order_relaxed) + 1;
        const std::uint64_t now = obs::now_ns();
        std::uint64_t last = last_publish_ns_.load(std::memory_order_relaxed);
        if (now - last < interval_ns ||
            !last_publish_ns_.compare_exchange_strong(last, now,
                                                      std::memory_order_relaxed)) {
            return; // inside the throttle window, or another worker won it
        }
        publish(done);
    }

    /// Exact closing frame; call after every worker settled.
    void publish_final()
    {
        if (store_ != nullptr) {
            publish(done_.load(std::memory_order_relaxed));
        }
    }

private:
    static constexpr std::uint64_t interval_ns = 250'000'000; // ~4 Hz

    void publish(std::uint64_t done) const
    {
        shard_progress frame = frame_;
        frame.cells_done = done;
        (void)store_->store(storage::manifest_bucket, key_, storage::encode(frame));
    }

    const storage::artifact_store* store_;
    std::uint64_t key_;
    shard_progress frame_;
    std::atomic<std::uint64_t> done_{0};
    std::atomic<std::uint64_t> last_publish_ns_{0};
};

} // namespace

sweep_result sweep_scheduler::run(const sweep_spec& spec,
                                  const sweep_options& options) const
{
    const std::vector<benchmark_stage> pairs = spec.expanded_pairs();
    const std::size_t policy_count = spec.policies.size();
    // Effective checkpoint store: the explicit override, else the store
    // already attached to the cache (one attach wires the whole feature).
    storage::artifact_store* const store =
        options.store != nullptr ? options.store : cache_->store().get();
    const bool sharded = options.shard.has_value();
    const sweep_shard shard = options.shard.value_or(sweep_shard{});
    if (shard.count == 0 || shard.index >= shard.count) {
        throw std::invalid_argument(
            "sweep_scheduler: invalid shard (construct it via sweep_spec::shard)");
    }
    if (sharded && store == nullptr) {
        throw std::invalid_argument(
            "sweep_scheduler: a sharded run requires a checkpoint store -- its "
            "checkpoints are the product the merge assembles");
    }
    // Always the FULL spec's digest, even for a shard run whose result
    // echoes a reduced spec: it keys the checkpoints and the JSON reports
    // it, so every shard's document names the same sweep identity.
    const std::uint64_t spec_digest = spec.digest();

    // Global indices of the pairs this run owns (all of them unsharded).
    std::vector<std::size_t> owned;
    owned.reserve(pairs.size() / shard.count + 1);
    for (std::size_t p = 0; p < pairs.size(); ++p) {
        if (shard.owns_pair(p)) {
            owned.push_back(p);
        }
    }

    if (sharded) {
        // Declare (or verify) the spec's shard layout BEFORE computing:
        // one store must never interleave two different partitions of one
        // spec, or a later merge could assemble a frankenstein shard set.
        const shard_manifest layout{spec_digest,
                                    static_cast<std::uint32_t>(shard.count),
                                    static_cast<std::uint32_t>(shard.count),
                                    static_cast<std::uint64_t>(pairs.size()) *
                                        policy_count};
        if (const std::optional<shard_manifest> existing =
                try_load_manifest(*store, shard_layout_digest(spec_digest))) {
            if (*existing != layout) {
                throw shard_error(
                    "shard layout conflict: this store already records the spec as " +
                    std::to_string(existing->shard_count) +
                    " shard(s); refusing an overlapping " +
                    std::to_string(shard.count) +
                    "-shard run (use a fresh store to reshard)");
            }
        } else {
            // Best-effort, atomic, and idempotent: concurrent shards write
            // identical bytes, and a failed publish only defers the
            // conflict check to the merge.
            (void)store->store(storage::manifest_bucket,
                               shard_layout_digest(spec_digest),
                               storage::encode(layout));
        }
    }

    sweep_result result;
    result.spec = spec;
    result.spec_digest = spec_digest;
    if (sharded) {
        // Echo a spec reduced to the owned pairs so tables/CSVs of this
        // process cover exactly what it computed. Checkpoint keys and
        // task seeds below still use the FULL spec's digest and global
        // cell indices, so the merge reassembles the unsharded document.
        result.spec.benchmarks.clear();
        result.spec.stages.clear();
        result.spec.pairs.clear();
        for (const std::size_t p : owned) {
            result.spec.pairs.push_back(pairs[p]);
        }
    }
    result.cells.resize(owned.size() * policy_count);

    // Per-run attribution sink: every cache lookup this run makes counts
    // here (and in the process-wide registry), so concurrent sweeps on one
    // cache each report exactly their own traffic instead of differencing
    // global counters over overlapping windows.
    cache_traffic traffic;
    std::atomic<std::uint64_t> cells_loaded{0};
    std::atomic<std::uint64_t> cells_stored{0};

    // Registry counters (sweep.* taxonomy) and the run-level span. The
    // per-sweep numbers above stay attribution-correct; the registry
    // aggregates process-wide for --metrics.
    obs::metrics_registry& registry = obs::metrics_registry::global();
    obs::counter& obs_cells_loaded = registry.counter_at("sweep.cells_loaded");
    obs::counter& obs_cells_stored = registry.counter_at("sweep.cells_stored");
    obs::counter& obs_cells_missed = registry.counter_at("sweep.cells_missed");
    obs::counter& obs_cells_computed = registry.counter_at("sweep.cells_computed");
    const obs::trace_span run_span(obs::trace_recorder::global(), "sweep.run");
    progress_publisher progress(store, spec_digest, shard,
                                static_cast<std::uint64_t>(result.cells.size()));

    const auto t0 = std::chrono::steady_clock::now();

    // One task per owned (benchmark, stage) pair: the pair's shared inputs
    // -- the characterization, theta_eq, and the Nominal baseline run --
    // are computed once and reused across its policy cells, instead of once
    // per cell (per-cell tasks would re-derive theta_eq Q times and a
    // ladder's Nominal baseline Q more times). Policy cells within a pair
    // run sequentially; pairs run in parallel, which is where the work is.
    std::vector<std::future<void>> tasks;
    tasks.reserve(owned.size());
    for (std::size_t local_p = 0; local_p < owned.size(); ++local_p) {
        tasks.push_back(pool_->submit(
            [this, &spec, &options, &result, &pairs, &owned, store, spec_digest,
             policy_count, &traffic, &cells_loaded, &cells_stored, &obs_cells_loaded,
             &obs_cells_stored, &obs_cells_missed, &obs_cells_computed, &progress,
             local_p] {
            const std::size_t p = owned[local_p];
            const auto& [workload, stage] = pairs[p];

            // Resume pass: adopt every decodable checkpoint of this pair
            // first; only the gaps are computed. When nothing is missing
            // the pair's characterization is skipped entirely.
            std::vector<std::optional<sweep_cell>> restored(policy_count);
            bool complete = true;
            if (options.resume && store != nullptr) {
                for (std::size_t q = 0; q < policy_count; ++q) {
                    const std::size_t index = p * policy_count + q;
                    restored[q] = try_load_cell(
                        *store, sweep_cell_digest(spec_digest, index),
                        workload, stage, spec.policies[q]);
                    complete = complete && restored[q].has_value();
                }
            } else {
                complete = policy_count == 0;
            }

            experiment_cache::experiment_ptr experiment;
            double theta_eq = 0.0;
            core::benchmark_experiment::policy_run nominal_baseline;
            if (!complete) {
                experiment = cache_->get_or_create(workload, stage, spec.config,
                                                   pool_, &traffic);
                theta_eq = experiment->equal_weight_theta();
                if (!spec.theta_multipliers.empty()) {
                    nominal_baseline =
                        experiment->run_policy(core::policy_kind::nominal, theta_eq);
                }
            }

            for (std::size_t q = 0; q < policy_count; ++q) {
                // Checkpoint key and task seed use the GLOBAL cell index;
                // the result slot uses the run-local one (they agree when
                // unsharded).
                const std::size_t index = p * policy_count + q;
                sweep_cell& cell = result.cells[local_p * policy_count + q];
                if (restored[q].has_value()) {
                    cell = *std::move(restored[q]);
                    cells_loaded.fetch_add(1, std::memory_order_relaxed);
                    obs_cells_loaded.add(1);
                    progress.cell_done();
                    continue;
                }
                cell.workload = workload;
                cell.stage = stage;
                cell.policy = spec.policies[q];
                cell.task_seed = util::hash_mix(spec.config.seed, index);
                cell.theta_eq = theta_eq;
                obs_cells_computed.add(1);
                if (store != nullptr) {
                    // Computed while a checkpoint store was present == no
                    // usable checkpoint covered the cell (the registry twin
                    // of sweep_result::cells_missed()).
                    obs_cells_missed.add(1);
                }
                {
                    const obs::trace_span cell_span(
                        obs::trace_recorder::global(), [&] {
                            std::string name = "sweep.cell:";
                            name += workload.name;
                            name += '/';
                            name += circuit::pipe_stage_name(stage);
                            name += '/';
                            name += core::policy_name(cell.policy);
                            return name;
                        });
                    cell.equal_weight =
                        cell.policy == core::policy_kind::nominal &&
                                !spec.theta_multipliers.empty()
                            ? nominal_baseline
                            : experiment->run_policy(cell.policy, theta_eq);
                    if (!spec.theta_multipliers.empty()) {
                        cell.pareto =
                            core::pareto_sweep(*experiment, cell.policy,
                                               spec.theta_multipliers, theta_eq,
                                               nominal_baseline);
                    }
                }
                // Persist as soon as the cell settles, so a kill between
                // here and the sweep's end loses only in-flight cells.
                if (store != nullptr &&
                    store->store(storage::cell_bucket,
                                 sweep_cell_digest(spec_digest, index),
                                 storage::encode(cell))) {
                    cells_stored.fetch_add(1, std::memory_order_relaxed);
                    obs_cells_stored.add(1);
                    progress.cell_done();
                }
            }
        }));
    }

    std::exception_ptr first_error;
    for (std::future<void>& done : tasks) {
        // Help while waiting (same discipline as parallel_for): run() may
        // itself be called from inside a pool task, and on a small pool the
        // cells would otherwise sit behind the blocked caller forever.
        while (done.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
            if (!pool_->run_one_task()) {
                (void)done.wait_for(std::chrono::milliseconds(1));
            }
        }
        try {
            done.get();
        } catch (...) {
            // First error in cell order, rethrown after EVERY task settled.
            if (!first_error) {
                first_error = std::current_exception();
            }
        }
    }
    if (first_error) {
        std::rethrow_exception(first_error);
    }

    const auto t1 = std::chrono::steady_clock::now();
    result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    result.cache_hits = traffic.stage.hits.load(std::memory_order_relaxed);
    result.cache_misses = traffic.stage.misses.load(std::memory_order_relaxed);
    result.program_cache_hits = traffic.program.hits.load(std::memory_order_relaxed);
    result.program_cache_misses = traffic.program.misses.load(std::memory_order_relaxed);
    result.disk_hits = traffic.disk_hits.load(std::memory_order_relaxed);
    result.disk_misses = traffic.disk_misses.load(std::memory_order_relaxed);
    result.program_computes = traffic.program_computes.load(std::memory_order_relaxed);
    result.checkpointing = store != nullptr;
    result.cells_loaded = cells_loaded.load(std::memory_order_relaxed);
    result.cells_stored = cells_stored.load(std::memory_order_relaxed);
    // Exact closing progress frame (the throttle may have swallowed the
    // last per-cell publishes); written before the completion manifest so
    // --status never shows a complete shard behind a stale count.
    progress.publish_final();

    if (sharded && result.cells_loaded + result.cells_stored >= result.cells.size()) {
        // Every owned cell is durably checkpointed (restored cells were on
        // disk already; computed ones published successfully): attest
        // completion. A run with any absorbed store failure writes no
        // manifest, so a merge reports this shard as incomplete instead of
        // assembling holes.
        const shard_manifest manifest{spec_digest,
                                      static_cast<std::uint32_t>(shard.count),
                                      static_cast<std::uint32_t>(shard.index),
                                      result.cells.size()};
        (void)store->store(storage::manifest_bucket,
                           shard_manifest_digest(spec_digest, shard.count, shard.index),
                           storage::encode(manifest));
    }
    return result;
}

sweep_result merge_sweep_shards(const sweep_spec& spec,
                                const storage::artifact_store& store)
{
    const std::vector<benchmark_stage> pairs = spec.expanded_pairs();
    const std::size_t policy_count = spec.policies.size();
    const std::uint64_t spec_digest = spec.digest();
    const std::uint64_t total_cells =
        static_cast<std::uint64_t>(pairs.size()) * policy_count;

    const std::optional<std::string> layout_frame =
        store.load(storage::manifest_bucket, shard_layout_digest(spec_digest));
    if (!layout_frame) {
        throw shard_error(
            "merge: the store records no shard layout for this spec -- run the "
            "shards first, with identical spec flags, against this store");
    }
    shard_manifest layout;
    try {
        layout = storage::decode_shard_manifest(*layout_frame);
    } catch (const std::exception& error) {
        throw shard_error(std::string("merge: corrupt shard layout frame: ") +
                          error.what());
    }
    if (layout.spec_digest != spec_digest) {
        throw shard_error("merge: foreign shard layout (recorded for a different "
                          "spec); refusing to assemble");
    }
    if (layout.shard_count == 0 || layout.shard_index != layout.shard_count) {
        throw shard_error("merge: malformed shard layout frame");
    }
    if (layout.cell_count != total_cells) {
        throw shard_error("merge: recorded layout covers " +
                          std::to_string(layout.cell_count) + " cells but this spec "
                          "expands to " + std::to_string(total_cells) +
                          " -- the store was sharded for a different sweep shape");
    }
    const std::size_t shard_count = layout.shard_count;

    for (std::size_t i = 0; i < shard_count; ++i) {
        const std::optional<std::string> frame = store.load(
            storage::manifest_bucket,
            shard_manifest_digest(spec_digest, shard_count, i));
        if (!frame) {
            throw shard_error("merge: shard " + std::to_string(i) + "/" +
                              std::to_string(shard_count) +
                              " has not recorded completion (still running, "
                              "failed, or run against another store)");
        }
        shard_manifest manifest;
        try {
            manifest = storage::decode_shard_manifest(*frame);
        } catch (const std::exception& error) {
            throw shard_error("merge: corrupt manifest of shard " + std::to_string(i) +
                              ": " + error.what());
        }
        if (manifest.spec_digest != spec_digest || manifest.shard_count != shard_count ||
            manifest.shard_index != i) {
            throw shard_error("merge: foreign manifest at shard " + std::to_string(i) +
                              "'s key; refusing to assemble");
        }
        // The same partition predicate the shard runs used -- the merge
        // validator and the scheduler must never disagree on ownership.
        const sweep_shard shard{i, shard_count};
        std::size_t owned_pairs = 0;
        for (std::size_t p = 0; p < pairs.size(); ++p) {
            if (shard.owns_pair(p)) {
                ++owned_pairs;
            }
        }
        if (manifest.cell_count !=
            static_cast<std::uint64_t>(owned_pairs) * policy_count) {
            throw shard_error("merge: shard " + std::to_string(i) +
                              " attests a different cell count than its slice of "
                              "this spec -- overlapping or stale shard set");
        }
    }

    sweep_result result;
    result.spec = spec;
    result.spec_digest = spec_digest;
    result.cells.resize(pairs.size() * policy_count);
    for (std::size_t p = 0; p < pairs.size(); ++p) {
        for (std::size_t q = 0; q < policy_count; ++q) {
            const std::size_t index = p * policy_count + q;
            std::optional<sweep_cell> cell =
                try_load_cell(store, sweep_cell_digest(spec_digest, index),
                              pairs[p].first, pairs[p].second, spec.policies[q]);
            if (!cell) {
                throw shard_error("merge: checkpoint cell " + std::to_string(index) +
                                  " is missing or corrupt; re-run its shard");
            }
            result.cells[index] = *std::move(cell);
        }
    }
    result.checkpointing = true;
    result.cells_loaded = result.cells.size();
    obs::metrics_registry::global()
        .counter_at("sweep.cells_loaded")
        .add(result.cells.size());
    return result;
}

} // namespace synts::runtime
