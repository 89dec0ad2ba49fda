// Tests for runtime/sweep + sweep_io: spec expansion, scheduler results
// bit-identical to the serial pareto_sweep path, schedule independence
// across worker counts, error propagation, concurrent use of one shared
// benchmark_experiment (the run_policy/pareto_sweep thread-safety
// contract), the CSV/JSON emitters and name parsers the runner CLI uses,
// and agreement between the metrics registry and a sweep's own counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "helpers.h"
#include "obs/metrics.h"
#include "runtime/sweep.h"
#include "runtime/sweep_io.h"
#include "storage/artifact_store.h"
#include "util/hashing.h"

namespace {

using namespace synts;
using core::policy_kind;

runtime::sweep_spec small_spec()
{
    runtime::sweep_spec spec;
    spec.benchmarks = {workload::benchmark_id::radix};
    spec.stages = {circuit::pipe_stage::simple_alu, circuit::pipe_stage::decode};
    spec.policies = {policy_kind::synts_offline, policy_kind::per_core_ts};
    spec.theta_multipliers = {0.5, 1.0, 2.0};
    return spec;
}

TEST(runtime_sweep, expansion_cross_product_and_explicit_pairs)
{
    runtime::sweep_spec spec = small_spec();
    EXPECT_EQ(spec.expanded_pairs().size(), 2u);
    EXPECT_EQ(spec.task_count(), 4u);

    spec.pairs = {{workload::benchmark_id::fmm, circuit::pipe_stage::complex_alu}};
    ASSERT_EQ(spec.expanded_pairs().size(), 1u); // explicit list wins
    EXPECT_EQ(spec.expanded_pairs()[0].first, workload::benchmark_id::fmm);
    EXPECT_EQ(spec.task_count(), 2u);
}

TEST(runtime_sweep, scheduler_matches_serial_sweep_bit_for_bit)
{
    const runtime::sweep_spec spec = small_spec();

    runtime::thread_pool pool(4);
    runtime::experiment_cache cache;
    const runtime::sweep_scheduler scheduler(pool, cache);
    const runtime::sweep_result result = scheduler.run(spec);

    ASSERT_EQ(result.cells.size(), 4u);
    EXPECT_EQ(result.cache_misses, 2u); // one per pair
    EXPECT_EQ(result.cache_hits, 0u);   // per-pair tasks fetch once, share across cells

    for (const auto& [benchmark, stage] : spec.expanded_pairs()) {
        const core::benchmark_experiment serial(benchmark, stage, spec.config);
        const double theta_eq = serial.equal_weight_theta();
        for (const policy_kind kind : spec.policies) {
            const runtime::sweep_cell* cell = result.find(benchmark, stage, kind);
            ASSERT_NE(cell, nullptr);
            EXPECT_EQ(cell->theta_eq, theta_eq);

            const auto serial_run = serial.run_policy(kind, theta_eq);
            EXPECT_EQ(cell->equal_weight.sum.energy, serial_run.sum.energy);
            EXPECT_EQ(cell->equal_weight.sum.time_ps, serial_run.sum.time_ps);

            const auto serial_front =
                core::pareto_sweep(serial, kind, spec.theta_multipliers);
            ASSERT_EQ(cell->pareto.size(), serial_front.size());
            for (std::size_t i = 0; i < serial_front.size(); ++i) {
                EXPECT_EQ(cell->pareto[i].theta, serial_front[i].theta);
                EXPECT_EQ(cell->pareto[i].energy, serial_front[i].energy);
                EXPECT_EQ(cell->pareto[i].time, serial_front[i].time);
            }
        }
    }
}

TEST(runtime_sweep, results_independent_of_worker_count)
{
    runtime::sweep_spec spec = small_spec();
    spec.stages = {circuit::pipe_stage::simple_alu};

    std::vector<runtime::sweep_result> results;
    for (const std::size_t workers : {1u, 3u}) {
        runtime::thread_pool pool(workers);
        runtime::experiment_cache cache;
        results.push_back(runtime::sweep_scheduler(pool, cache).run(spec));
    }
    ASSERT_EQ(results[0].cells.size(), results[1].cells.size());
    for (std::size_t c = 0; c < results[0].cells.size(); ++c) {
        const auto& a = results[0].cells[c];
        const auto& b = results[1].cells[c];
        EXPECT_EQ(a.workload, b.workload); // cell order is schedule-independent
        EXPECT_EQ(a.policy, b.policy);
        EXPECT_EQ(a.theta_eq, b.theta_eq);
        EXPECT_EQ(a.task_seed, b.task_seed);
        EXPECT_EQ(a.equal_weight.sum.energy, b.equal_weight.sum.energy);
        ASSERT_EQ(a.pareto.size(), b.pareto.size());
        for (std::size_t i = 0; i < a.pareto.size(); ++i) {
            EXPECT_EQ(a.pareto[i].energy, b.pareto[i].energy);
            EXPECT_EQ(a.pareto[i].time, b.pareto[i].time);
        }
    }
}

TEST(runtime_sweep, task_seeds_are_deterministic_streams)
{
    runtime::thread_pool pool(2);
    runtime::experiment_cache cache;
    runtime::sweep_spec spec = small_spec();
    spec.stages = {circuit::pipe_stage::simple_alu};
    const runtime::sweep_result result = runtime::sweep_scheduler(pool, cache).run(spec);
    ASSERT_EQ(result.cells.size(), 2u);
    EXPECT_EQ(result.cells[0].task_seed, util::hash_mix(spec.config.seed, 0));
    EXPECT_EQ(result.cells[1].task_seed, util::hash_mix(spec.config.seed, 1));
    EXPECT_NE(result.cells[0].task_seed, result.cells[1].task_seed);
}

TEST(runtime_sweep, nested_run_on_single_worker_pool_does_not_deadlock)
{
    // run() may be called from inside a pool task (composed sweeps); the
    // helping wait must drain the cells even when the caller occupies the
    // pool's only worker.
    runtime::thread_pool pool(1);
    runtime::experiment_cache cache;
    runtime::sweep_spec spec = small_spec();
    spec.stages = {circuit::pipe_stage::simple_alu};
    spec.policies = {policy_kind::nominal};
    spec.theta_multipliers.clear();

    auto outer = pool.submit([&] {
        const runtime::sweep_result nested =
            runtime::sweep_scheduler(pool, cache).run(spec);
        return nested.cells.size();
    });
    EXPECT_EQ(outer.get(), 1u);
}

TEST(runtime_sweep, cell_errors_propagate)
{
    runtime::thread_pool pool(2);
    runtime::experiment_cache cache;
    runtime::sweep_spec spec = small_spec();
    spec.config.thread_count = 0; // experiment construction throws
    EXPECT_THROW((void)runtime::sweep_scheduler(pool, cache).run(spec),
                 std::invalid_argument);
}

TEST(runtime_sweep, shared_experiment_safe_for_concurrent_policy_runs)
{
    // The cache hands ONE experiment instance to every worker; run_policy,
    // make_solver_input and pareto_sweep must therefore be const all the
    // way down. Hammer one instance from several threads and require
    // bit-identical outcomes to the serial call.
    runtime::experiment_cache cache;
    const auto experiment =
        cache.get_or_create(workload::benchmark_id::radix, circuit::pipe_stage::decode);
    const double theta = experiment->equal_weight_theta();
    const auto expected = experiment->run_policy(policy_kind::synts_online, theta);
    const std::vector<double> ladder = {0.5, 1.0};
    const auto expected_front =
        core::pareto_sweep(*experiment, policy_kind::synts_offline, ladder);

    runtime::thread_pool pool(4);
    std::vector<std::future<void>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back(pool.submit([&] {
            const auto run = experiment->run_policy(policy_kind::synts_online, theta);
            ASSERT_EQ(run.sum.energy, expected.sum.energy);
            ASSERT_EQ(run.sum.time_ps, expected.sum.time_ps);
            const auto front =
                core::pareto_sweep(*experiment, policy_kind::synts_offline, ladder);
            ASSERT_EQ(front.size(), expected_front.size());
            for (std::size_t p = 0; p < front.size(); ++p) {
                ASSERT_EQ(front[p].energy, expected_front[p].energy);
                ASSERT_EQ(front[p].time, expected_front[p].time);
            }
        }));
    }
    for (auto& task : tasks) {
        task.get();
    }
}

TEST(runtime_sweep, emitters_cover_every_cell)
{
    runtime::thread_pool pool(2);
    runtime::experiment_cache cache;
    runtime::sweep_spec spec = small_spec();
    spec.stages = {circuit::pipe_stage::simple_alu};
    const runtime::sweep_result result = runtime::sweep_scheduler(pool, cache).run(spec);

    std::ostringstream pareto_csv;
    runtime::write_pareto_csv(result, pareto_csv);
    // header + cells * multipliers rows
    const std::string pareto_text = pareto_csv.str();
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(pareto_text.begin(), pareto_text.end(), '\n')),
              1 + result.cells.size() * spec.theta_multipliers.size());
    EXPECT_NE(pareto_text.find("Radix"), std::string::npos);

    std::ostringstream summary_csv;
    runtime::write_summary_csv(result, summary_csv);
    const std::string summary_text = summary_csv.str();
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(summary_text.begin(), summary_text.end(), '\n')),
              1 + result.cells.size());

    std::ostringstream json;
    runtime::write_sweep_json(result, json);
    const std::string json_text = json.str();
    EXPECT_NE(json_text.find("\"cells\""), std::string::npos);
    EXPECT_NE(json_text.find("synts_offline"), std::string::npos);
    EXPECT_NE(json_text.find("per_core_ts"), std::string::npos);

    EXPECT_NE(runtime::render_sweep_table(result).find("Radix"), std::string::npos);

    // A store-less run reports empty disk and checkpoint tiers (no phantom
    // "checkpoint misses" from a tier that never ran).
    EXPECT_FALSE(result.checkpointing);
    EXPECT_EQ(result.cells_missed(), 0u);
    const std::string stats =
        runtime::render_cache_stats(result, runtime::cache_stats_format::csv);
    EXPECT_NE(stats.find("disk,0,0"), std::string::npos);
    EXPECT_NE(stats.find("checkpoint,0,0"), std::string::npos);
}

TEST(runtime_sweep, registry_counters_match_sweep_result)
{
    // --metrics, --sample and OpenMetrics read the process-wide registry;
    // --cache-stats and bench_e2e read the sweep_result. For a process
    // running one sweep the two must agree, cold and warm. Each run starts
    // from a reset registry: live totals are never differenced.
    test::temp_dir dir;
    runtime::thread_pool pool(2);
    runtime::sweep_spec spec = small_spec();
    spec.theta_multipliers.clear();
    obs::metrics_registry& registry = obs::metrics_registry::global();
    const auto count = [&registry](std::string_view name) {
        return registry.counter_at(name).value();
    };
    const auto expect_registry_matches = [&](const runtime::sweep_result& result) {
        EXPECT_EQ(count("cache.tier1.hits"), result.cache_hits);
        EXPECT_EQ(count("cache.tier1.misses"), result.cache_misses);
        EXPECT_EQ(count("cache.tier2.hits"), result.program_cache_hits);
        EXPECT_EQ(count("cache.tier2.misses"), result.program_cache_misses);
        EXPECT_EQ(count("cache.tier2.computes"), result.program_computes);
        EXPECT_EQ(count("cache.tier3.hits"), result.disk_hits);
        EXPECT_EQ(count("cache.tier3.misses"), result.disk_misses);
        EXPECT_EQ(count("sweep.cells_loaded"), result.cells_loaded);
        EXPECT_EQ(count("sweep.cells_stored"), result.cells_stored);
        EXPECT_EQ(count("sweep.cells_missed"), result.cells_missed());
    };

    registry.reset();
    runtime::experiment_cache cold_cache;
    cold_cache.attach_store(std::make_shared<storage::artifact_store>(dir.path));
    const runtime::sweep_result cold =
        runtime::sweep_scheduler(pool, cold_cache).run(spec);
    EXPECT_EQ(cold.program_computes, 1u);
    EXPECT_EQ(cold.disk_misses, 1u);
    EXPECT_EQ(cold.cells_stored, cold.cells.size());
    expect_registry_matches(cold);

    // A second "process" over the same store: artifacts come off disk.
    registry.reset();
    runtime::experiment_cache warm_cache;
    warm_cache.attach_store(std::make_shared<storage::artifact_store>(dir.path));
    const runtime::sweep_result warm =
        runtime::sweep_scheduler(pool, warm_cache).run(spec);
    EXPECT_EQ(warm.disk_hits, 1u);
    EXPECT_EQ(warm.program_computes, 0u);
    expect_registry_matches(warm);
}

TEST(runtime_sweep, name_parsers_are_forgiving)
{
    const workload::workload_registry& registry = workload::workload_registry::global();
    const workload::workload_key lu_contig =
        workload::builtin_key(workload::benchmark_id::lu_contig);
    EXPECT_EQ(runtime::parse_workload(registry, "lu-contig"), lu_contig);
    EXPECT_EQ(runtime::parse_workload(registry, "LU_CONTIG"), lu_contig);
    EXPECT_EQ(runtime::parse_workload(registry, "nonesuch"), std::nullopt);
    EXPECT_EQ(runtime::parse_stage("SimpleALU"), circuit::pipe_stage::simple_alu);
    EXPECT_EQ(runtime::parse_stage("simple_alu"), circuit::pipe_stage::simple_alu);
    EXPECT_EQ(runtime::parse_policy("per-core-ts"), policy_kind::per_core_ts);
    EXPECT_EQ(runtime::parse_policy("Per-core TS"), policy_kind::per_core_ts);
    EXPECT_EQ(runtime::parse_policy("nonesuch"), std::nullopt);
    EXPECT_EQ(runtime::parse_workload_list(registry, "reported").size(), 7u);
    EXPECT_EQ(runtime::parse_workload_list(registry, "splash2").size(),
              workload::benchmark_count);
    EXPECT_EQ(runtime::parse_stage_list("all").size(), circuit::pipe_stage_count);
    EXPECT_EQ(runtime::parse_policy_list("all").size(), core::policy_count);
    EXPECT_EQ(runtime::parse_policy_list("nominal,no_ts").size(), 2u);
    EXPECT_THROW((void)runtime::parse_workload_list(registry, "fmm,bogus"),
                 std::invalid_argument);
}

TEST(runtime_sweep, workload_parsers_resolve_registry_names)
{
    const workload::workload_registry& registry = workload::workload_registry::global();
    EXPECT_EQ(runtime::parse_workload(registry, "radix")->name, "Radix");
    EXPECT_EQ(runtime::parse_workload(registry, "Lock-Ladder")->name, "lock_ladder");
    EXPECT_EQ(runtime::parse_workload(registry, "nonesuch"), std::nullopt);
    EXPECT_EQ(runtime::parse_workload_list(registry, "reported").size(), 7u);
    EXPECT_EQ(runtime::parse_workload_list(registry, "splash2").size(),
              workload::benchmark_count);
    // "all" now means every registered workload: the ten plus the default
    // scenario instances at minimum.
    EXPECT_GE(runtime::parse_workload_list(registry, "all").size(),
              workload::benchmark_count + 6);
    EXPECT_THROW((void)runtime::parse_workload_list(registry, "fmm,bogus"),
                 std::invalid_argument);
    // The resolved key is the registry identity, so sweeps over parsed
    // names and sweeps over constructed keys cache-share.
    EXPECT_EQ(*runtime::parse_workload(registry, "fmm"),
              workload::builtin_key(workload::benchmark_id::fmm));
}

} // namespace
