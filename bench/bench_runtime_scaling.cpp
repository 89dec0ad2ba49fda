// Runtime scaling: wall-clock speedup of the batched sweep scheduler as the
// worker count grows, plus the determinism guarantee that makes the
// parallelism free of risk.
//
// Workload: the acceptance sweep -- a Pareto ladder (default theta
// multipliers) over the paper's 7 reported benchmarks x 3 pipe stages,
// SynTS (offline). Each worker count runs against a FRESH experiment cache,
// so every run pays the full 21 characterizations and the comparison is
// pure scheduling, not cache reuse.
//
// Checks printed at the end:
//   * bit-identity of the scheduler's aggregated results against the serial
//     core::pareto_sweep path (fresh benchmark_experiment per pair, exact
//     double ==, no tolerance);
//   * bit-identity across worker counts;
//   * speedup at each worker count vs 1 worker. The >= 2x target at 4
//     workers requires >= 4 hardware threads -- the bench reports the
//     machine's concurrency so a 1-core container's result is legible.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/experiment.h"
#include "runtime/sweep.h"
#include "util/table.h"

int main()
{
    using namespace synts;
    using core::policy_kind;

    bench::banner("Runtime scaling",
                  "sweep wall-clock vs worker count (7 benchmarks x 3 stages)");

    runtime::sweep_spec spec;
    {
        const auto reported = workload::reported_benchmarks();
        spec.benchmarks.assign(reported.begin(), reported.end());
        spec.stages = {circuit::pipe_stage::decode, circuit::pipe_stage::simple_alu,
                       circuit::pipe_stage::complex_alu};
        spec.policies = {policy_kind::synts_offline};
        spec.theta_multipliers = core::default_theta_multipliers();
    }

    // Serial reference: the exact pre-runtime code path -- construct each
    // experiment directly and sweep it, no pool, no cache.
    std::vector<std::vector<core::pareto_point>> serial;
    double serial_seconds = 0.0;
    {
        const auto t0 = std::chrono::steady_clock::now();
        for (const auto& [benchmark, stage] : spec.expanded_pairs()) {
            const core::benchmark_experiment experiment(benchmark, stage, spec.config);
            serial.push_back(core::pareto_sweep(experiment, policy_kind::synts_offline,
                                                spec.theta_multipliers));
        }
        const auto t1 = std::chrono::steady_clock::now();
        serial_seconds = std::chrono::duration<double>(t1 - t0).count();
    }

    const std::vector<std::size_t> worker_counts = {1, 2, 4, 8};
    std::vector<runtime::sweep_result> results;
    for (const std::size_t workers : worker_counts) {
        runtime::thread_pool pool(workers);
        runtime::experiment_cache cache; // fresh: no reuse across runs
        runtime::sweep_scheduler scheduler(pool, cache);
        results.push_back(scheduler.run(spec));
    }

    // Bit-identity: scheduler cells vs the serial path, exact ==.
    bool identical_to_serial = true;
    for (const runtime::sweep_result& result : results) {
        for (std::size_t p = 0; p < serial.size(); ++p) {
            const auto& cell = result.cells[p]; // one policy -> cell index = pair index
            for (std::size_t i = 0; i < serial[p].size(); ++i) {
                identical_to_serial = identical_to_serial &&
                                      cell.pareto[i].theta == serial[p][i].theta &&
                                      cell.pareto[i].energy == serial[p][i].energy &&
                                      cell.pareto[i].time == serial[p][i].time;
            }
        }
    }

    const double base_seconds = results.front().wall_seconds;
    util::text_table table(
        {"workers", "wall (s)", "speedup vs 1", "efficiency (%)", "characterizations"});
    for (std::size_t i = 0; i < worker_counts.size(); ++i) {
        table.begin_row();
        table.cell(static_cast<long long>(worker_counts[i]));
        table.cell(results[i].wall_seconds, 3);
        table.cell(base_seconds / results[i].wall_seconds, 2);
        table.cell(100.0 * base_seconds / results[i].wall_seconds /
                       static_cast<double>(worker_counts[i]),
                   1);
        table.cell(static_cast<long long>(results[i].cache_misses));
    }
    std::printf("%s\n", table.render().c_str());

    const double speedup_at_4 = base_seconds / results[2].wall_seconds;
    std::printf("  hardware threads: %u, serial (no runtime) baseline: %.3f s\n",
                std::thread::hardware_concurrency(), serial_seconds);
    std::printf("  speedup at 4 workers vs 1 worker: %.2fx (target >= 2x, needs >= 4 "
                "hardware threads)\n",
                speedup_at_4);
    std::printf("  scheduler results bit-identical to serial pareto_sweep: %s\n",
                identical_to_serial ? "yes" : "NO");
    bench::note("every run above re-characterized all 21 pairs from scratch; within");
    bench::note("one process the cache makes repeat sweeps ~free (see fig benches).");
    std::printf("\n");
    return identical_to_serial ? 0 : 1;
}
