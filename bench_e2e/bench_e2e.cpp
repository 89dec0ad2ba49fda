// bench_e2e -- end-to-end sweep benchmark with an outside-in per-layer ledger.
//
// Runs one workload through the production entry point
// runtime::sweep_scheduler::run, times it, checks its output, and (with
// --trace 1) replays the same sweep as the public calls the scheduler makes,
// timing each call from outside. run.py builds and drives this binary;
// NOTES.md says why each workload exists and which layer should move which
// end-to-end metric.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// The last line of stdout is one JSON object: raw metric values plus the
// counts run.py turns into error_rate. Files written: DIR/sweep_doc.json (the
// first timed sweep's document, for the recorded-digest check),
// DIR/{tasks,spans}.csv (traced runs), DIR/store* (artifact stores).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "arch/multicore.h"
#include "arch/stage_taps.h"
#include "circuit/cell_library.h"
#include "circuit/dynamic_timing.h"
#include "circuit/netlist_builder.h"
#include "circuit/voltage_model.h"
#include "core/characterization.h"
#include "core/experiment.h"
#include "core/program_artifacts.h"
#include "core/solver.h"
#include "obs/metrics.h"
#include "runtime/experiment_cache.h"
#include "runtime/sweep.h"
#include "runtime/sweep_io.h"
#include "runtime/thread_pool.h"
#include "storage/artifact_store.h"
#include "storage/serialize.h"
#include "util/hashing.h"
#include "util/histogram.h"
#include "workload/registry.h"
#include "workload/splash2.h"

namespace {

using namespace synts;
namespace fs = std::filesystem;

// ------------------------------------------------------------------ setup --

enum class workload_kind { sweep_serial, sweep_parallel_store, pareto_warm_m16 };

/// Points of pareto_warm_m16's log-spaced theta ladder, 2^-6 .. 2^6. Sized
/// so one warm re-sweep is long enough to time (about a second on 4 cores)
/// while the policy/solver layer, not the cache lookup, does the work.
constexpr std::size_t dense_ladder_points = 49;

/// Timed sweeps per run, at least: a median needs a few samples even when
/// --seconds is shorter than three sweeps.
constexpr std::size_t min_sweeps = 3;

std::optional<workload_kind> parse_workload(std::string_view name)
{
    if (name == "sweep_serial") {
        return workload_kind::sweep_serial;
    }
    if (name == "sweep_parallel_store") {
        return workload_kind::sweep_parallel_store;
    }
    if (name == "pareto_warm_m16") {
        return workload_kind::pareto_warm_m16;
    }
    return std::nullopt;
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t online_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return std::max(1, CPU_COUNT(&set));
    }
    return 1;
}

/// The sweep a workload runs: the paper's reported seven x every stage x
/// every policy. The seed is the only input the caller chooses.
runtime::sweep_spec make_spec(workload_kind kind, std::uint64_t seed)
{
    runtime::sweep_spec spec;
    for (const workload::benchmark_id id : workload::reported_benchmarks()) {
        spec.benchmarks.emplace_back(id);
    }
    spec.stages = runtime::parse_stage_list("all");
    const auto policies = core::all_policies();
    spec.policies.assign(policies.begin(), policies.end());
    spec.config.seed = seed;
    if (kind == workload_kind::pareto_warm_m16) {
        spec.config.thread_count = 16;
        for (std::size_t i = 0; i < dense_ladder_points; ++i) {
            const double exponent = -6.0 + 12.0 * static_cast<double>(i) /
                                               static_cast<double>(dense_ladder_points - 1);
            spec.theta_multipliers.push_back(std::exp2(exponent));
        }
    } else {
        spec.theta_multipliers = core::default_theta_multipliers();
    }
    return spec;
}

/// What a timed sweep runs on. sweep_* get a fresh (cold) cache -- and a
/// fresh store -- before every sweep; pareto_warm_m16 keeps the cache its
/// set-up warmed.
struct rig {
    std::unique_ptr<runtime::thread_pool> pool;
    std::unique_ptr<runtime::experiment_cache> cache;
    std::shared_ptr<storage::artifact_store> store;
};

void reset_cache(rig& r, workload_kind kind, const fs::path& store_dir)
{
    r.cache = std::make_unique<runtime::experiment_cache>();
    r.store.reset();
    if (kind == workload_kind::sweep_parallel_store) {
        fs::remove_all(store_dir);
        r.store = std::make_shared<storage::artifact_store>(store_dir);
        r.cache->attach_store(r.store);
    }
}

rig set_up(workload_kind kind, const runtime::sweep_spec& spec, const fs::path& store_dir)
{
    rig r;
    r.pool = std::make_unique<runtime::thread_pool>(
        kind == workload_kind::sweep_serial ? 1 : online_cpus());
    reset_cache(r, kind, store_dir);
    if (kind == workload_kind::pareto_warm_m16) {
        for (const auto& [workload, stage] : spec.expanded_pairs()) {
            (void)r.cache->get_or_create(workload, stage, spec.config, r.pool.get());
        }
    }
    return r;
}

// ---------------------------------------------------------------- helpers --

double seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// User + system CPU seconds of the whole process (every pool thread).
double process_cpu_seconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto sec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double peak_rss_mib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

std::string sweep_document(const runtime::sweep_result& result)
{
    std::ostringstream out;
    runtime::write_sweep_json(result, out); // no meta line: byte-stable
    return out.str();
}

bool same_histograms(const std::vector<util::histogram>& a,
                     const std::vector<util::histogram>& b)
{
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t c = 0; c < a.size(); ++c) {
        if (a[c].bin_count() != b[c].bin_count() || a[c].total() != b[c].total()) {
            return false;
        }
        for (std::size_t i = 0; i < a[c].bin_count(); ++i) {
            if (a[c].count_at(i) != b[c].count_at(i)) {
                return false;
            }
        }
    }
    return true;
}

bool same_characterization(const core::stage_characterization& a,
                           const core::stage_characterization& b)
{
    if (a.threads.size() != b.threads.size()) {
        return false;
    }
    for (std::size_t t = 0; t < a.threads.size(); ++t) {
        if (a.threads[t].size() != b.threads[t].size()) {
            return false;
        }
        for (std::size_t k = 0; k < a.threads[t].size(); ++k) {
            const core::interval_characterization& x = a.threads[t][k];
            const core::interval_characterization& y = b.threads[t][k];
            if (x.vector_count != y.vector_count ||
                x.instruction_count != y.instruction_count ||
                !same_histograms(x.delay_histograms, y.delay_histograms)) {
                return false;
            }
        }
    }
    return true;
}

/// Every cell the store holds for `result` decodes to the cell in memory.
bool store_matches(const storage::artifact_store& store, const runtime::sweep_result& result)
{
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        const std::optional<std::string> frame = store.load(
            storage::cell_bucket, runtime::sweep_cell_digest(result.spec_digest, i));
        if (!frame || *frame != storage::encode(result.cells[i])) {
            return false;
        }
    }
    return true;
}

// ----------------------------------------------------------------- ledger --

/// Span names: one per public call the ledger times. `program` and `pair`
/// are the per-task roots (their self time is harness bookkeeping); `replay`
/// parents the kernel replay's calls.
enum class span : std::uint8_t {
    program, pair, trace_gen, profile, experiment, characterize, replay, sta, tap,
    step_batch, histogram, theta_eq, policy_nominal, policy_no_ts, policy_per_core_ts,
    policy_synts_offline, policy_synts_online, pareto, solver, encode, write, read,
    decode, count_
};

constexpr std::array<std::string_view, static_cast<std::size_t>(span::count_)> span_names = {
    "program", "pair", "workload.trace_gen", "arch.profile", "core.experiment",
    "core.characterize", "kernel.replay", "circuit.sta", "arch.tap",
    "circuit.step_batch", "util.histogram", "core.theta_eq", "core.policy.nominal",
    "core.policy.no_ts", "core.policy.per_core_ts", "core.policy.synts_offline",
    "core.policy.synts_online", "core.pareto", "core.solver.synts_poly",
    "storage.encode", "storage.write", "storage.read", "storage.decode",
};

span policy_span(core::policy_kind kind)
{
    return static_cast<span>(static_cast<std::size_t>(span::policy_nominal) +
                             static_cast<std::size_t>(kind));
}

std::uint64_t now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Spans and counts of one task (one program or one pair), all recorded on
/// the executor that ran it, so children never overlap each other.
struct span_log {
    struct record {
        span name = span::pair;
        std::int32_t parent = -1;
        std::uint64_t begin_ns = 0;
        std::uint64_t end_ns = 0;
    };

    std::string task;       ///< "program:<name>" or "pair:<name>/<stage>"
    bool timed_phase = true; ///< false for pareto_warm_m16's set-up work
    std::vector<record> records;
    std::vector<std::int32_t> open_stack;

    std::uint64_t ops = 0;           ///< micro-ops generated
    std::uint64_t tap_calls = 0;     ///< extract_batch calls
    std::uint64_t tap_scanned = 0;   ///< ops scanned by extract_batch
    std::uint64_t vectors = 0;       ///< lanes simulated by step_batch
    std::uint64_t solver_calls = 0;
    std::uint64_t bytes_written = 0;

    bool replay_identical = true;
    std::vector<std::string> failures; ///< output checks this task failed

    void check(bool ok, std::string_view what)
    {
        if (!ok) {
            failures.push_back(task + ": " + std::string(what));
        }
    }
};

class span_scope {
public:
    span_scope(span_log& log, span name) : log_(log)
    {
        index_ = static_cast<std::int32_t>(log_.records.size());
        const std::int32_t parent = log_.open_stack.empty() ? -1 : log_.open_stack.back();
        log_.records.push_back({name, parent, now_ns(), 0});
        log_.open_stack.push_back(index_);
    }
    ~span_scope()
    {
        log_.records[static_cast<std::size_t>(index_)].end_ns = now_ns();
        log_.open_stack.pop_back();
    }
    span_scope(const span_scope&) = delete;
    span_scope& operator=(const span_scope&) = delete;

private:
    span_log& log_;
    std::int32_t index_ = 0;
};

/// Re-runs characterize()'s batched kernel from outside -- extract_batch ->
/// step_batch -> histogram::add, one chained simulator per thread, which is
/// characterize()'s one-executor partition -- timing every call. Returns
/// whether every histogram equals `reference` count for count.
bool replay_kernel(const core::program_artifacts& program, circuit::pipe_stage stage,
                   const core::characterization_config& config,
                   const circuit::cell_library& lib, const circuit::voltage_model& vm,
                   const core::stage_characterization& reference, span_log& log)
{
    const span_scope replay(log, span::replay);
    const circuit::stage_netlist stage_nl = circuit::build_stage(stage);
    std::shared_ptr<const circuit::timing_corner_tables> tables;
    {
        const span_scope sta(log, span::sta);
        tables = circuit::make_corner_tables(stage_nl.nl, lib, vm,
                                             circuit::paper_voltage_levels());
    }
    const arch::stage_tap tap(stage, stage_nl.layout);
    const std::size_t corners = tables->vdd.size();
    constexpr std::size_t lanes_max = circuit::dynamic_timing_simulator::max_batch_lanes;
    std::vector<std::uint64_t> lane_words(tap.width());
    std::array<std::uint32_t, lanes_max> lane_op_index{};
    std::vector<double> lane_delays(corners * lanes_max);

    bool identical = reference.threads.size() == program.trace.thread_count();
    for (std::size_t t = 0; identical && t < program.trace.thread_count(); ++t) {
        const arch::thread_trace& trace = program.trace.threads[t];
        circuit::dynamic_timing_simulator sim(stage_nl.nl, tables);
        for (std::size_t k = 0; k < program.trace.interval_count(); ++k) {
            std::vector<util::histogram> histograms;
            histograms.reserve(corners);
            for (std::size_t c = 0; c < corners; ++c) {
                histograms.emplace_back(
                    0.0, tables->nominal_period_ps[c] * config.histogram_headroom,
                    config.histogram_bins);
            }
            const auto ops = trace.interval(k);
            std::uint64_t vectors = 0;
            std::size_t offset = 0;
            while (offset < ops.size()) {
                arch::stage_tap::batch_result batch;
                {
                    const span_scope s(log, span::tap);
                    batch = tap.extract_batch(
                        ops.subspan(offset), lane_words,
                        std::span<std::uint32_t>(lane_op_index.data(), lanes_max));
                }
                ++log.tap_calls;
                log.tap_scanned += batch.ops_consumed;
                if (batch.lanes > 0) {
                    const std::span<double> delays(lane_delays.data(), corners * batch.lanes);
                    {
                        const span_scope s(log, span::step_batch);
                        sim.step_batch(lane_words, batch.lanes, delays);
                    }
                    {
                        const span_scope s(log, span::histogram);
                        for (std::size_t c = 0; c < corners; ++c) {
                            histograms[c].add(delays.subspan(c * batch.lanes, batch.lanes));
                        }
                    }
                    vectors += batch.lanes;
                }
                offset += batch.ops_consumed;
            }
            log.vectors += vectors;
            const core::interval_characterization& want = reference.threads[t].at(k);
            identical = identical && vectors == want.vector_count &&
                        same_histograms(histograms, want.delay_histograms);
        }
    }
    return identical;
}

/// Encodes `value`, writes it to `store`, reads it back and decodes it;
/// returns whether the decoded value re-encodes to the written bytes.
template <typename T, typename Decode>
bool store_round_trip(storage::artifact_store& store, std::string_view bucket,
                      std::uint64_t key, const T& value, Decode decode, span_log& log)
{
    std::string frame;
    {
        const span_scope s(log, span::encode);
        frame = storage::encode(value);
    }
    bool written = false;
    {
        const span_scope s(log, span::write);
        written = store.store(bucket, key, frame);
    }
    log.bytes_written += frame.size();
    std::optional<std::string> loaded;
    {
        const span_scope s(log, span::read);
        loaded = store.load(bucket, key);
    }
    if (!written || !loaded) {
        return false;
    }
    std::optional<T> decoded;
    {
        const span_scope s(log, span::decode);
        decoded = decode(*loaded);
    }
    return storage::encode(*decoded) == frame;
}

/// Per-name span durations and counts over a set of span logs.
struct ledger_totals {
    std::array<double, static_cast<std::size_t>(span::count_)> duration_s{};
    std::uint64_t ops = 0, tap_calls = 0, tap_scanned = 0, vectors = 0;
    std::uint64_t solver_calls = 0, bytes_written = 0;

    [[nodiscard]] double dur(span name) const
    {
        return duration_s[static_cast<std::size_t>(name)];
    }

    void add(const span_log& log)
    {
        for (const span_log::record& r : log.records) {
            duration_s[static_cast<std::size_t>(r.name)] +=
                static_cast<double>(r.end_ns - r.begin_ns) * 1e-9;
        }
        ops += log.ops;
        tap_calls += log.tap_calls;
        tap_scanned += log.tap_scanned;
        vectors += log.vectors;
        solver_calls += log.solver_calls;
        bytes_written += log.bytes_written;
    }
};

/// The traced replay of one workload's sweep.
struct traced_run {
    std::vector<span_log> logs;
    std::string document;        ///< sweep document assembled from the traced cells
    double timed_wall_s = 0.0;   ///< wall time of the timed-phase decomposition
    std::size_t cells = 0;
    bool replay_identical = true;
    std::vector<std::string> failures;
};

/// Breaks `spec`'s sweep into the public calls sweep_scheduler makes and
/// times each from outside. Each program and each pair is one task whose
/// calls are issued serially on one executor; tasks fan out over a pool of
/// `executors` so the M = 16 set-up fits a run. Phases: programs (trace
/// generation, profiling), pair builds (experiment, a separate characterize,
/// the kernel replay), pair evaluations (theta_eq, policies, Pareto, solver).
/// Every artifact and cell also takes a store round trip.
traced_run trace_sweep(workload_kind kind, const runtime::sweep_spec& spec,
                       std::size_t executors, const fs::path& store_dir)
{
    traced_run run;
    const bool setup_is_untimed = kind == workload_kind::pareto_warm_m16;
    const core::experiment_config& config = spec.config;
    const std::vector<runtime::benchmark_stage> pairs = spec.expanded_pairs();
    const std::size_t policy_count = spec.policies.size();
    const std::uint64_t spec_digest = spec.digest();

    fs::remove_all(store_dir);
    storage::artifact_store store(store_dir);
    runtime::thread_pool pool(executors);

    // Runs task(i) for i in [0, n) on the pool; the caller only waits, so
    // exactly `executors` threads do the work. Every task settles before the
    // first failure is rethrown: the tasks reference this frame.
    const auto fan_out = [&pool](std::size_t n, const auto& task) {
        std::vector<std::future<void>> done;
        done.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            done.push_back(pool.submit([&task, i] { task(i); }));
        }
        std::exception_ptr first_error;
        for (std::future<void>& f : done) {
            try {
                f.get();
            } catch (...) {
                if (!first_error) {
                    first_error = std::current_exception();
                }
            }
        }
        if (first_error) {
            std::rethrow_exception(first_error);
        }
    };

    const std::size_t program_count = spec.benchmarks.size();
    std::vector<span_log> program_logs(program_count);
    std::vector<std::shared_ptr<const core::program_artifacts>> programs(program_count);
    const auto t_setup = std::chrono::steady_clock::now();
    fan_out(program_count, [&](std::size_t p) {
        span_log& log = program_logs[p];
        const workload::workload_key& key = spec.benchmarks[p];
        log.task = "program:" + key.name;
        log.timed_phase = !setup_is_untimed;
        const span_scope root(log, span::program);
        auto artifacts = std::make_shared<core::program_artifacts>();
        artifacts->workload = key;
        artifacts->thread_count = config.thread_count;
        artifacts->seed = config.seed;
        artifacts->workload_digest = config.workload_digest();
        {
            const span_scope s(log, span::trace_gen);
            const workload::benchmark_profile profile =
                workload::workload_registry::global().make_profile(key, config.thread_count);
            artifacts->trace = workload::generate_program_trace(profile, config.seed);
        }
        for (const arch::thread_trace& thread : artifacts->trace.threads) {
            log.ops += thread.ops.size();
        }
        {
            const span_scope s(log, span::profile);
            arch::multicore_profiler profiler(config.characterization.core);
            artifacts->arch_profiles = profiler.profile(artifacts->trace);
        }
        log.check(store_round_trip(
                      store, storage::program_bucket,
                      runtime::program_key{key, config.workload_digest()}.digest(),
                      *artifacts,
                      [](std::string_view f) { return storage::decode_program_artifacts(f); },
                      log),
                  "store round trip");
        programs[p] = std::move(artifacts);
    });

    std::vector<span_log> build_logs(pairs.size());
    std::vector<std::shared_ptr<const core::benchmark_experiment>> experiments(pairs.size());
    const auto program_of = [&](std::size_t pair) { return pair / spec.stages.size(); };
    fan_out(pairs.size(), [&](std::size_t p) {
        const auto& [key, stage] = pairs[p];
        span_log& log = build_logs[p];
        log.task = "pair:" + key.name + "/" + circuit::pipe_stage_name(stage);
        log.timed_phase = !setup_is_untimed;
        const circuit::cell_library lib = circuit::cell_library::standard_22nm();
        const circuit::voltage_model vm(config.voltage_class_spread);
        const span_scope root(log, span::pair);
        const core::program_artifacts& artifacts = *programs[program_of(p)];
        {
            const span_scope s(log, span::experiment);
            experiments[p] = std::make_shared<const core::benchmark_experiment>(
                programs[program_of(p)], stage, config);
        }
        core::stage_characterization separate;
        {
            const span_scope s(log, span::characterize);
            separate = core::characterizer(lib, vm, config.characterization)
                           .characterize(artifacts, stage);
        }
        const core::stage_characterization& built = experiments[p]->characterization();
        log.check(same_characterization(separate, built),
                  "characterize differs from the experiment's characterization");
        log.replay_identical =
            replay_kernel(artifacts, stage, config.characterization, lib, vm, built, log);
        log.check(log.replay_identical, "kernel replay not bit-identical");
    });
    const double setup_wall_s = seconds_since(t_setup);

    std::vector<span_log> eval_logs(pairs.size());
    runtime::sweep_result traced;
    traced.spec = spec;
    traced.spec_digest = spec_digest;
    traced.cells.resize(pairs.size() * policy_count);
    const auto t_eval = std::chrono::steady_clock::now();
    fan_out(pairs.size(), [&](std::size_t p) {
        const auto& [key, stage] = pairs[p];
        span_log& log = eval_logs[p];
        log.task = "pair:" + key.name + "/" + circuit::pipe_stage_name(stage);
        const span_scope root(log, span::pair);
        const core::benchmark_experiment& experiment = *experiments[p];
        double theta_eq = 0.0;
        {
            const span_scope s(log, span::theta_eq);
            theta_eq = experiment.equal_weight_theta();
        }
        // Same sharing as the scheduler: one Nominal baseline per pair
        // serves the Nominal cell and every Pareto normalization.
        core::benchmark_experiment::policy_run baseline;
        if (!spec.theta_multipliers.empty()) {
            const span_scope s(log, span::policy_nominal);
            baseline = experiment.run_policy(core::policy_kind::nominal, theta_eq);
        }
        for (std::size_t q = 0; q < policy_count; ++q) {
            const std::size_t index = p * policy_count + q;
            runtime::sweep_cell& cell = traced.cells[index];
            cell.workload = key;
            cell.stage = stage;
            cell.policy = spec.policies[q];
            cell.task_seed = util::hash_mix(config.seed, index);
            cell.theta_eq = theta_eq;
            if (cell.policy == core::policy_kind::nominal && !spec.theta_multipliers.empty()) {
                cell.equal_weight = baseline;
            } else {
                const span_scope s(log, policy_span(cell.policy));
                cell.equal_weight = experiment.run_policy(cell.policy, theta_eq);
            }
            if (!spec.theta_multipliers.empty()) {
                const span_scope s(log, span::pareto);
                cell.pareto = core::pareto_sweep(experiment, cell.policy,
                                                 spec.theta_multipliers, theta_eq, baseline);
            }
            log.check(store_round_trip(
                          store, storage::cell_bucket,
                          runtime::sweep_cell_digest(spec_digest, index), cell,
                          [](std::string_view f) { return storage::decode_sweep_cell(f); },
                          log),
                      "store round trip of a cell");
        }
        // The SynTS-Poly solve per interval at every theta the cell visits.
        std::vector<double> thetas{theta_eq};
        for (const double m : spec.theta_multipliers) {
            thetas.push_back(theta_eq * m);
        }
        for (std::size_t k = 0; k < experiment.interval_count(); ++k) {
            for (const double theta : thetas) {
                const core::solver_input input = experiment.make_solver_input(k, theta);
                const span_scope s(log, span::solver);
                (void)core::solve_synts_poly(input);
                ++log.solver_calls;
            }
        }
    });
    const double eval_wall_s = seconds_since(t_eval);
    run.timed_wall_s = setup_is_untimed ? eval_wall_s : setup_wall_s + eval_wall_s;
    run.cells = traced.cells.size();
    run.document = sweep_document(traced);

    for (auto* logs : {&program_logs, &build_logs, &eval_logs}) {
        for (span_log& log : *logs) {
            run.replay_identical = run.replay_identical && log.replay_identical;
            run.failures.insert(run.failures.end(), log.failures.begin(), log.failures.end());
            run.logs.push_back(std::move(log));
        }
    }
    fs::remove_all(store_dir);
    return run;
}

/// Writes the spans at exit: tasks.csv names each task, spans.csv holds one
/// row per span (parent = row index within the task, -1 for its root).
void write_spans(const fs::path& dir, const std::vector<span_log>& logs)
{
    std::ofstream tasks(dir / "tasks.csv");
    std::ofstream spans(dir / "spans.csv");
    tasks << "task,name,phase\n";
    spans << "task,span,parent,name,begin_ns,end_ns\n";
    for (std::size_t t = 0; t < logs.size(); ++t) {
        const span_log& log = logs[t];
        tasks << t << ',' << log.task << ',' << (log.timed_phase ? "timed" : "setup") << '\n';
        for (std::size_t i = 0; i < log.records.size(); ++i) {
            const span_log::record& r = log.records[i];
            spans << t << ',' << i << ',' << r.parent << ','
                  << span_names[static_cast<std::size_t>(r.name)] << ',' << r.begin_ns << ','
                  << r.end_ns << '\n';
        }
    }
}

// ------------------------------------------------------------------- main --

struct options {
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    fs::path out;
    /// steady_clock (CLOCK_MONOTONIC) ns at which the parent launched this
    /// process; 0 = unknown, count from main().
    std::uint64_t launched_ns = 0;
    /// Stop after set-up and report only setup_s.
    bool setup_only = false;
};

options parse_options(int argc, char** argv)
{
    options opts;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string_view flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            opts.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            opts.seconds = std::stod(value);
        } else if (flag == "--trace") {
            opts.trace = value == "1";
        } else if (flag == "--out") {
            opts.out = value;
        } else if (flag == "--launched-ns") {
            opts.launched_ns = std::stoull(value);
        } else if (flag == "--setup-only") {
            opts.setup_only = value == "1";
        } else {
            throw std::invalid_argument("unknown flag " + std::string(flag));
        }
    }
    if (argc % 2 == 0 || opts.out.empty()) {
        throw std::invalid_argument(
            "usage: bench_e2e --workload NAME --seed N --seconds S --trace 0|1 --out DIR "
            "[--launched-ns NS] [--setup-only 0|1]");
    }
    return opts;
}

class json_object {
public:
    void number(std::string_view key, double value)
    {
        std::ostringstream v;
        v.precision(17);
        v << value;
        field(key, v.str());
    }
    void integer(std::string_view key, std::uint64_t value)
    {
        field(key, std::to_string(value));
    }
    void raw(std::string_view key, const std::string& json) { field(key, json); }
    [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

private:
    void field(std::string_view key, const std::string& value)
    {
        if (!body_.empty()) {
            body_ += ", ";
        }
        body_ += '"';
        body_ += key;
        body_ += "\": ";
        body_ += value;
    }
    std::string body_;
};

std::string json_string(std::string_view text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += c >= 0x20 ? c : ' ';
    }
    return out + '"';
}

/// What a run attempted and what failed, for error_rate.
struct tally {
    std::uint64_t attempted = 0;     ///< cells
    std::uint64_t threw = 0;         ///< cells of sweeps that threw
    std::uint64_t failed_checks = 0; ///< sweeps (or checks) whose output was wrong
    std::vector<std::string> failures;

    void fail(std::string what)
    {
        ++failed_checks;
        failures.push_back(std::move(what));
    }
};

/// Per-sweep samples of the timed phase.
struct timed_sweeps {
    std::vector<double> wall, cpu, rate, sweep_wall, vectors;
    /// Peak RSS through set-up and the first sweep: what one process running
    /// this sweep once holds. Later sweeps only add allocator fragmentation.
    double peak_rss_mb = 0.0;
    std::optional<runtime::sweep_result> first;
    std::string first_doc;
};

/// Output checks of one timed sweep; empty when it is correct.
std::string check_sweep(workload_kind kind, const runtime::sweep_spec& spec,
                        const runtime::sweep_result& result, const std::string& doc,
                        const timed_sweeps& so_far, double vectors,
                        const storage::artifact_store* store)
{
    const std::size_t pair_count = spec.expanded_pairs().size();
    std::string problems;
    if (result.cells.size() != spec.task_count()) {
        problems += " cell count;";
    }
    if (so_far.first && doc != so_far.first_doc) {
        problems += " document differs from the run's first sweep;";
    }
    if (kind == workload_kind::pareto_warm_m16) {
        // A warm sweep must hit every pair and simulate nothing.
        if (result.cache_hits != pair_count || result.cache_misses != 0 ||
            result.program_computes != 0 || vectors != 0.0) {
            problems += " warm sweep missed the cache or simulated vectors;";
        }
    } else if (result.cache_misses != pair_count ||
               result.program_computes != spec.benchmarks.size()) {
        problems += " cold sweep cache traffic;";
    }
    if (store != nullptr &&
        (result.cells_stored != result.cells.size() || !store_matches(*store, result))) {
        problems += " store does not hold every cell as computed;";
    }
    return problems;
}

/// Runs timed sweeps until `seconds` have passed (and at least min_sweeps),
/// checking each one's output outside the timed region.
timed_sweeps run_timed_sweeps(workload_kind kind, const runtime::sweep_spec& spec, rig& r,
                              const fs::path& store_dir, double seconds, tally& t)
{
    obs::counter& vectors_counter =
        obs::metrics_registry::global().counter_at("characterize.vectors");
    timed_sweeps out;
    const auto loop_start = std::chrono::steady_clock::now();
    while (out.wall.size() < min_sweeps || seconds_since(loop_start) < seconds) {
        if (!out.wall.empty() && kind != workload_kind::pareto_warm_m16) {
            reset_cache(r, kind, store_dir);
        }
        const runtime::sweep_scheduler scheduler(*r.pool, *r.cache);
        t.attempted += spec.task_count();
        const std::uint64_t vectors_before = vectors_counter.value();
        const double cpu0 = process_cpu_seconds();
        const auto t0 = std::chrono::steady_clock::now();
        runtime::sweep_result result;
        try {
            result = scheduler.run(spec);
        } catch (const std::exception& error) {
            out.wall.push_back(seconds_since(t0));
            t.threw += spec.task_count();
            t.failures.push_back(std::string("sweep threw: ") + error.what());
            continue;
        }
        const double wall = seconds_since(t0);
        out.cpu.push_back(process_cpu_seconds() - cpu0);
        out.wall.push_back(wall);
        out.rate.push_back(static_cast<double>(result.cells.size()) / wall);
        out.sweep_wall.push_back(result.wall_seconds);
        std::cerr << "bench_e2e: sweep " << out.wall.size() << ": " << wall << " s wall, "
                  << out.cpu.back() << " s cpu\n";
        out.vectors.push_back(static_cast<double>(vectors_counter.value() - vectors_before));

        std::string doc = sweep_document(result);
        const std::string problems =
            check_sweep(kind, spec, result, doc, out, out.vectors.back(), r.store.get());
        if (!problems.empty()) {
            t.fail("sweep " + std::to_string(out.wall.size()) + ":" + problems);
        }
        if (!out.first) {
            out.peak_rss_mb = peak_rss_mib();
            out.first = std::move(result);
            out.first_doc = std::move(doc);
        }
    }
    return out;
}

/// Independent-path check: pair `seed % pairs`, rebuilt from scratch
/// without scheduler or cache, must encode to the sweep's cells byte for
/// byte.
void check_direct_pair(const runtime::sweep_spec& spec, std::uint64_t seed,
                       runtime::thread_pool& pool, const runtime::sweep_result& swept,
                       tally& t)
{
    const std::vector<runtime::benchmark_stage> pairs = spec.expanded_pairs();
    const std::size_t p = seed % pairs.size();
    const core::benchmark_experiment experiment(
        core::make_program_artifacts(pairs[p].first, spec.config,
                                     runtime::make_parallel_for(pool)),
        pairs[p].second, spec.config, runtime::make_parallel_for(pool));
    const double theta_eq = experiment.equal_weight_theta();
    const auto baseline = experiment.run_policy(core::policy_kind::nominal, theta_eq);
    for (std::size_t q = 0; q < spec.policies.size(); ++q) {
        const runtime::sweep_cell& cell = swept.cells.at(p * spec.policies.size() + q);
        runtime::sweep_cell direct = cell;
        direct.theta_eq = theta_eq;
        direct.equal_weight = spec.policies[q] == core::policy_kind::nominal
                                  ? baseline
                                  : experiment.run_policy(spec.policies[q], theta_eq);
        direct.pareto = core::pareto_sweep(experiment, spec.policies[q],
                                           spec.theta_multipliers, theta_eq, baseline);
        if (storage::encode(direct) != storage::encode(cell)) {
            t.fail("direct rebuild of pair " + std::to_string(p) + " differs from the sweep");
            return;
        }
    }
}

/// The per-layer ledger of a traced run (see NOTES.md for definitions).
void add_ledger(json_object& metrics, workload_kind kind, const traced_run& traced,
                const timed_sweeps& sweeps)
{
    ledger_totals all, timed;
    for (const span_log& log : traced.logs) {
        all.add(log);
        if (log.timed_phase) {
            timed.add(log);
        }
    }
    const auto ratio = [](double num, double den) { return den == 0.0 ? 0.0 : num / den; };
    const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
    const double wall_s = median(sweeps.wall);
    const double cpu_s = median(sweeps.cpu);

    metrics.number("workload.trace_gen_s", all.dur(span::trace_gen));
    metrics.integer("workload.ops", all.ops);
    metrics.number("arch.profile_s", all.dur(span::profile));
    metrics.number("arch.tap_s", all.dur(span::tap));
    metrics.number("arch.tap_drive_ratio", ratio(count(all.vectors), count(all.tap_scanned)));
    metrics.number("arch.tap_lanes_per_call", ratio(count(all.vectors), count(all.tap_calls)));
    metrics.number("circuit.sta_s", all.dur(span::sta));
    metrics.number("circuit.step_batch_s", all.dur(span::step_batch));
    metrics.integer("circuit.vectors", all.vectors);
    metrics.integer("circuit.timed_vectors",
                    static_cast<std::uint64_t>(median(sweeps.vectors)));
    metrics.number("circuit.ns_per_vector",
                   ratio(all.dur(span::step_batch) * 1e9, count(all.vectors)));
    metrics.number("util.histogram_s", all.dur(span::histogram));
    // Virtual nesting: the replay splits characterize, and characterize is
    // the bulk of the experiment constructor.
    const double kernel = all.dur(span::sta) + all.dur(span::tap) +
                          all.dur(span::step_batch) + all.dur(span::histogram);
    metrics.number("core.characterize_s", all.dur(span::characterize) - kernel);
    metrics.number("core.experiment_s",
                   all.dur(span::experiment) - all.dur(span::characterize));
    metrics.number("core.theta_eq_s", all.dur(span::theta_eq));
    double policies = 0.0;
    for (const core::policy_kind policy : core::all_policies()) {
        const span s = policy_span(policy);
        policies += timed.dur(s);
        metrics.number(std::string(span_names[static_cast<std::size_t>(s)]) + "_s",
                       all.dur(s));
    }
    metrics.number("core.pareto_s", all.dur(span::pareto));
    metrics.number("core.solver.synts_poly_s", all.dur(span::solver));
    metrics.integer("core.solver.calls", all.solver_calls);
    metrics.number("storage.encode_s", all.dur(span::encode));
    metrics.number("storage.decode_s", all.dur(span::decode));
    metrics.number("storage.write_s", all.dur(span::write));
    metrics.number("storage.read_s", all.dur(span::read));
    metrics.integer("storage.bytes_written", all.bytes_written);
    const runtime::sweep_result* first = sweeps.first ? &*sweeps.first : nullptr;
    metrics.number("runtime.sweep_s", median(sweeps.sweep_wall));
    metrics.integer("runtime.cache_hits", first != nullptr ? first->cache_hits : 0);
    metrics.integer("runtime.cache_misses", first != nullptr ? first->cache_misses : 0);
    metrics.integer("runtime.program_computes",
                    first != nullptr ? first->program_computes : 0);
    metrics.number("runtime.busy_threads", ratio(cpu_s, wall_s));
    // The calls the production sweep itself makes; the separate
    // characterize, the replay, the solver re-issue and the store read-back
    // only split or check them.
    double layer_sum = timed.dur(span::trace_gen) + timed.dur(span::profile) +
                       timed.dur(span::experiment) + timed.dur(span::theta_eq) + policies +
                       timed.dur(span::pareto);
    if (kind == workload_kind::sweep_parallel_store) {
        layer_sum += timed.dur(span::encode) + timed.dur(span::write);
    }
    metrics.number("runtime.unattributed_share", 1.0 - ratio(layer_sum, cpu_s));
    metrics.number("bench.trace_overhead_ratio", ratio(traced.timed_wall_s, wall_s));
}

int run(const options& opts)
{
    const std::uint64_t launched_ns = opts.launched_ns != 0 ? opts.launched_ns : now_ns();
    const std::optional<workload_kind> kind = parse_workload(opts.workload);
    if (!kind) {
        std::cerr << "bench_e2e: unknown workload " << opts.workload << "\n";
        return 2;
    }
    fs::create_directories(opts.out);
    const fs::path store_dir = opts.out / "store";
    const runtime::sweep_spec spec = make_spec(*kind, opts.seed);

    // Set-up: process launch to the first timed call. run.py launches the
    // process several times and reports the median.
    rig r = set_up(*kind, spec, store_dir);
    const double setup_s = static_cast<double>(now_ns() - launched_ns) * 1e-9;
    std::cerr << "bench_e2e: " << opts.workload << " set up in " << setup_s << " s\n";
    json_object metrics;
    metrics.number("setup_s", setup_s);
    if (opts.setup_only) {
        std::cout << metrics.str() << std::endl;
        return 0;
    }

    tally t;
    const timed_sweeps sweeps = run_timed_sweeps(*kind, spec, r, store_dir, opts.seconds, t);
    if (r.store) {
        r.cache->attach_store(nullptr);
        fs::remove_all(store_dir);
    }
    if (sweeps.first) {
        check_direct_pair(spec, opts.seed, *r.pool, *sweeps.first, t);
        std::ofstream(opts.out / "sweep_doc.json") << sweeps.first_doc;
    }
    metrics.number("wall_s", median(sweeps.wall));
    metrics.number("cpu_s", median(sweeps.cpu));
    metrics.number("cells_per_s", median(sweeps.rate));
    metrics.number("peak_rss_mb", sweeps.peak_rss_mb);

    bool replay_identical = true;
    if (opts.trace) {
        const traced_run traced =
            trace_sweep(*kind, spec, online_cpus(), opts.out / "trace_store");
        t.attempted += traced.cells;
        replay_identical = traced.replay_identical;
        std::string problems;
        for (const std::string& f : traced.failures) {
            problems += " " + f + ";";
        }
        if (traced.document != sweeps.first_doc) {
            problems += " traced cells differ from the production sweep;";
        }
        if (!problems.empty()) {
            t.fail("traced:" + problems);
        }
        write_spans(opts.out, traced.logs);
        add_ledger(metrics, *kind, traced, sweeps);
    }

    std::string failure_list = "[";
    for (std::size_t i = 0; i < t.failures.size(); ++i) {
        failure_list += (i == 0 ? "" : ", ") + json_string(t.failures[i]);
        std::cerr << "bench_e2e: FAILED " << t.failures[i] << "\n";
    }
    failure_list += "]";

    json_object out;
    out.integer("sweeps", sweeps.wall.size());
    out.integer("attempted", t.attempted);
    out.integer("threw", t.threw);
    out.integer("failed_checks", t.failed_checks);
    out.raw("replay_identical", replay_identical ? "true" : "false");
    out.raw("failures", failure_list);
    out.number("run_s", static_cast<double>(now_ns() - launched_ns) * 1e-9);
    out.raw("metrics", metrics.str());
    std::cout << out.str() << std::endl;
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    try {
        return run(parse_options(argc, argv));
    } catch (const std::exception& error) {
        std::cerr << "bench_e2e: " << error.what() << "\n";
        return 2;
    }
}
