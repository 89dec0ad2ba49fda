#include "core/characterization.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "circuit/dynamic_timing.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace synts::core {

namespace {

/// Sentinel for "no driving op precedes the chunk" (fresh sim state).
constexpr std::size_t no_driving_op = static_cast<std::size_t>(-1);

/// Index of the last op before `end` in `trace` that drives the stage, or
/// no_driving_op when none does.
std::size_t last_driving_op(const arch::thread_trace& trace, const arch::stage_tap& tap,
                            std::size_t end) noexcept
{
    for (std::size_t n = end; n > 0; --n) {
        if (tap.drives_stage(trace.ops[n - 1])) {
            return n - 1;
        }
    }
    return no_driving_op;
}

} // namespace

empirical_error_model stage_characterization::make_error_model(std::size_t thread,
                                                               std::size_t interval) const
{
    const interval_characterization& data = threads.at(thread).at(interval);
    return empirical_error_model(data.delay_histograms, tnom_ps, data.drive_fraction());
}

characterizer::characterizer(const circuit::cell_library& lib,
                             const circuit::voltage_model& vm,
                             characterization_config config)
    : lib_(lib), vm_(vm), config_(std::move(config))
{
}

stage_characterization characterizer::characterize(const program_artifacts& program,
                                                   circuit::pipe_stage stage,
                                                   const util::parallel_for_fn& parallel,
                                                   std::size_t worker_hint) const
{
    program.validate();

    obs::metrics_registry& registry = obs::metrics_registry::global();
    obs::counter& cells_counter = registry.counter_at("characterize.cells");
    obs::counter& vectors_counter = registry.counter_at("characterize.vectors");
    obs::latency_histogram& cell_ns = registry.histogram_at("characterize.cell_ns");
    obs::health_monitor& slow_cells = obs::health_monitor::cell_monitor();
    const obs::trace_span span(obs::trace_recorder::global(), [stage] {
        return std::string("characterize.stage:") + circuit::pipe_stage_name(stage);
    });

    const circuit::stage_netlist stage_nl = circuit::build_stage(stage);
    const auto corners = circuit::paper_voltage_levels();

    stage_characterization result;
    result.stage = stage;
    result.corner_vdd.assign(corners.begin(), corners.end());

    // One STA pass for the whole stage: the corner tables (per-gate delays
    // and the nominal periods, which depend only on (netlist, corner), not
    // on stepping history) are computed once up front and shared by every
    // cell's simulator.
    const std::shared_ptr<const circuit::timing_corner_tables> tables =
        circuit::make_corner_tables(stage_nl.nl, lib_, vm_, corners);
    result.tnom_ps = tables->nominal_period_ps;

    const arch::stage_tap tap(stage, stage_nl.layout);
    const std::size_t thread_count = program.trace.thread_count();
    const std::size_t interval_count = program.trace.interval_count();

    result.threads.resize(thread_count);
    for (auto& intervals : result.threads) {
        intervals.resize(interval_count);
    }

    // The task grain is a contiguous run of intervals of one thread. Within
    // a chunk the simulator CHAINS -- the carried state entering interval k
    // is the settled last driving vector before k, exactly what a per-cell
    // warm-up replay reconstructs -- so chunking eliminates all warm-up
    // work except one step at chunk entry. Chunk count scales with the
    // worker pool: enough chunks to load every worker (with slack for
    // imbalance), never more. At one worker this is ONE chunk per thread,
    // i.e. the plain serial walk with zero replay.
    std::size_t workers = worker_hint;
    if (workers == 0) {
        workers = parallel ? std::max<std::size_t>(std::thread::hardware_concurrency(), 1)
                           : 1;
    }
    std::size_t chunks_per_thread = 1;
    if (workers > 1 && thread_count > 0 && interval_count > 0) {
        // Aim for ~4 chunks per worker across all threads so the tail of an
        // uneven schedule still has unclaimed chunks to hand out.
        const std::size_t target_chunks = 4 * workers;
        chunks_per_thread = (target_chunks + thread_count - 1) / thread_count;
        chunks_per_thread = std::clamp<std::size_t>(chunks_per_thread, 1, interval_count);
    }

    struct chunk {
        std::size_t thread = 0;
        std::size_t begin_interval = 0;
        std::size_t end_interval = 0;
    };
    std::vector<chunk> chunks;
    chunks.reserve(thread_count * chunks_per_thread);
    for (std::size_t t = 0; t < thread_count; ++t) {
        for (std::size_t i = 0; i < chunks_per_thread; ++i) {
            const std::size_t begin = interval_count * i / chunks_per_thread;
            const std::size_t end = interval_count * (i + 1) / chunks_per_thread;
            if (begin < end) {
                chunks.push_back(chunk{t, begin, end});
            }
        }
    }

    const std::size_t corner_count = tables->vdd.size();
    const std::vector<double>& tnom_ps = tables->nominal_period_ps;
    constexpr std::size_t lanes_max = circuit::dynamic_timing_simulator::max_batch_lanes;

    util::for_each_index(parallel, chunks.size(), [&](std::size_t ci) {
        const chunk& ch = chunks[ci];
        const arch::thread_trace& trace = program.trace.threads[ch.thread];

        circuit::dynamic_timing_simulator sim(stage_nl.nl, tables);
        std::vector<std::uint64_t> lane_words(tap.width());
        std::array<std::uint32_t, lanes_max> lane_op_index{};
        std::vector<double> lane_delays(corner_count * lanes_max);

        // Chunk entry: replay the last driving vector of the preceding
        // history (delays discarded), reproducing the carried state a
        // serial walk would bring here. The backward scan stops at the
        // first driving op, so it is short unless the stage almost never
        // fires -- and then there is little simulation to amortize anyway.
        const std::size_t chunk_begin_op =
            ch.begin_interval == 0 ? 0 : trace.barrier_points[ch.begin_interval - 1];
        const std::size_t warmup_op = last_driving_op(trace, tap, chunk_begin_op);
        if (warmup_op != no_driving_op) {
            const auto bits_storage = std::make_unique<bool[]>(tap.width());
            const std::span<bool> bits(bits_storage.get(), tap.width());
            if (!tap.extract(trace.ops[warmup_op], bits)) {
                throw std::logic_error(
                    "characterizer: warm-up op does not drive the stage");
            }
            std::vector<double> discard(corner_count);
            sim.step(std::span<const bool>(bits_storage.get(), tap.width()), discard);
        }

        for (std::size_t k = ch.begin_interval; k < ch.end_interval; ++k) {
            const obs::monitored_timer timer(
                cell_ns, slow_cells, [stage, &ch, k] {
                    return std::string("stage=") + circuit::pipe_stage_name(stage) +
                           " thread=" + std::to_string(ch.thread) +
                           " interval=" + std::to_string(k);
                });
            const auto ops = trace.interval(k);

            interval_characterization data;
            data.delay_histograms.reserve(corner_count);
            for (std::size_t c = 0; c < corner_count; ++c) {
                data.delay_histograms.emplace_back(
                    0.0, tnom_ps[c] * config_.histogram_headroom, config_.histogram_bins);
            }
            data.instruction_count = ops.size();

            std::size_t offset = 0;
            while (offset < ops.size()) {
                const arch::stage_tap::batch_result batch = tap.extract_batch(
                    ops.subspan(offset), lane_words,
                    std::span<std::uint32_t>(lane_op_index.data(), lanes_max));
                if (batch.lanes > 0) {
                    const std::size_t lanes = batch.lanes;
                    const std::span<double> delays(lane_delays.data(),
                                                   corner_count * lanes);
                    sim.step_batch(lane_words, lanes, delays);

                    data.vector_count += lanes;
                    for (std::size_t c = 0; c < corner_count; ++c) {
                        // Corner-major delay layout: one contiguous bulk
                        // insert per corner.
                        data.delay_histograms[c].add(delays.subspan(c * lanes, lanes));
                    }
                    if (config_.keep_sampling_trace) {
                        for (std::size_t j = 0; j < lanes; ++j) {
                            data.sampling_delays_ps.push_back(
                                static_cast<float>(lane_delays[j]));
                            data.sampling_instr_index.push_back(
                                static_cast<std::uint32_t>(offset + lane_op_index[j]));
                        }
                    }
                }
                offset += batch.ops_consumed;
            }

            cells_counter.add(1);
            vectors_counter.add(data.vector_count);
            result.threads[ch.thread][k] = std::move(data);
        }
    });
    return result;
}

} // namespace synts::core
