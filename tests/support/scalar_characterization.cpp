#include "support/scalar_characterization.h"

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "arch/stage_taps.h"
#include "circuit/dynamic_timing.h"

namespace synts::test_support {

namespace {

/// Sentinel for "no driving op precedes the interval" (fresh sim state).
constexpr std::size_t no_warmup_op = static_cast<std::size_t>(-1);

/// One (thread, interval) cell. A settled netlist's node values are a pure
/// function of the last applied vector, so replaying `warmup_op` with its
/// delays discarded reproduces exactly the state a serial walk of the
/// whole thread would carry into this interval.
core::interval_characterization
characterize_cell(const core::characterization_config& config,
                  const circuit::stage_netlist& stage_nl, const arch::stage_tap& tap,
                  const std::shared_ptr<const circuit::timing_corner_tables>& tables,
                  const arch::thread_trace& trace, std::size_t interval,
                  std::size_t warmup_op)
{
    const std::size_t corner_count = tables->vdd.size();
    circuit::dynamic_timing_simulator sim(stage_nl.nl, tables);
    const auto bits_storage = std::make_unique<bool[]>(tap.width());
    const std::span<bool> bits(bits_storage.get(), tap.width());
    const std::span<const bool> inputs(bits_storage.get(), tap.width());
    std::vector<double> corner_delays(corner_count);

    if (warmup_op != no_warmup_op) {
        if (!tap.extract(trace.ops[warmup_op], bits)) {
            throw std::logic_error("scalar_characterize: warm-up op does not drive the stage");
        }
        sim.step(inputs, corner_delays);
    }

    core::interval_characterization data;
    data.delay_histograms.reserve(corner_count);
    for (std::size_t c = 0; c < corner_count; ++c) {
        data.delay_histograms.emplace_back(
            0.0, tables->nominal_period_ps[c] * config.histogram_headroom,
            config.histogram_bins);
    }

    const auto ops = trace.interval(interval);
    data.instruction_count = ops.size();
    for (std::size_t n = 0; n < ops.size(); ++n) {
        if (!tap.extract(ops[n], bits)) {
            continue;
        }
        sim.step(inputs, corner_delays);
        ++data.vector_count;
        for (std::size_t c = 0; c < corner_count; ++c) {
            data.delay_histograms[c].add(corner_delays[c]);
        }
        if (config.keep_sampling_trace) {
            data.sampling_delays_ps.push_back(static_cast<float>(corner_delays[0]));
            data.sampling_instr_index.push_back(static_cast<std::uint32_t>(n));
        }
    }
    return data;
}

} // namespace

core::stage_characterization
scalar_characterize(const circuit::cell_library& lib, const circuit::voltage_model& vm,
                    const core::characterization_config& config,
                    const core::program_artifacts& program, circuit::pipe_stage stage)
{
    program.validate();

    const circuit::stage_netlist stage_nl = circuit::build_stage(stage);
    const auto corners = circuit::paper_voltage_levels();
    const std::shared_ptr<const circuit::timing_corner_tables> tables =
        circuit::make_corner_tables(stage_nl.nl, lib, vm, corners);
    const arch::stage_tap tap(stage, stage_nl.layout);

    core::stage_characterization result;
    result.stage = stage;
    result.corner_vdd.assign(corners.begin(), corners.end());
    result.tnom_ps = tables->nominal_period_ps;

    const std::size_t interval_count = program.trace.interval_count();
    result.threads.resize(program.trace.thread_count());
    for (std::size_t t = 0; t < result.threads.size(); ++t) {
        const arch::thread_trace& trace = program.trace.threads[t];
        // Each interval's replay vector is the last op before it that
        // drives the stage; one forward scan finds them all.
        std::size_t last_driving = no_warmup_op;
        std::size_t begin = 0;
        result.threads[t].reserve(interval_count);
        for (std::size_t k = 0; k < interval_count; ++k) {
            result.threads[t].push_back(
                characterize_cell(config, stage_nl, tap, tables, trace, k, last_driving));
            for (std::size_t n = begin; n < trace.barrier_points[k]; ++n) {
                if (tap.drives_stage(trace.ops[n])) {
                    last_driving = n;
                }
            }
            begin = trace.barrier_points[k];
        }
    }
    return result;
}

} // namespace synts::test_support
