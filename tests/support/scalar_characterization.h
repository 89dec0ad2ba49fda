// scalar_characterization.h -- the scalar reference walk of the
// characterization pass, kept out of the production library.
//
// core::characterizer::characterize runs one path: chunked interval ranges,
// the 64-lane step_batch kernel, and bulk histogram inserts. This reference
// computes the same stage_characterization the slow, obvious way, through
// public circuit/arch APIs only: every (thread, interval) cell gets a fresh
// simulator, replays the last driving vector before the interval (delays
// discarded) to reconstruct the carried netlist state, then steps each
// driving vector through the scalar dynamic_timing_simulator::step(). The
// batched path must equal it bit for bit (tests/test_core_
// characterization_batch.cpp), and bench_characterization times the two
// to gate the kernel's speedup.

#pragma once

#include "circuit/cell_library.h"
#include "circuit/netlist_builder.h"
#include "circuit/voltage_model.h"
#include "core/characterization.h"
#include "core/program_artifacts.h"

namespace synts::test_support {

/// Characterizes `program` against `stage` with the scalar per-cell walk
/// (see file comment). Honours config.histogram_bins,
/// config.histogram_headroom and config.keep_sampling_trace exactly as the
/// production pass does.
[[nodiscard]] core::stage_characterization
scalar_characterize(const circuit::cell_library& lib, const circuit::voltage_model& vm,
                    const core::characterization_config& config,
                    const core::program_artifacts& program, circuit::pipe_stage stage);

} // namespace synts::test_support
