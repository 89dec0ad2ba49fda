// bench_storage -- throughput and end-to-end timings of the persistent
// artifact store.
//
// Three phases:
//   1. codec throughput: serialize / deserialize MB/s on a real program
//      artifact frame (the largest object the codec handles);
//   2. cold vs resumed sweep: the same spec through a fresh store
//      directory (cold: compute + checkpoint every cell), then through a
//      fresh cache sharing that directory with resume on (cells restored
//      outright);
//   3. verification: the resumed run must perform ZERO trace generations /
//      profiler runs and reproduce the cold cells bit for bit. Any
//      violation exits non-zero so CI fails instead of recording a broken
//      artifact.
//
// Output: one JSON document on stdout (scripts/run_benches.sh captures it
// as BENCH_storage.json). Human-readable progress goes to stderr.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "core/experiment.h"
#include "runtime/experiment_cache.h"
#include "runtime/sweep.h"
#include "runtime/thread_pool.h"
#include "storage/artifact_store.h"
#include "storage/serialize.h"

namespace {

using namespace synts;
namespace fs = std::filesystem;

double seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

bool same_cells(const runtime::sweep_result& a, const runtime::sweep_result& b)
{
    if (a.cells.size() != b.cells.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        // Frames are canonical, so encoding equality is bit equality.
        if (storage::encode(a.cells[i]) != storage::encode(b.cells[i])) {
            return false;
        }
    }
    return true;
}

} // namespace

int main()
{
    constexpr auto kBenchmark = workload::benchmark_id::radix;
    bool ok = true;

    // -- phase 1: codec throughput ------------------------------------------
    std::fprintf(stderr, "== codec throughput\n");
    const auto artifacts = core::make_program_artifacts(kBenchmark);
    const std::string frame = storage::encode(*artifacts);
    const double frame_mb = static_cast<double>(frame.size()) / (1024.0 * 1024.0);

    constexpr int kReps = 5;
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kReps; ++i) {
        const std::string encoded = storage::encode(*artifacts);
        ok = ok && encoded.size() == frame.size();
    }
    const double serialize_s = seconds_since(t0) / kReps;

    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kReps; ++i) {
        const core::program_artifacts decoded = storage::decode_program_artifacts(frame);
        ok = ok && decoded.workload_digest == artifacts->workload_digest;
    }
    const double deserialize_s = seconds_since(t0) / kReps;

    // Round-trip bit-identity: decode(encode(x)) re-encodes to x's frame.
    const bool codec_identical =
        storage::encode(storage::decode_program_artifacts(frame)) == frame;
    ok = ok && codec_identical;

    // -- phase 2: cold vs resumed sweeps ------------------------------------
    const fs::path store_dir =
        fs::temp_directory_path() /
        ("synts_bench_storage_" + std::to_string(::getpid()));
    runtime::sweep_spec spec;
    spec.benchmarks = {kBenchmark};
    spec.stages = {circuit::pipe_stage::simple_alu, circuit::pipe_stage::decode};
    spec.policies = {core::policy_kind::nominal, core::policy_kind::synts_offline};
    spec.theta_multipliers = {0.5, 1.0, 2.0};

    runtime::thread_pool pool;
    const auto timed_run = [&](bool resume) {
        runtime::experiment_cache cache;
        storage::artifact_store store(store_dir);
        const auto start = std::chrono::steady_clock::now();
        runtime::sweep_result result =
            runtime::sweep_scheduler(pool, cache).run(spec, {&store, resume});
        result.wall_seconds = seconds_since(start);
        return result;
    };

    std::fprintf(stderr, "== cold sweep (empty store)\n");
    const runtime::sweep_result cold = timed_run(false);
    std::fprintf(stderr, "== resumed sweep (cells restored)\n");
    const runtime::sweep_result resumed = timed_run(true);

    std::error_code ec;
    fs::remove_all(store_dir, ec);

    // -- phase 3: verification ----------------------------------------------
    const bool resumed_zero_traffic =
        resumed.program_computes == 0 && resumed.cells_loaded == cold.cells.size();
    const bool resumed_identical = same_cells(cold, resumed);
    ok = ok && resumed_zero_traffic && resumed_identical;

    std::printf("{\n");
    std::printf("  \"frame_mb\": %.3f,\n", frame_mb);
    std::printf("  \"serialize_mb_per_s\": %.1f,\n", frame_mb / serialize_s);
    std::printf("  \"deserialize_mb_per_s\": %.1f,\n", frame_mb / deserialize_s);
    std::printf("  \"codec_round_trip_identical\": %s,\n",
                codec_identical ? "true" : "false");
    std::printf("  \"cold_seconds\": %.3f,\n", cold.wall_seconds);
    std::printf("  \"resumed_seconds\": %.3f,\n", resumed.wall_seconds);
    std::printf("  \"resumed_speedup\": %.2f,\n",
                cold.wall_seconds / resumed.wall_seconds);
    std::printf("  \"resumed_cells_restored\": %llu,\n",
                static_cast<unsigned long long>(resumed.cells_loaded));
    std::printf("  \"resumed_cells_bit_identical\": %s,\n",
                resumed_identical ? "true" : "false");
    std::printf("  \"ok\": %s\n", ok ? "true" : "false");
    std::printf("}\n");

    if (!ok) {
        std::fprintf(stderr, "bench_storage: VERIFICATION FAILED\n");
        return 1;
    }
    return 0;
}
