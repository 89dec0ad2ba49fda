// fleet_watch.h -- the fleet views behind `synts_runner --status` and
// `--watch`: one report type, one renderer.
//
// --status answers "where is the fleet NOW" (collect_store_status, a report
// read straight from the store); --watch adds the time axis:
// per-shard completion rates (cells/s differenced between ticks), an ETA,
// and -- the part --status cannot say -- a STALLED verdict. A shard's
// shard_progress frame is republished (atomic rename) on every durable
// cell, so the frame's mtime is the shard's last heartbeat; a frame older
// than `stall_ns` while the shard is incomplete means the process died or
// hung, not that it is slow. The watch reads only the store -- it never
// touches the shard processes, so it runs from any machine sharing the
// store directory.
//
// fleet_watch::tick(now_ns) is pure over (store state, previous tick):
// tests drive it with explicit timestamps and age frames by rewriting
// file mtimes, no sleeping. The runner loops tick/render/sleep and turns
// the report into its exit code (0 all complete, 3 stall detected).

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/sweep.h"

namespace synts::runtime {

struct watch_config {
    /// A reported, incomplete shard whose progress frame is older than
    /// this is STALLED. 10 s default: 40x the publisher's 250 ms throttle,
    /// so a live-but-slow shard is never flagged between cells.
    std::uint64_t stall_ns = 10'000'000'000ull;
};

/// Reconstructed state of one shard of a recorded sweep (collect_store_status).
struct shard_status {
    std::uint32_t index = 0;
    std::uint64_t done = 0;
    std::uint64_t owned = 0;
    bool complete = false; ///< completion manifest seen (wins over progress)
    bool reported = false; ///< any frame (progress or completion) seen
    /// Age of the shard's live shard_progress frame (file mtime -- the
    /// instant of its last atomic republish); nullopt when the shard never
    /// published one or the file vanished. --watch's staleness signal.
    std::optional<std::uint64_t> frame_age_ns;
};

/// One shard's row in a watch report.
struct watch_shard {
    shard_status status;
    /// Cells/s differenced against the previous tick (nullopt on the first
    /// tick a shard is seen, and for complete shards).
    std::optional<double> cells_per_s;
    /// Seconds to completion at the current rate (nullopt without a
    /// positive rate).
    std::optional<double> eta_s;
    bool stalled = false;
};

/// One sweep's rows plus fleet-level aggregates.
struct watch_sweep {
    std::uint64_t spec_digest = 0;
    std::uint32_t shard_count = 1;
    std::uint64_t total_cells = 0;
    bool layout = false;
    std::vector<watch_shard> shards;
    std::uint64_t total_done = 0;
    std::uint64_t total_owned = 0;
    std::optional<double> cells_per_s; ///< sum of shard rates (when any)
    std::optional<double> eta_s;       ///< slowest incomplete shard's ETA
    /// Every shard finished: attested by its completion manifest, or
    /// reported with every owned cell done (unsharded checkpoint runs
    /// publish progress frames only).
    bool complete = false;
    bool any_stalled = false;
};

struct watch_report {
    std::vector<watch_sweep> sweeps;
    bool all_complete = false; ///< every sweep complete (false when empty)
    bool any_stalled = false;
};

/// Scans `store`'s manifest bucket into a report with no rates and no
/// stall verdicts (the --status view): completion manifests win over
/// progress frames (a complete shard can never regress behind a stale
/// count), undecodable frames are skipped, and the layout frame's total
/// cell count corrects the owned total for shards that have not reported.
/// Deterministic: sweeps ordered by spec digest, shards by index.
[[nodiscard]] watch_report collect_store_status(const storage::artifact_store& store);

/// Stateful watcher: remembers each shard's (t_ns, done) from the previous
/// tick to derive rates. One instance per watch loop; not thread-safe.
class fleet_watch {
public:
    explicit fleet_watch(const storage::artifact_store& store, watch_config config = {});

    /// collect_store_status plus rates and ETAs derived against the
    /// previous tick, and stall verdicts from the progress frames' ages.
    /// `now_ns` is obs::now_ns() in the runner; tests pass explicit
    /// timestamps.
    [[nodiscard]] watch_report tick(std::uint64_t now_ns);

    [[nodiscard]] const watch_config& config() const noexcept { return config_; }

private:
    struct observation {
        std::uint64_t t_ns = 0;
        std::uint64_t done = 0;
    };

    const storage::artifact_store* store_;
    watch_config config_;
    std::map<std::pair<std::uint64_t, std::uint32_t>, observation> last_;
};

/// Console rendering of a report; the rate, ETA and STALLED columns appear
/// only when set, so a collect_store_status report renders the --status
/// view:
///   sweep <digest>: 2 shards, 6 cells
///     shard 0/2: 2/3 (66.7%) 1.5 cells/s eta 1s
///     shard 1/2: 3/3 (100.0%) complete
///     shard 0/2: 2/3 (66.7%) STALLED (age 12.4s)
///     total: 5/6 (83.3%) 1.5 cells/s eta 1s
[[nodiscard]] std::string render_watch_report(const watch_report& report);

} // namespace synts::runtime
