#include "runtime/fleet_watch.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "storage/artifact_store.h"
#include "storage/serialize.h"

namespace synts::runtime {

namespace {

std::string fixed1(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", v);
    return std::string(buf);
}

/// "%.1f" completion percentage; a shard that owns zero cells is trivially
/// done.
std::string percent_token(std::uint64_t done, std::uint64_t owned)
{
    return fixed1(owned == 0 ? 100.0
                             : 100.0 * static_cast<double>(done) /
                                   static_cast<double>(owned));
}

std::string eta_token(double eta_s)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", eta_s < 0.5 ? 1.0 : eta_s);
    return std::string(buf);
}

/// A shard with every owned cell durable has finished its work even when
/// its completion manifest is absent (unsharded checkpoint runs publish
/// progress frames only): done work cannot stall, and the watch must not
/// wait on an attestation that will never come.
bool finished(const shard_status& status)
{
    return status.complete || (status.reported && status.done >= status.owned);
}

} // namespace

watch_report collect_store_status(const storage::artifact_store& store)
{
    // Reconstructed per-shard state of one sweep: completion manifests win
    // over progress frames (a complete shard can never regress behind a
    // stale count -- run() publishes the final progress frame first).
    struct sweep_view {
        std::uint32_t shard_count = 1;
        std::uint64_t total_cells = 0;  // from the layout frame; 0 = none seen
        bool layout = false;
        std::map<std::uint32_t, shard_status> shards;
    };
    std::map<std::uint64_t, sweep_view> sweeps;

    for (const std::uint64_t key : store.list(storage::manifest_bucket)) {
        const std::optional<std::string> frame =
            store.load(storage::manifest_bucket, key);
        if (!frame) {
            continue;  // raced a concurrent republish; next --status sees it
        }
        try {
            const shard_manifest manifest = storage::decode_shard_manifest(*frame);
            sweep_view& sweep = sweeps[manifest.spec_digest];
            if (manifest.shard_index == manifest.shard_count) {
                // Layout sentinel: total cell count + authoritative count.
                sweep.layout = true;
                sweep.shard_count = manifest.shard_count;
                sweep.total_cells = manifest.cell_count;
            } else {
                sweep.shard_count = std::max(sweep.shard_count, manifest.shard_count);
                shard_status& view = sweep.shards[manifest.shard_index];
                view.complete = true;
                view.reported = true;
                view.owned = manifest.cell_count;
                view.done = manifest.cell_count;
            }
            continue;
        } catch (const storage::serialize_error&) {
            // Not a manifest frame; fall through to the progress decoder.
        }
        try {
            const shard_progress progress = storage::decode_shard_progress(*frame);
            sweep_view& sweep = sweeps[progress.spec_digest];
            sweep.shard_count = std::max(sweep.shard_count, progress.shard_count);
            shard_status& view = sweep.shards[progress.shard_index];
            view.reported = true;
            if (!view.complete) {
                view.owned = std::max(view.owned, progress.cells_owned);
                view.done = std::max(view.done, progress.cells_done);
            }
        } catch (const storage::serialize_error&) {
            // Some other payload kind landed in the bucket: not ours, skip.
        }
    }

    watch_report report;
    report.sweeps.reserve(sweeps.size());
    report.all_complete = !sweeps.empty();
    for (const auto& [digest, sweep] : sweeps) {
        watch_sweep view;
        view.spec_digest = digest;
        view.shard_count = sweep.shard_count;
        view.total_cells = sweep.total_cells;
        view.layout = sweep.layout;
        view.shards.resize(sweep.shard_count);
        view.complete = sweep.shard_count > 0;
        for (std::uint32_t i = 0; i < sweep.shard_count; ++i) {
            shard_status& status = view.shards[i].status;
            const auto it = sweep.shards.find(i);
            if (it != sweep.shards.end()) {
                status = it->second;
            }
            status.index = i;
            if (status.reported) {
                // The progress frame's mtime IS the shard's last heartbeat
                // (atomic republish on every durable cell, ~4 Hz throttle):
                // its age is how long the shard has been silent.
                status.frame_age_ns = store.entry_age_ns(
                    storage::manifest_bucket,
                    shard_progress_digest(digest, sweep.shard_count, i));
                view.total_done += status.done;
                view.total_owned += status.owned;
            }
            view.complete = view.complete && finished(status);
        }
        // The layout knows the sweep's full size; unreported shards would
        // otherwise silently shrink the denominator.
        if (sweep.layout && sweep.total_cells > view.total_owned) {
            view.total_owned = sweep.total_cells;
        }
        report.all_complete = report.all_complete && view.complete;
        report.sweeps.push_back(std::move(view));
    }
    return report;
}

fleet_watch::fleet_watch(const storage::artifact_store& store, watch_config config)
    : store_(&store), config_(config)
{
}

watch_report fleet_watch::tick(std::uint64_t now_ns)
{
    watch_report report = collect_store_status(*store_);
    for (watch_sweep& sweep : report.sweeps) {
        double rate_sum = 0.0;
        bool any_rate = false;
        for (watch_shard& row : sweep.shards) {
            const shard_status& status = row.status;
            const auto key = std::make_pair(sweep.spec_digest, status.index);
            if (status.reported && !finished(status)) {
                const auto prev = last_.find(key);
                if (prev != last_.end() && now_ns > prev->second.t_ns) {
                    const double dt_s =
                        static_cast<double>(now_ns - prev->second.t_ns) * 1e-9;
                    // done is monotone per shard (max-merged from frames);
                    // a store wipe between ticks would read as rate 0.
                    const double delta = status.done >= prev->second.done
                        ? static_cast<double>(status.done - prev->second.done)
                        : 0.0;
                    row.cells_per_s = delta / dt_s;
                    any_rate = true;
                    rate_sum += *row.cells_per_s;
                    if (*row.cells_per_s > 0.0 && status.owned > status.done) {
                        row.eta_s = static_cast<double>(status.owned - status.done) /
                                    *row.cells_per_s;
                    }
                }
                row.stalled = status.frame_age_ns.has_value() &&
                              *status.frame_age_ns > config_.stall_ns;
            }
            last_[key] = observation{now_ns, status.done};

            sweep.any_stalled = sweep.any_stalled || row.stalled;
            // The sweep finishes when its slowest shard does.
            if (row.eta_s && (!sweep.eta_s || *row.eta_s > *sweep.eta_s)) {
                sweep.eta_s = row.eta_s;
            }
        }
        if (any_rate) {
            sweep.cells_per_s = rate_sum;
        }
        report.any_stalled = report.any_stalled || sweep.any_stalled;
    }
    return report;
}

std::string render_watch_report(const watch_report& report)
{
    std::ostringstream out;
    if (report.sweeps.empty()) {
        out << "no sweeps recorded\n";
        return out.str();
    }
    for (const watch_sweep& sweep : report.sweeps) {
        out << "sweep " << sweep.spec_digest << ": " << sweep.shard_count
            << (sweep.shard_count == 1 ? " shard" : " shards");
        if (sweep.layout) {
            out << ", " << sweep.total_cells << " cells";
        }
        out << "\n";
        for (const watch_shard& row : sweep.shards) {
            const shard_status& s = row.status;
            out << "  shard " << s.index << "/" << sweep.shard_count << ": ";
            if (!s.reported) {
                out << "no progress recorded\n";
                continue;
            }
            out << s.done << "/" << s.owned << " ("
                << percent_token(s.done, s.owned) << "%)";
            if (s.complete) {
                out << " complete";
            }
            if (row.cells_per_s) {
                out << ' ' << fixed1(*row.cells_per_s) << " cells/s";
            }
            if (row.eta_s) {
                out << " eta " << eta_token(*row.eta_s) << "s";
            }
            if (row.stalled) {
                out << " STALLED";
                if (s.frame_age_ns) {
                    out << " (age " << fixed1(static_cast<double>(*s.frame_age_ns) * 1e-9)
                        << "s)";
                }
            }
            out << "\n";
        }
        out << "  total: " << sweep.total_done << "/" << sweep.total_owned << " ("
            << percent_token(sweep.total_done, sweep.total_owned) << "%)";
        if (sweep.cells_per_s) {
            out << ' ' << fixed1(*sweep.cells_per_s) << " cells/s";
        }
        if (sweep.eta_s) {
            out << " eta " << eta_token(*sweep.eta_s) << "s";
        }
        out << "\n";
    }
    return out.str();
}

} // namespace synts::runtime
