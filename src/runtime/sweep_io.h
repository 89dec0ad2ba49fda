// sweep_io.h -- serialization and parsing for sweep specs and results.
//
// The synts_runner CLI and the ported benches share these: CSV (via
// util/csv) for re-plotting, JSON for downstream tooling, text tables (via
// util/table) for the console, and forgiving name->enum parsing (matching
// is case-insensitive and ignores '-'/'_', so "lu-contig", "LU_CONTIG" and
// "Lu-Contig" all resolve).

#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/sweep.h"

namespace synts::runtime {

/// One row per (cell, theta multiplier): the Pareto fronts.
/// Columns: benchmark, stage, policy, theta_multiplier, theta, energy_norm,
/// time_norm.
void write_pareto_csv(const sweep_result& result, std::ostream& out);

/// One row per cell: the equal-weight operating points.
/// Columns: benchmark, stage, policy, theta_eq, energy, time_ps, edp.
void write_summary_csv(const sweep_result& result, std::ostream& out);

/// Provenance stamp for sweep JSON documents (the `meta` block). Volatile
/// by design -- it records WHEN/WHERE a document was produced, never WHAT
/// it contains, so consumers comparing sweeps for determinism must exclude
/// it (it is emitted as a single line exactly so `grep -v '"meta"'` drops
/// it before a byte compare).
struct sweep_json_meta {
    int schema_version = 1;
    std::string generated_utc;     ///< ISO-8601 UTC, e.g. 2026-08-07T12:34:56Z
    std::string hostname;
    unsigned hardware_concurrency = 0;
    std::string git_describe;      ///< empty = field omitted
};

/// Stamps now/hostname/hardware_concurrency; git_describe comes from the
/// SYNTS_GIT_DESCRIBE environment variable when set (the scripts export
/// `git describe` there -- the library itself never shells out).
[[nodiscard]] sweep_json_meta collect_sweep_json_meta();

/// The whole result (spec echo incl. the checkpoint keying digests, cells,
/// pareto points) as one JSON document. Without `meta` the document is
/// deliberately DETERMINISTIC: it contains no wall-clock or cache-traffic
/// fields, so two runs of the same spec -- cold, warm via the artifact
/// store, or resumed -- emit byte-identical documents (the CI warm-store
/// job diffs them). With `meta`, ONE extra line (`"meta": {...}`) carries
/// the volatile provenance stamp; byte-identity consumers strip that line.
/// Volatile run stats live in render_cache_stats.
void write_sweep_json(const sweep_result& result, std::ostream& out,
                      const sweep_json_meta* meta = nullptr);

/// Console table: one block per (benchmark, stage) pair, EDP and the
/// equal-weight operating point per policy.
[[nodiscard]] std::string render_sweep_table(const sweep_result& result);

/// Output shape for render_cache_stats.
enum class cache_stats_format { table, csv, json };

/// Hit/miss counts of every cache tier attributable to `result` -- program
/// artifacts, stage experiments, the persistent disk tier, and sweep-cell
/// checkpoints (hits = cells restored, misses = cells computed) -- plus
/// the number of program-tier computes (trace generations + profiler
/// runs), as a console table, CSV rows, or a JSON object (the runner's
/// --cache-stats flag). Disk and checkpoint rows read 0 when no store is
/// attached.
[[nodiscard]] std::string render_cache_stats(const sweep_result& result,
                                             cache_stats_format format);

/// Parses "table" / "csv" / "json" (same forgiving matching as the enum
/// parsers below); std::nullopt on an unknown token.
[[nodiscard]] std::optional<cache_stats_format>
parse_cache_stats_format(std::string_view token);

/// Splits a comma-separated list into tokens (empty tokens preserved, so
/// callers can reject "a,,b" or a trailing comma explicitly).
[[nodiscard]] std::vector<std::string_view> split_csv(std::string_view csv);

/// Name parsing. Each returns std::nullopt on an unknown token.
[[nodiscard]] std::optional<circuit::pipe_stage> parse_stage(std::string_view token);
[[nodiscard]] std::optional<core::policy_kind> parse_policy(std::string_view token);

/// Registry-name parsing (same forgiving matching): resolves `token`
/// against `registry`'s registered workload names. std::nullopt when no
/// registered name matches.
[[nodiscard]] std::optional<workload::workload_key>
parse_workload(const workload::workload_registry& registry, std::string_view token);

/// List parsing for CLI flags: comma-separated tokens, or the keyword
/// "all" (every value). Throws std::invalid_argument naming the offending
/// token.
[[nodiscard]] std::vector<circuit::pipe_stage> parse_stage_list(std::string_view csv);
[[nodiscard]] std::vector<core::policy_kind> parse_policy_list(std::string_view csv);

/// Workload-list parsing over a registry (what the runner CLI uses):
/// comma-separated registered names, or the keywords "all" (every
/// registered workload, registration order), "splash2" (the built-in ten)
/// and "reported" (the paper's seven). Throws std::invalid_argument naming
/// the offending token.
[[nodiscard]] std::vector<workload::workload_key>
parse_workload_list(const workload::workload_registry& registry, std::string_view csv);

} // namespace synts::runtime
