#include "runtime/sweep_io.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "util/csv.h"
#include "util/table.h"
#include "workload/registry.h"

namespace synts::runtime {

namespace {

/// Lowercases and strips '-'/'_' so display names and CLI tokens compare.
std::string normalize(std::string_view token)
{
    std::string out;
    out.reserve(token.size());
    for (const char c : token) {
        if (c == '-' || c == '_') {
            continue;
        }
        out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
    return out;
}

/// Lowercase machine token for a policy (display names contain spaces).
std::string_view policy_token(core::policy_kind kind) noexcept
{
    switch (kind) {
    case core::policy_kind::nominal:
        return "nominal";
    case core::policy_kind::no_ts:
        return "no_ts";
    case core::policy_kind::per_core_ts:
        return "per_core_ts";
    case core::policy_kind::synts_offline:
        return "synts_offline";
    case core::policy_kind::synts_online:
        return "synts_online";
    }
    return "?";
}

/// JSON string escape (names here are ASCII identifiers, but be correct).
std::string json_escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            out.push_back(c);
        }
    }
    return out;
}

} // namespace

std::vector<std::string_view> split_csv(std::string_view csv)
{
    std::vector<std::string_view> tokens;
    for (;;) {
        const std::size_t comma = csv.find(',');
        tokens.push_back(csv.substr(0, comma));
        if (comma == std::string_view::npos) {
            return tokens;
        }
        csv = csv.substr(comma + 1);
    }
}

void write_pareto_csv(const sweep_result& result, std::ostream& out)
{
    util::csv_writer csv(out);
    csv.header({"benchmark", "stage", "policy", "theta_multiplier", "theta",
                "energy_norm", "time_norm"});
    for (const sweep_cell& cell : result.cells) {
        for (std::size_t i = 0; i < cell.pareto.size(); ++i) {
            csv.begin_row();
            csv.field(cell.workload.name);
            csv.field(std::string(circuit::pipe_stage_name(cell.stage)));
            csv.field(std::string(policy_token(cell.policy)));
            csv.field(result.spec.theta_multipliers[i]);
            csv.field(cell.pareto[i].theta);
            csv.field(cell.pareto[i].energy);
            csv.field(cell.pareto[i].time);
        }
    }
}

void write_summary_csv(const sweep_result& result, std::ostream& out)
{
    util::csv_writer csv(out);
    csv.header({"benchmark", "stage", "policy", "theta_eq", "energy", "time_ps", "edp"});
    for (const sweep_cell& cell : result.cells) {
        csv.begin_row();
        csv.field(cell.workload.name);
        csv.field(std::string(circuit::pipe_stage_name(cell.stage)));
        csv.field(std::string(policy_token(cell.policy)));
        csv.field(cell.theta_eq);
        csv.field(cell.equal_weight.sum.energy);
        csv.field(cell.equal_weight.sum.time_ps);
        csv.field(cell.equal_weight.sum.edp());
    }
}

sweep_json_meta collect_sweep_json_meta()
{
    sweep_json_meta meta;

    const std::time_t now = std::time(nullptr);
    std::tm utc{};
    if (gmtime_r(&now, &utc) != nullptr) {
        char stamp[32];
        if (std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &utc) > 0) {
            meta.generated_utc = stamp;
        }
    }

    char host[256] = {};
    if (gethostname(host, sizeof host - 1) == 0) {
        meta.hostname = host;
    }

    meta.hardware_concurrency = std::thread::hardware_concurrency();

    if (const char* describe = std::getenv("SYNTS_GIT_DESCRIBE");
        describe != nullptr && *describe != '\0') {
        meta.git_describe = describe;
    } else {
        // Fallback when no script exported the env var (a bare binary run
        // from a checkout): ask git directly. BENCH_obs.json once shipped a
        // stale describe precisely because nothing recomputed it at run
        // time; stderr is routed to /dev/null so a non-repo cwd or missing
        // git degrades to an omitted field, never noise in the document.
        if (FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r");
            pipe != nullptr) {
            char line[256] = {};
            if (std::fgets(line, sizeof line, pipe) != nullptr) {
                std::string described(line);
                while (!described.empty() &&
                       (described.back() == '\n' || described.back() == '\r')) {
                    described.pop_back();
                }
                meta.git_describe = std::move(described);
            }
            pclose(pipe);
        }
    }
    return meta;
}

void write_sweep_json(const sweep_result& result, std::ostream& out,
                      const sweep_json_meta* meta)
{
    std::ostringstream body;
    body.precision(17);
    body << "{\n";
    if (meta != nullptr) {
        // One line by contract (see sweep_json_meta): byte-identity
        // consumers strip it with `grep -v '"meta"'`.
        body << "  \"meta\": {\"schema_version\": " << meta->schema_version
             << ", \"generated_utc\": \"" << json_escape(meta->generated_utc)
             << "\", \"hostname\": \"" << json_escape(meta->hostname)
             << "\", \"hardware_concurrency\": " << meta->hardware_concurrency;
        if (!meta->git_describe.empty()) {
            body << ", \"git_describe\": \"" << json_escape(meta->git_describe) << '"';
        }
        body << "},\n";
    }
    body << "  \"config\": {\"thread_count\": " << result.spec.config.thread_count
         << ", \"seed\": " << result.spec.config.seed
         // Digests are 64-bit; as bare JSON numbers they would be rounded
         // by double-based consumers (anything past 2^53), so emit strings.
         << ", \"digest\": \"" << result.spec.config.digest() << "\"},\n"
         // The checkpoint keying identity: the artifact store keys this
         // sweep's cells on (spec_digest, cell index). Taken from the
         // result, not recomputed from the spec echo -- a shard run's echo
         // is reduced to its owned pairs, but its checkpoints (and this
         // field) still carry the full sweep's digest.
         << "  \"spec_digest\": \"" << result.spec_digest << "\",\n";
    body << "  \"theta_multipliers\": [";
    for (std::size_t i = 0; i < result.spec.theta_multipliers.size(); ++i) {
        body << (i ? ", " : "") << result.spec.theta_multipliers[i];
    }
    body << "],\n  \"cells\": [\n";
    for (std::size_t c = 0; c < result.cells.size(); ++c) {
        const sweep_cell& cell = result.cells[c];
        body << "    {\"benchmark\": \""
             << json_escape(cell.workload.name) << "\", \"stage\": \""
             << json_escape(circuit::pipe_stage_name(cell.stage)) << "\", \"policy\": \""
             << policy_token(cell.policy) << "\", \"theta_eq\": " << cell.theta_eq
             << ", \"task_seed\": " << cell.task_seed
             << ", \"energy\": " << cell.equal_weight.sum.energy
             << ", \"time_ps\": " << cell.equal_weight.sum.time_ps
             << ", \"edp\": " << cell.equal_weight.sum.edp() << ", \"pareto\": [";
        for (std::size_t i = 0; i < cell.pareto.size(); ++i) {
            body << (i ? ", " : "") << "{\"theta\": " << cell.pareto[i].theta
                 << ", \"energy\": " << cell.pareto[i].energy
                 << ", \"time\": " << cell.pareto[i].time << "}";
        }
        body << "]}" << (c + 1 < result.cells.size() ? "," : "") << "\n";
    }
    body << "  ]\n}\n";
    out << body.str();
}

std::string render_sweep_table(const sweep_result& result)
{
    std::string rendered;
    for (const benchmark_stage& pair : result.spec.expanded_pairs()) {
        util::text_table table({"policy", "theta_eq", "energy", "time (ps)", "EDP"});
        for (const core::policy_kind kind : result.spec.policies) {
            const sweep_cell* cell = result.find(pair.first, pair.second, kind);
            if (cell == nullptr) {
                continue;
            }
            table.begin_row();
            table.cell(std::string(core::policy_name(kind)));
            table.cell(cell->theta_eq, 6);
            table.cell(cell->equal_weight.sum.energy, 1);
            table.cell(cell->equal_weight.sum.time_ps, 1);
            table.cell(cell->equal_weight.sum.edp(), 4);
        }
        rendered += pair.first.name + " / " +
                    circuit::pipe_stage_name(pair.second) + "\n" + table.render() + "\n";
    }
    return rendered;
}

std::string render_cache_stats(const sweep_result& result, cache_stats_format format)
{
    struct row {
        const char* tier;
        std::uint64_t hits;
        std::uint64_t misses;
    };
    const row rows[] = {
        {"program", result.program_cache_hits, result.program_cache_misses},
        {"stage", result.cache_hits, result.cache_misses},
        {"disk", result.disk_hits, result.disk_misses},
        {"checkpoint", result.cells_loaded, result.cells_missed()},
    };
    std::ostringstream out;
    switch (format) {
    case cache_stats_format::table: {
        util::text_table table({"tier", "hits", "misses"});
        for (const row& r : rows) {
            table.begin_row();
            table.cell(std::string(r.tier));
            table.cell(static_cast<long long>(r.hits));
            table.cell(static_cast<long long>(r.misses));
        }
        out << table.render();
        out << "program computes (trace gen + profiler): " << result.program_computes
            << "\n";
        break;
    }
    case cache_stats_format::csv:
        // Strictly (tier, hits, misses) rows; the compute count is not a
        // tier and is derivable as program.misses - disk.hits, so it is
        // omitted rather than bent into the schema (table and JSON carry
        // it explicitly).
        out << "tier,hits,misses\n";
        for (const row& r : rows) {
            out << r.tier << ',' << r.hits << ',' << r.misses << '\n';
        }
        break;
    case cache_stats_format::json:
        out << "{\"cache\": {";
        for (std::size_t i = 0; i < std::size(rows); ++i) {
            out << (i ? ", " : "") << '"' << rows[i].tier << "\": {\"hits\": "
                << rows[i].hits << ", \"misses\": " << rows[i].misses << '}';
        }
        out << ", \"program_computes\": " << result.program_computes
            << ", \"cells_stored\": " << result.cells_stored << "}}\n";
        break;
    }
    return out.str();
}

std::optional<cache_stats_format> parse_cache_stats_format(std::string_view token)
{
    const std::string wanted = normalize(token);
    if (wanted == "table") {
        return cache_stats_format::table;
    }
    if (wanted == "csv") {
        return cache_stats_format::csv;
    }
    if (wanted == "json") {
        return cache_stats_format::json;
    }
    return std::nullopt;
}

std::optional<circuit::pipe_stage> parse_stage(std::string_view token)
{
    const std::string wanted = normalize(token);
    for (std::size_t s = 0; s < circuit::pipe_stage_count; ++s) {
        const auto stage = static_cast<circuit::pipe_stage>(s);
        if (normalize(circuit::pipe_stage_name(stage)) == wanted) {
            return stage;
        }
    }
    return std::nullopt;
}

std::optional<core::policy_kind> parse_policy(std::string_view token)
{
    const std::string wanted = normalize(token);
    for (const core::policy_kind kind : core::all_policies()) {
        if (normalize(policy_token(kind)) == wanted ||
            normalize(core::policy_name(kind)) == wanted) {
            return kind;
        }
    }
    return std::nullopt;
}

std::optional<workload::workload_key>
parse_workload(const workload::workload_registry& registry, std::string_view token)
{
    const std::string wanted = normalize(token);
    for (const workload::workload_key& key : registry.keys()) {
        if (normalize(key.name) == wanted) {
            return key;
        }
    }
    return std::nullopt;
}

std::vector<workload::workload_key>
parse_workload_list(const workload::workload_registry& registry, std::string_view csv)
{
    const std::string keyword = normalize(csv);
    if (keyword == "all") {
        return registry.keys();
    }
    if (keyword == "splash2") {
        const auto span = workload::all_benchmarks();
        return {span.begin(), span.end()};
    }
    if (keyword == "reported") {
        const auto span = workload::reported_benchmarks();
        return {span.begin(), span.end()};
    }
    std::vector<workload::workload_key> keys;
    for (const std::string_view token : split_csv(csv)) {
        const auto key = parse_workload(registry, token);
        if (!key) {
            throw std::invalid_argument("unknown workload: \"" + std::string(token) +
                                        "\" (see --list-benchmarks)");
        }
        keys.push_back(*key);
    }
    return keys;
}

std::vector<circuit::pipe_stage> parse_stage_list(std::string_view csv)
{
    if (normalize(csv) == "all") {
        std::vector<circuit::pipe_stage> stages;
        for (std::size_t s = 0; s < circuit::pipe_stage_count; ++s) {
            stages.push_back(static_cast<circuit::pipe_stage>(s));
        }
        return stages;
    }
    std::vector<circuit::pipe_stage> stages;
    for (const std::string_view token : split_csv(csv)) {
        const auto stage = parse_stage(token);
        if (!stage) {
            throw std::invalid_argument("unknown stage: " + std::string(token));
        }
        stages.push_back(*stage);
    }
    return stages;
}

std::vector<core::policy_kind> parse_policy_list(std::string_view csv)
{
    if (normalize(csv) == "all") {
        const auto span = core::all_policies();
        return {span.begin(), span.end()};
    }
    std::vector<core::policy_kind> kinds;
    for (const std::string_view token : split_csv(csv)) {
        const auto kind = parse_policy(token);
        if (!kind) {
            throw std::invalid_argument("unknown policy: " + std::string(token));
        }
        kinds.push_back(*kind);
    }
    return kinds;
}

} // namespace synts::runtime
