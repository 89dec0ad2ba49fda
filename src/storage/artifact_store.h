// artifact_store.h -- the on-disk third cache tier.
//
// A content-addressed blob store for serialized artifacts, shared by every
// process pointed at the same root directory. Layout:
//
//   root/v<format_version>/<bucket>/<hh>/<16-hex-digest>.bin
//
// where <bucket> groups payload kinds ("program" for program_artifacts,
// "cell" for finished sweep cells), <hh> is the digest's top byte in hex
// (256-way directory sharding, so huge stores never degenerate into one
// flat directory), and the file is a self-verifying storage::serialize
// frame. The format version is part of the PATH: bumping it makes every
// old file invisible instead of rejected one by one.
//
// Concurrency contract: writers stage into a per-store tmp/ directory and
// publish with an atomic rename, so a reader (same process or another
// runner sharing the directory) either sees a complete frame or no file --
// never a torn one. Duplicate concurrent writers of one key are benign:
// both frames are identical by construction (deterministic pipeline), and
// rename-over-existing simply replaces like with like. The store itself is
// dumb on purpose -- it moves bytes and never decodes them; typed
// validation (checksum, provenance digests) lives with the callers, which
// treat every failure as a miss and rebuild.
//
// All filesystem errors are absorbed into "miss" (load) or "false" (store):
// a read-only or vanished directory degrades the disk tier to a no-op
// rather than failing the sweep.

#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace synts::obs {
class counter;
class latency_histogram;
} // namespace synts::obs

namespace synts::storage {

/// Bucket names used by the runtime (kept here so every writer/reader pair
/// agrees; the store accepts any bucket token).
inline constexpr std::string_view program_bucket = "program";
inline constexpr std::string_view cell_bucket = "cell";
/// Shard-layout and per-shard completion manifests of sharded sweeps
/// (runtime::shard_manifest frames).
inline constexpr std::string_view manifest_bucket = "manifest";

class artifact_store {
public:
    /// Opens (and creates, if needed) the store rooted at `root`. Throws
    /// std::runtime_error when the versioned root cannot be created at all
    /// -- a store that can never work is a configuration error, unlike the
    /// transient I/O failures absorbed by load/store.
    explicit artifact_store(std::filesystem::path root);

    artifact_store(const artifact_store&) = delete;
    artifact_store& operator=(const artifact_store&) = delete;

    /// The directory given at construction (not the versioned subdir).
    [[nodiscard]] const std::filesystem::path& root() const noexcept { return root_; }

    /// Full path of (bucket, digest) -- exposed for tests and diagnostics.
    [[nodiscard]] std::filesystem::path entry_path(std::string_view bucket,
                                                   std::uint64_t digest) const;

    /// The raw frame of (bucket, digest), or nullopt when absent or
    /// unreadable. Returned bytes are NOT validated -- decode them.
    [[nodiscard]] std::optional<std::string> load(std::string_view bucket,
                                                  std::uint64_t digest) const;

    /// True when an entry file exists (says nothing about validity).
    [[nodiscard]] bool contains(std::string_view bucket, std::uint64_t digest) const;

    /// Nanoseconds since (bucket, digest)'s file was last written, or
    /// nullopt when absent/unreadable. Publishes are atomic renames, so
    /// the mtime is the instant the current frame became visible -- this
    /// is what --watch ages shard_progress frames by to call a shard
    /// STALLED without touching its process. Clamped to 0 for files whose
    /// mtime sits ahead of now (clock skew on shared filesystems).
    [[nodiscard]] std::optional<std::uint64_t>
    entry_age_ns(std::string_view bucket, std::uint64_t digest) const;

    /// Atomically publishes `frame` as (bucket, digest): temp file in the
    /// store's tmp/ dir, then rename over the final path. Returns false
    /// (leaving no partial file behind) on any I/O failure.
    bool store(std::string_view bucket, std::uint64_t digest,
               std::string_view frame) const;

    /// Removes the entry if present (used to invalidate a checkpoint).
    void erase(std::string_view bucket, std::uint64_t digest) const;

    /// Digests of every entry currently published in `bucket`, sorted
    /// ascending (deterministic output for the --status fleet view).
    /// Non-entry files are skipped; I/O errors yield an empty/partial list
    /// -- like every other read path, degraded, never throwing.
    [[nodiscard]] std::vector<std::uint64_t> list(std::string_view bucket) const;

private:
    std::filesystem::path root_;
    std::filesystem::path versioned_root_;
    std::filesystem::path tmp_dir_;

    // Registry instruments (store.* taxonomy), resolved once at
    // construction; counters aggregate every store instance in the
    // process, the latency histograms are gated on obs::enabled().
    obs::counter* obs_load_hits_;
    obs::counter* obs_load_misses_;
    obs::counter* obs_stores_;
    obs::counter* obs_store_failures_;
    obs::counter* obs_bytes_read_;
    obs::counter* obs_bytes_written_;
    obs::latency_histogram* obs_load_ns_;
    obs::latency_histogram* obs_store_ns_;
};

} // namespace synts::storage
