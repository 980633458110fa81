// Content-addressed on-disk result cache (the persistence tier of the
// tentpole: compute once, reuse across processes).
//
// Layout: one JSON file per entry,
//
//     <dir>/v<serialization_version>/<kind>/<hex16-key>.json
//
// where <kind> names the artifact family ("query", "corner",
// "nominal_td", "nominal_tw", "nominal_disturb", "surface") and the key
// is the FNV-1a canonical hash from core/serialize.h.  Versioning the
// directory means a format bump orphans every old entry wholesale — stale
// entries are never misread, only ignored.
//
// Every file is an envelope {"version", "kind", "key", "checksum",
// "payload"}: load() re-verifies all four against the request and the
// FNV-1a digest of the payload's canonical dump, so a truncated,
// corrupted, renamed or cross-kind file degrades to a miss (recompute),
// never to a wrong result.
//
// Concurrency: writers go through util::write_file_atomic (unique temp +
// POSIX rename), so concurrent stores of the same key — including from
// independent shard processes — leave exactly one valid entry and readers
// never observe a torn file.  Results are safe to share this way because
// of the determinism contract (core/session.h): a result is a pure
// function of the canonical key material, bitwise identical at any thread
// count, so whichever writer wins the rename race wrote the same bytes.
//
// Mode policy (MPSRAM_CACHE): `off` disables the cache entirely, `read`
// consumes existing entries but never writes (shared read-only caches,
// e.g. a CI artifact), `readwrite` (default) does both.  The directory
// comes from Cache_options or the MPSRAM_CACHE_DIR pin; with no directory
// configured the cache is off regardless of mode.
#ifndef MPSRAM_CORE_RESULT_CACHE_H
#define MPSRAM_CORE_RESULT_CACHE_H

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/json.h"
#include "util/token_table.h"

namespace mpsram::core {

enum class Cache_mode { off, read, readwrite };

inline constexpr auto cache_mode_tokens = util::token_table<Cache_mode>(
    "cache mode", {{Cache_mode::off, "off"},
                   {Cache_mode::read, "read"},
                   {Cache_mode::readwrite, "readwrite"}});

inline std::string_view to_string(Cache_mode mode)
{
    return cache_mode_tokens.name(mode);
}

/// Parse a cache-mode token (one of cache_mode_tokens).  Any other
/// value throws util::Precondition_error naming the offending value and
/// the accepted set.  Exposed separately from default_cache_mode() so the
/// rejection path is unit-testable (the default is memoized per process).
Cache_mode parse_cache_mode(std::string_view text);

/// Process-wide default cache mode: Cache_mode::readwrite, overridable
/// once per process with MPSRAM_CACHE=off|read|readwrite.  Invalid values
/// throw via parse_cache_mode.
Cache_mode default_cache_mode();

/// Validate a cache-directory pin.  An empty value throws
/// util::Precondition_error naming MPSRAM_CACHE_DIR (an empty pin is a
/// configuration bug, not "no cache" — unset the variable for that).
std::string parse_cache_dir(std::string_view text);

/// Process-wide default cache directory from MPSRAM_CACHE_DIR; nullopt
/// when the variable is unset (no cache unless Cache_options names one).
const std::optional<std::string>& default_cache_dir();

/// Per-session cache policy (core::Study_options).  Unset fields fall
/// back to the environment pins above.  Deliberately NOT part of the
/// configuration fingerprint: a cached and an uncached run of the same
/// study must produce the same canonical keys.
///
/// `directory` is a plain string with "" meaning unset (fall back to
/// MPSRAM_CACHE_DIR) — deliberately not optional<string>: an engaged
/// empty pin is rejected by parse_cache_dir anyway, and GCC 12 raises a
/// maybe-uninitialized false positive at -O3 on every by-value copy of a
/// struct holding an unengaged optional<string>.
struct Cache_options {
    std::optional<Cache_mode> mode;
    std::string directory;
};

/// Monotonic cache traffic counters.  A process-wide aggregate (across
/// every session, for bench metadata) is kept alongside the per-instance
/// ones; see process_cache_stats().
struct Cache_stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
};

class Result_cache {
public:
    /// `directory` is created lazily on first store.  `version` selects
    /// the layout subdirectory (tests bump it to prove invalidation).
    Result_cache(std::string directory, Cache_mode mode,
                 std::uint64_t version);

    Cache_mode mode() const { return mode_; }
    const std::string& directory() const { return directory_; }

    /// Fetch the payload stored under (kind, key); nullopt on any miss —
    /// absent, unreadable, malformed, wrong version/kind/key, or checksum
    /// mismatch.  Counts exactly one hit or one miss per call (except in
    /// Cache_mode::off, where nothing is counted).
    std::optional<util::Json> load(std::string_view kind,
                                   std::uint64_t key);

    /// Persist `payload` under (kind, key).  No-op in Cache_mode::read
    /// (not counted); atomic (temp + rename) in readwrite, so concurrent
    /// writers of one key leave one valid entry.
    void store(std::string_view kind, std::uint64_t key,
               const util::Json& payload);

    std::uint64_t hit_count() const { return hits_.load(); }
    std::uint64_t miss_count() const { return misses_.load(); }
    std::uint64_t store_count() const { return stores_.load(); }

private:
    std::string entry_path(std::string_view kind, std::uint64_t key) const;

    std::string directory_;
    Cache_mode mode_;
    std::uint64_t version_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> stores_{0};
};

/// Aggregate cache traffic of every Result_cache in this process (bench
/// metadata: BENCH_*.json report these next to their timings).
Cache_stats process_cache_stats();

// --- offline garbage collection ----------------------------------------------
// `mpsram_shard cache-gc` drives this: a cache directory grows without
// bound (every new query key is a new file), so long-lived caches need an
// offline sweep.  GC never touches entry CONTENT — an entry is either
// kept verbatim or unlinked — so a post-GC cache serves exactly the bytes
// a pre-GC cache would have.

struct Gc_options {
    /// Size bound on the surviving entries.  Unset: no eviction, the
    /// sweep only deletes corrupt envelopes.
    std::optional<std::uint64_t> max_bytes;
};

struct Gc_stats {
    std::size_t entries = 0;          ///< valid entries surviving the GC
    std::size_t corrupt_deleted = 0;  ///< damaged envelopes unlinked
    std::size_t evicted = 0;          ///< valid entries unlinked for size
    std::uint64_t bytes_before = 0;   ///< entry bytes found (corrupt incl.)
    std::uint64_t bytes_after = 0;    ///< entry bytes surviving
};

/// Sweep a cache directory (every version/kind subdirectory):
///
///   1. Delete corrupt envelopes on sight — unparseable, checksum
///      mismatch, or a key/kind disagreeing with the file's own path.
///      (load() would treat each as a miss forever; the file is pure
///      waste.)
///   2. When `max_bytes` is set, evict valid entries oldest-mtime-first
///      (path as the deterministic tie-break) until the survivors fit.
///
/// Concurrent writers stay safe: stores are atomic renames, so the sweep
/// sees each entry either complete or not at all, and deleting an entry
/// a session holds open cannot tear it (POSIX unlink).  A directory with
/// no entries is fine (zero stats); a nonexistent directory throws.
Gc_stats gc_result_cache(const std::string& directory,
                         const Gc_options& options = {});

} // namespace mpsram::core

#endif // MPSRAM_CORE_RESULT_CACHE_H
