#include "core/result_cache.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <utility>
#include <vector>

#include "util/atomic_file.h"
#include "util/contracts.h"
#include "util/hash.h"

namespace mpsram::core {

namespace {

// Process-wide aggregate, fed by every instance's counters as they tick.
std::atomic<std::uint64_t> global_hits{0};
std::atomic<std::uint64_t> global_misses{0};
std::atomic<std::uint64_t> global_stores{0};

} // namespace

Cache_mode parse_cache_mode(std::string_view text)
{
    return cache_mode_tokens.parse_or_throw(text,
                                            "invalid MPSRAM_CACHE value");
}

Cache_mode default_cache_mode()
{
    static const Cache_mode mode = [] {
        const char* env = std::getenv("MPSRAM_CACHE");
        if (env == nullptr) return Cache_mode::readwrite;
        return parse_cache_mode(env);
    }();
    return mode;
}

std::string parse_cache_dir(std::string_view text)
{
    if (text.empty()) {
        throw util::Precondition_error(
            "invalid MPSRAM_CACHE_DIR value '' (must name a directory; "
            "unset the variable to disable the cache)");
    }
    return std::string(text);
}

const std::optional<std::string>& default_cache_dir()
{
    static const std::optional<std::string> dir =
        []() -> std::optional<std::string> {
        const char* env = std::getenv("MPSRAM_CACHE_DIR");
        if (env == nullptr) return std::nullopt;
        return parse_cache_dir(env);
    }();
    return dir;
}

Result_cache::Result_cache(std::string directory, Cache_mode mode,
                           std::uint64_t version)
    : directory_(std::move(directory)), mode_(mode), version_(version)
{
    util::expects(!directory_.empty(),
                  "a result cache needs a directory");
}

std::string Result_cache::entry_path(std::string_view kind,
                                     std::uint64_t key) const
{
    return directory_ + "/v" + std::to_string(version_) + "/" +
           std::string(kind) + "/" + util::hex16(key) + ".json";
}

std::optional<util::Json> Result_cache::load(std::string_view kind,
                                             std::uint64_t key)
{
    const auto miss = [this]() -> std::optional<util::Json> {
        misses_.fetch_add(1, std::memory_order_relaxed);
        global_misses.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    };
    if (mode_ == Cache_mode::off) return std::nullopt;

    const std::optional<std::string> raw =
        util::read_file(entry_path(kind, key));
    if (!raw) return miss();

    // A damaged entry (torn write outside write_file_atomic, disk fault,
    // manual edit) must degrade to a recompute, never propagate.
    try {
        const util::Json envelope = util::Json::parse(*raw);
        if (envelope.at("version").as_u64() != version_) return miss();
        if (envelope.at("kind").as_string() != kind) return miss();
        if (envelope.at("key").as_string() != util::hex16(key)) {
            return miss();
        }
        const util::Json& payload = envelope.at("payload");
        const std::uint64_t checksum = util::fnv1a(payload.dump());
        if (envelope.at("checksum").as_string() != util::hex16(checksum)) {
            return miss();
        }
        hits_.fetch_add(1, std::memory_order_relaxed);
        global_hits.fetch_add(1, std::memory_order_relaxed);
        return payload;
    } catch (const util::Precondition_error&) {
        return miss();
    }
}

void Result_cache::store(std::string_view kind, std::uint64_t key,
                         const util::Json& payload)
{
    if (mode_ != Cache_mode::readwrite) return;

    util::Json envelope;
    envelope.set("version", version_);
    envelope.set("kind", kind);
    envelope.set("key", util::hex16(key));
    envelope.set("checksum", util::hex16(util::fnv1a(payload.dump())));
    envelope.set("payload", payload);

    const std::string path = entry_path(kind, key);
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    util::write_file_atomic(path, envelope.dump());
    stores_.fetch_add(1, std::memory_order_relaxed);
    global_stores.fetch_add(1, std::memory_order_relaxed);
}

namespace {

/// A cache entry is self-describing; valid means load() could serve it:
/// parseable envelope whose kind/key agree with the file's own path and
/// whose checksum matches the payload.  Anything else is dead weight.
bool valid_entry(const std::filesystem::path& path, const std::string& raw)
{
    try {
        const util::Json envelope = util::Json::parse(raw);
        envelope.at("version").as_u64();
        if (envelope.at("kind").as_string() !=
            path.parent_path().filename().string()) {
            return false;
        }
        if (envelope.at("key").as_string() != path.stem().string()) {
            return false;
        }
        const std::uint64_t checksum =
            util::fnv1a(envelope.at("payload").dump());
        return envelope.at("checksum").as_string() == util::hex16(checksum);
    } catch (const util::Precondition_error&) {
        return false;
    }
}

} // namespace

Gc_stats gc_result_cache(const std::string& directory,
                         const Gc_options& options)
{
    namespace fs = std::filesystem;
    util::expects(fs::is_directory(directory),
                  "cache-gc needs an existing cache directory");

    struct Entry {
        fs::path path;
        std::uint64_t bytes = 0;
        fs::file_time_type mtime;
    };
    Gc_stats stats;
    std::vector<Entry> survivors;
    for (const auto& item : fs::recursive_directory_iterator(directory)) {
        if (!item.is_regular_file()) continue;
        const fs::path& path = item.path();
        if (path.extension() != ".json") continue;
        const std::uint64_t bytes = item.file_size();
        stats.bytes_before += bytes;
        const std::optional<std::string> raw = util::read_file(path.string());
        if (!raw || !valid_entry(path, *raw)) {
            fs::remove(path);
            ++stats.corrupt_deleted;
            continue;
        }
        survivors.push_back({path, bytes, item.last_write_time()});
    }

    if (options.max_bytes) {
        // Oldest first; path breaks mtime ties so the eviction order is
        // reproducible on filesystems with coarse timestamps.
        std::sort(survivors.begin(), survivors.end(),
                  [](const Entry& a, const Entry& b) {
                      if (a.mtime != b.mtime) return a.mtime < b.mtime;
                      return a.path < b.path;
                  });
        std::uint64_t total = 0;
        for (const Entry& e : survivors) total += e.bytes;
        std::size_t next = 0;
        while (total > *options.max_bytes && next < survivors.size()) {
            fs::remove(survivors[next].path);
            total -= survivors[next].bytes;
            ++stats.evicted;
            ++next;
        }
        survivors.erase(survivors.begin(),
                        survivors.begin() +
                            static_cast<std::ptrdiff_t>(next));
    }

    stats.entries = survivors.size();
    for (const Entry& e : survivors) stats.bytes_after += e.bytes;
    return stats;
}

Cache_stats process_cache_stats()
{
    Cache_stats s;
    s.hits = global_hits.load(std::memory_order_relaxed);
    s.misses = global_misses.load(std::memory_order_relaxed);
    s.stores = global_stores.load(std::memory_order_relaxed);
    return s;
}

} // namespace mpsram::core
