// Persistence layer (core/serialize.h + core/result_cache.h): canonical
// round-trips, the canonical-hash contract, and the on-disk cache's
// correctness properties — version-bump invalidation, corruption
// degrading to a miss, concurrent writers leaving one valid entry, and a
// warm session served entirely from disk.
#include "core/result_cache.h"
#include "core/serialize.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/query.h"
#include "core/runner.h"
#include "core/session.h"
#include "util/atomic_file.h"
#include "util/contracts.h"
#include "util/hash.h"
#include "util/json.h"

namespace {

using namespace mpsram;

/// Fresh per-test scratch directory under the ctest working directory.
std::string scratch_dir(const std::string& name)
{
    const std::string dir = "cache_test_scratch/" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string entry_file(const std::string& dir, std::uint64_t version,
                       const std::string& kind, std::uint64_t key)
{
    return dir + "/v" + std::to_string(version) + "/" + kind + "/" +
           util::hex16(key) + ".json";
}

TEST(CoreCache, QueryJsonRoundTripsEveryField)
{
    core::Query q(core::Metric::mc_twp);
    q.cases = {{tech::Patterning_option::le3, 24, 0.5},
               {tech::Patterning_option::sadp, 0, -1.0}};
    q.accuracy = sram::Sim_accuracy::reference;
    q.mc.samples = 123;
    q.mc.seed = 0xdeadbeefcafef00dULL;  // > 2^53: needs the u64 kind
    q.mc.truncate_k = 2.5;
    q.mc.sampling = mc::Sampling::latin_hypercube;
    q.mc.store_samples = false;
    q.twp_engine = core::Twp_engine::surrogate;

    const core::Query back =
        core::query_of_json(core::json_of_query(q));
    EXPECT_EQ(core::json_of_query(back).dump(),
              core::json_of_query(q).dump());
    EXPECT_EQ(back.metric, q.metric);
    EXPECT_EQ(back.cases, q.cases);
    EXPECT_EQ(back.accuracy, q.accuracy);
    EXPECT_EQ(back.mc.seed, q.mc.seed);
    EXPECT_EQ(back.mc.sampling, q.mc.sampling);
    EXPECT_EQ(back.twp_engine, q.twp_engine);

    // A solver token outside the accepted set, such as the retired
    // "iterative" tier, is rejected rather than mapped to another tier.
    util::Json retired = core::json_of_query(q);
    retired.set("solver", "iterative");
    EXPECT_THROW(core::query_of_json(retired), util::Precondition_error);
}

/// The text of the Precondition_error `decode` throws, or "" if none.
template <class Decode>
std::string precondition_text(Decode decode)
{
    try {
        decode();
    } catch (const util::Precondition_error& e) {
        return e.what();
    }
    return "";
}

TEST(CoreCache, QueryDecoderRejectsIntsThatAreNotInts)
{
    const std::string good =
        core::json_of_query(core::Query(core::Metric::read_td)
                                .with_case({tech::Patterning_option::le3,
                                            16, -1.0}))
            .dump();
    // Out of the int range, a cast used to land on INT_MIN, which keys
    // as the session-default column; a fraction used to truncate.
    const struct {
        std::string from, to, named;
    } bad[] = {
        {"\"word_lines\":16", "\"word_lines\":1e300", "1e+300"},
        {"\"word_lines\":16", "\"word_lines\":-1e300", "-1e+300"},
        {"\"word_lines\":16", "\"word_lines\":3e9", "3e+09"},
        {"\"word_lines\":16", "\"word_lines\":16.9", "16.9"},
        {"\"samples\":10000", "\"samples\":1e10", "1e+10"},
    };
    for (const auto& b : bad) {
        std::string text = good;
        ASSERT_NE(text.find(b.from), std::string::npos) << text;
        text.replace(text.find(b.from), b.from.size(), b.to);
        const util::Json j = util::Json::parse(text);
        const std::string what =
            precondition_text([&] { core::query_of_json(j); });
        EXPECT_NE(what.find(b.named), std::string::npos) << b.to << ": "
                                                         << what;
    }
    // In-range integral values, negative ones included, still decode.
    std::string text = good;
    text.replace(text.find("\"word_lines\":16"), 15, "\"word_lines\":-3");
    EXPECT_EQ(core::query_of_json(util::Json::parse(text)).cases[0].word_lines,
              -3);
}

template <class E, std::size_t N>
std::vector<std::string_view> tokens_of(const util::Token_table<E, N>& t)
{
    return {t.tokens.begin(), t.tokens.end()};
}

util::Json& member(util::Json& j, std::string_view key)
{
    for (auto& [name, value] : j.as_object()) {
        if (name == key) return value;
    }
    throw std::out_of_range(std::string(key));
}

util::Json& element(util::Json& j, std::string_view key, std::size_t i)
{
    return member(j, key).as_array().at(i);
}

TEST(CoreCache, DecoderErrorsNameTheTokenAndTheAcceptedSet)
{
    const auto sadp = tech::Patterning_option::sadp;
    const util::Json query = core::json_of_query(
        core::Query(core::Metric::mc_tdp)
            .with_case({sadp, 16, -1.0})
            .with_accuracy(sram::Sim_accuracy::fast)
            .with_solver(spice::Solver_policy::bypass));
    const util::Json table = core::json_of_result_table(core::Result_table(
        core::Metric::worst_case_rc, {{sadp, 16, -1.0}},
        {core::Worst_case_row{sadp, "corner", 1.0, 2.0, 3.0}}));
    mc::Worst_case_result wc;
    wc.realized = geom::Wire_array({{"BL0", 0.0, 2e-8, 1e-6,
                                     geom::Mask_color::mask_b,
                                     geom::Sadp_class::gap}});
    const util::Json worst_case = core::json_of_worst_case(wc);

    const auto decode_query = [](const util::Json& j) {
        core::query_of_json(j);
    };
    const auto decode_table = [](const util::Json& j) {
        core::result_table_of_json(j);
    };
    const auto decode_worst_case = [](const util::Json& j) {
        core::worst_case_of_json(j);
    };
    const std::string bad = "misspelt";
    const struct {
        const char* field;
        const util::Json& document;
        void (*decode)(const util::Json&);
        void (*misspell)(util::Json&, const std::string&);
        std::vector<std::string_view> accepted;
    } cases[] = {
        {"query metric", query, decode_query,
         [](util::Json& j, const std::string& t) { j.set("metric", t); },
         tokens_of(core::metric_tokens)},
        {"query case option", query, decode_query,
         [](util::Json& j, const std::string& t) {
             element(j, "cases", 0).set("option", t);
         },
         tokens_of(tech::patterning_option_tokens)},
        {"query accuracy", query, decode_query,
         [](util::Json& j, const std::string& t) { j.set("accuracy", t); },
         tokens_of(sram::sim_accuracy_tokens)},
        {"query solver", query, decode_query,
         [](util::Json& j, const std::string& t) { j.set("solver", t); },
         tokens_of(sram::solver_policy_tokens)},
        {"query sampling", query, decode_query,
         [](util::Json& j, const std::string& t) {
             member(j, "mc").set("sampling", t);
         },
         tokens_of(mc::sampling_tokens)},
        {"query tdp engine", query, decode_query,
         [](util::Json& j, const std::string& t) {
             j.set("tdp_engine", t);
         },
         tokens_of(core::tdp_engine_tokens)},
        {"query twp engine", query, decode_query,
         [](util::Json& j, const std::string& t) {
             j.set("twp_engine", t);
         },
         tokens_of(core::twp_engine_tokens)},
        {"table metric", table, decode_table,
         [](util::Json& j, const std::string& t) { j.set("metric", t); },
         tokens_of(core::metric_tokens)},
        {"table case option", table, decode_table,
         [](util::Json& j, const std::string& t) {
             element(j, "cases", 0).set("option", t);
         },
         tokens_of(tech::patterning_option_tokens)},
        {"table row type", table, decode_table,
         [](util::Json& j, const std::string& t) {
             element(j, "rows", 0).set("type", t);
         },
         {"worst_case", "read", "nominal_td", "worst_case_tdp", "write",
          "nominal_tw", "disturb", "distribution"}},
        {"table row option", table, decode_table,
         [](util::Json& j, const std::string& t) {
             element(j, "rows", 0).set("option", t);
         },
         tokens_of(tech::patterning_option_tokens)},
        {"wire color", worst_case, decode_worst_case,
         [](util::Json& j, const std::string& t) {
             element(j, "realized", 0).set("color", t);
         },
         tokens_of(geom::mask_color_tokens)},
        {"wire sadp class", worst_case, decode_worst_case,
         [](util::Json& j, const std::string& t) {
             element(j, "realized", 0).set("sadp", t);
         },
         tokens_of(geom::sadp_class_tokens)},
    };
    for (const auto& c : cases) {
        util::Json j = c.document;
        c.misspell(j, bad);
        const std::string what = precondition_text([&] { c.decode(j); });
        EXPECT_NE(what.find("'" + bad + "'"), std::string::npos)
            << c.field << ": " << what;
        for (const std::string_view token : c.accepted) {
            EXPECT_NE(what.find("'" + std::string(token) + "'"),
                      std::string::npos)
                << c.field << ": " << what;
        }
        // Unmodified, the same document decodes.
        EXPECT_EQ(precondition_text([&] { c.decode(c.document); }), "");
    }
}

TEST(CoreCache, QueryKeyIgnoresExecutionPolicy)
{
    const core::Study_session session;
    const core::Query base =
        core::Query(core::Metric::read_td)
            .with_case({tech::Patterning_option::le3, 16, -1.0});

    // Thread counts are execution policy: bitwise-identical results at
    // any count is the determinism contract, so the key must not move.
    core::Query threaded = base;
    threaded.runner.threads = 8;
    threaded.mc.runner.threads = 8;
    EXPECT_EQ(core::query_key(session, base),
              core::query_key(session, threaded));
}

TEST(CoreCache, QueryKeyResolvesSessionDefaults)
{
    const core::Study_session session;
    // word_lines <= 0 resolves to the session's array default (64) and
    // any negative overlay budget normalizes to -1: different spellings
    // of the same resolved case share one entry.
    const core::Query spelled =
        core::Query(core::Metric::read_td)
            .with_case({tech::Patterning_option::le3, 0, -5.0});
    const core::Query resolved =
        core::Query(core::Metric::read_td)
            .with_case({tech::Patterning_option::le3,
                        session.options().array.word_lines, -1.0});
    EXPECT_EQ(core::query_key(session, spelled),
              core::query_key(session, resolved));
}

TEST(CoreCache, QueryKeySeparatesResultChangingFields)
{
    const core::Study_session session;
    const core::Query base =
        core::Query(core::Metric::mc_tdp)
            .with_case({tech::Patterning_option::le3, 16, -1.0});
    const std::uint64_t base_key = core::query_key(session, base);

    core::Query other_seed = base;
    other_seed.mc.seed += 1;
    EXPECT_NE(core::query_key(session, other_seed), base_key);

    core::Query other_metric = base;
    other_metric.metric = core::Metric::mc_twp;
    EXPECT_NE(core::query_key(session, other_metric), base_key);

    core::Query other_engine = base;
    other_engine.tdp_engine = core::Tdp_engine::surrogate;
    EXPECT_NE(core::query_key(session, other_engine), base_key);

    core::Query other_accuracy = base;
    other_accuracy.accuracy = sram::Sim_accuracy::reference;
    EXPECT_NE(core::query_key(session, other_accuracy), base_key);
}

TEST(CoreCache, NanPoisonedTableRoundTripsBitwise)
{
    // A non-flipping write sample poisons its row with NaN; IEEE ==
    // cannot compare such tables, so the bitwise check is dump equality.
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    constexpr double inf = std::numeric_limits<double>::infinity();
    const core::Result_table table(
        core::Metric::write_tw,
        {{tech::Patterning_option::le3, 16, -1.0},
         {tech::Patterning_option::euv, 16, -1.0}},
        {core::Write_row{nan, -0.0, inf}, core::Write_row{1e-9, 2e-9, 3.5}});

    const util::Json encoded = core::json_of_result_table(table);
    const core::Result_table back = core::result_table_of_json(
        util::Json::parse(encoded.dump()));
    EXPECT_EQ(core::json_of_result_table(back).dump(), encoded.dump());
    EXPECT_TRUE(std::isnan(back.as<core::Write_row>(0).tw_nominal));
    EXPECT_TRUE(std::signbit(back.as<core::Write_row>(0).tw_varied));
    EXPECT_TRUE(std::isinf(back.as<core::Write_row>(0).twp_percent));
}

TEST(CoreCache, WarmSessionIsServedEntirelyFromDisk)
{
    const std::string dir = scratch_dir("warm");
    core::Study_options opts;
    opts.cache.mode = core::Cache_mode::readwrite;
    opts.cache.directory = dir;
    const core::Query query =
        core::Query(core::Metric::read_td)
            .with_case({tech::Patterning_option::le3, 16, -1.0});

    core::Result_table cold_table;
    {
        const core::Study_session cold(tech::n10(), opts);
        cold_table = cold.run(query);
        EXPECT_EQ(cold.cache_hit_count(), 0u);
        EXPECT_GT(cold.cache_store_count(), 0u);
        EXPECT_EQ(cold.corner_search_count(), 1u);
    }
    {
        const core::Study_session warm(tech::n10(), opts);
        const core::Result_table warm_table = warm.run(query);
        // The acceptance gate: zero SPICE work, served from disk,
        // bitwise identical.
        EXPECT_GT(warm.cache_hit_count(), 0u);
        EXPECT_EQ(warm.corner_search_count(), 0u);
        EXPECT_EQ(warm.surface_fit_count(), 0u);
        EXPECT_EQ(warm_table, cold_table);
        EXPECT_EQ(core::json_of_result_table(warm_table).dump(),
                  core::json_of_result_table(cold_table).dump());
    }
}

TEST(CoreCache, VersionBumpOrphansOldEntries)
{
    const std::string dir = scratch_dir("version");
    util::Json payload;
    payload.set("value", 42.0);

    core::Result_cache v1(dir, core::Cache_mode::readwrite, 1);
    v1.store("query", 7, payload);
    ASSERT_TRUE(v1.load("query", 7).has_value());

    core::Result_cache v2(dir, core::Cache_mode::readwrite, 2);
    EXPECT_FALSE(v2.load("query", 7).has_value());
    EXPECT_EQ(v2.miss_count(), 1u);
}

TEST(CoreCache, CorruptedEntriesDegradeToMisses)
{
    const std::string dir = scratch_dir("corrupt");
    util::Json payload;
    payload.set("value", 42.0);
    core::Result_cache cache(dir, core::Cache_mode::readwrite, 1);
    cache.store("query", 9, payload);
    const std::string path = entry_file(dir, 1, "query", 9);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Truncated file: not even JSON.
    util::write_file_atomic(path, "{\"version\":1,\"kind\":\"qu");
    EXPECT_FALSE(cache.load("query", 9).has_value());

    // Tampered payload: parses, but the checksum no longer matches.
    const std::optional<std::string> original = util::read_file(path);
    cache.store("query", 9, payload);
    util::Json envelope =
        util::Json::parse(*util::read_file(path));
    envelope.set("payload", [] {
        util::Json j;
        j.set("value", 43.0);
        return j;
    }());
    util::write_file_atomic(path, envelope.dump());
    EXPECT_FALSE(cache.load("query", 9).has_value());

    // A wrong-kind hit (file renamed across kind directories) misses too.
    cache.store("query", 9, payload);
    const std::string corner_path = entry_file(dir, 1, "corner", 9);
    std::filesystem::create_directories(
        std::filesystem::path(corner_path).parent_path());
    std::filesystem::copy_file(
        path, corner_path,
        std::filesystem::copy_options::overwrite_existing);
    EXPECT_FALSE(cache.load("corner", 9).has_value());

    // The intact entry still hits.
    EXPECT_TRUE(cache.load("query", 9).has_value());
    (void)original;
}

TEST(CoreCache, ConcurrentWritersLeaveOneValidEntry)
{
    const std::string dir = scratch_dir("concurrent");
    util::Json payload;
    payload.set("rows", util::Json_array{util::Json(1.25), util::Json(2.5)});
    const std::string expected = payload.dump();

    // Every writer stores the same bytes (the determinism contract is
    // what makes that true for real results); whichever rename wins must
    // leave a loadable, checksum-valid entry.
    core::run_indexed(
        16,
        [&dir, &payload](std::size_t, const core::Run_context&) {
            core::Result_cache writer(dir, core::Cache_mode::readwrite, 1);
            writer.store("query", 11, payload);
        },
        core::Runner_options{8});

    core::Result_cache reader(dir, core::Cache_mode::readwrite, 1);
    const auto loaded = reader.load("query", 11);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->dump(), expected);
    EXPECT_EQ(reader.hit_count(), 1u);
}

TEST(CoreCache, ReadModeNeverWrites)
{
    const std::string dir = scratch_dir("readonly");
    util::Json payload;
    payload.set("value", 1.0);
    core::Result_cache reader(dir, core::Cache_mode::read, 1);
    reader.store("query", 3, payload);
    EXPECT_EQ(reader.store_count(), 0u);
    EXPECT_FALSE(std::filesystem::exists(entry_file(dir, 1, "query", 3)));
    EXPECT_FALSE(reader.load("query", 3).has_value());
    EXPECT_EQ(reader.miss_count(), 1u);
}

TEST(CoreCacheGc, DeletesCorruptEntriesAndKeepsValidOnes)
{
    const std::string dir = scratch_dir("gc_corrupt");
    util::Json payload;
    payload.set("value", 42.0);
    core::Result_cache cache(dir, core::Cache_mode::readwrite, 1);
    cache.store("query", 1, payload);
    cache.store("query", 2, payload);
    cache.store("corner", 3, payload);

    // Damage one entry (truncation) and plant a key/path mismatch (a
    // valid envelope copied under the wrong name).
    util::write_file_atomic(entry_file(dir, 1, "query", 2),
                            "{\"version\":1,\"ki");
    std::filesystem::copy_file(
        entry_file(dir, 1, "query", 1), entry_file(dir, 1, "query", 4),
        std::filesystem::copy_options::overwrite_existing);

    const core::Gc_stats stats = core::gc_result_cache(dir);
    EXPECT_EQ(stats.corrupt_deleted, 2u);
    EXPECT_EQ(stats.evicted, 0u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_GT(stats.bytes_before, stats.bytes_after);

    // The survivors still load; the damaged files are gone.
    EXPECT_TRUE(cache.load("query", 1).has_value());
    EXPECT_TRUE(cache.load("corner", 3).has_value());
    EXPECT_FALSE(std::filesystem::exists(entry_file(dir, 1, "query", 2)));
    EXPECT_FALSE(std::filesystem::exists(entry_file(dir, 1, "query", 4)));
}

TEST(CoreCacheGc, EvictsOldestFirstUnderAByteBound)
{
    const std::string dir = scratch_dir("gc_evict");
    util::Json payload;
    payload.set("value", 42.0);
    core::Result_cache cache(dir, core::Cache_mode::readwrite, 1);
    cache.store("query", 1, payload);
    cache.store("query", 2, payload);
    cache.store("query", 3, payload);

    // Pin distinct mtimes so "oldest" is unambiguous: 1 oldest, 3 newest.
    namespace fs = std::filesystem;
    const auto now = fs::last_write_time(entry_file(dir, 1, "query", 3));
    fs::last_write_time(entry_file(dir, 1, "query", 1),
                        now - std::chrono::hours(2));
    fs::last_write_time(entry_file(dir, 1, "query", 2),
                        now - std::chrono::hours(1));

    const std::uint64_t each =
        fs::file_size(entry_file(dir, 1, "query", 1));
    core::Gc_options options;
    options.max_bytes = 2 * each;  // room for exactly two entries
    const core::Gc_stats stats = core::gc_result_cache(dir, options);

    EXPECT_EQ(stats.evicted, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_LE(stats.bytes_after, *options.max_bytes);
    EXPECT_FALSE(std::filesystem::exists(entry_file(dir, 1, "query", 1)));
    EXPECT_TRUE(cache.load("query", 2).has_value());
    EXPECT_TRUE(cache.load("query", 3).has_value());
}

TEST(CoreCacheGc, ZeroBoundEvictsEverythingValid)
{
    const std::string dir = scratch_dir("gc_zero");
    util::Json payload;
    payload.set("value", 1.0);
    core::Result_cache cache(dir, core::Cache_mode::readwrite, 1);
    cache.store("query", 1, payload);
    cache.store("surface", 2, payload);

    core::Gc_options options;
    options.max_bytes = 0;
    const core::Gc_stats stats = core::gc_result_cache(dir, options);
    EXPECT_EQ(stats.evicted, 2u);
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.bytes_after, 0u);
}

TEST(CoreCacheGc, MissingDirectoryIsRejected)
{
    EXPECT_THROW(core::gc_result_cache("cache_test_scratch/nope_gc"),
                 util::Precondition_error);
}

TEST(CoreCache, UncachedSessionReportsZeroTrafficAndOffMode)
{
    core::Study_options opts;
    opts.cache.mode = core::Cache_mode::off;
    // `off` wins even with a directory configured (also sidesteps GCC
    // 12's optional<string> maybe-uninitialized false positive at -O3).
    opts.cache.directory = scratch_dir("off");
    const core::Study_session session(tech::n10(), opts);
    EXPECT_EQ(session.cache_mode(), core::Cache_mode::off);
    EXPECT_EQ(session.cache_hit_count(), 0u);
    EXPECT_EQ(session.cache_miss_count(), 0u);
    EXPECT_EQ(session.cache_store_count(), 0u);
}

} // namespace
