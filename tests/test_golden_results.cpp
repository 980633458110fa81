// Golden result bytes: the FNV-1a hash (util/hash.h) of the canonical
// result-table JSON (core/serialize.h) for tiny canonical queries, one per
// metric x solver tier that runs SPICE, plus the SPICE-free metrics.
//
// These pin the engine's numerics bit for bit.  A change that is meant to
// be a pure refactor or speed-up (stamp assembly, LU scratch, scheduling)
// must leave every hash unchanged.  A change that deliberately moves
// result bits must re-pin the hashes here in the same change and say why.
// The hashes are those of an x86-64 glibc Release build; another libm can
// legitimately round differently.
//
// GoldenKeys pins the serialization itself, with no SPICE run: the
// configuration fingerprint, the query and sub-artifact cache keys, and
// the canonical dumps of a query corpus that spells every enum token, a
// table with one row of each type, a worst-case result with every mask
// colour and SADP class, and a set of surrogate surfaces.  A key that
// moves orphans every cache entry stored under it, so these hashes never
// move without a serialization_version bump.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/query.h"
#include "core/result_cache.h"
#include "core/serialize.h"
#include "core/session.h"
#include "util/hash.h"

namespace {

using namespace mpsram;

constexpr tech::Patterning_option le3 = tech::Patterning_option::le3;
constexpr int word_lines = 64;

struct Tier {
    const char* name;
    sram::Sim_accuracy accuracy;
    spice::Solver_policy solver;
};

constexpr Tier tiers[] = {
    {"reference+direct", sram::Sim_accuracy::reference,
     spice::Solver_policy::direct},
    {"fast+direct", sram::Sim_accuracy::fast, spice::Solver_policy::direct},
    {"fast+bypass", sram::Sim_accuracy::fast, spice::Solver_policy::bypass},
};

class GoldenResults : public ::testing::Test {
protected:
    static void SetUpTestSuite()
    {
        core::Study_options opts;
        opts.cache.mode = core::Cache_mode::off;
        session_ = new core::Study_session(tech::n10(), opts);
    }
    static void TearDownTestSuite()
    {
        delete session_;
        session_ = nullptr;
    }

    /// Hex FNV-1a of the canonical result bytes of `q`.
    static std::string result_hash(const core::Query& q)
    {
        const core::Result_table table = session_->run(q);
        return util::hex16(
            util::fnv1a(core::json_of_result_table(table).dump()));
    }

    static core::Query one_case(core::Metric metric)
    {
        return core::Query(metric).with_case({le3, word_lines, -1.0});
    }

    /// Check `metric` under every solver tier against `expected`
    /// (indexed like `tiers`).
    static void check_tiers(core::Metric metric,
                            const std::vector<std::string>& expected)
    {
        ASSERT_EQ(expected.size(), std::size(tiers));
        for (std::size_t i = 0; i < expected.size(); ++i) {
            const core::Query q = one_case(metric)
                                      .with_accuracy(tiers[i].accuracy)
                                      .with_solver(tiers[i].solver);
            EXPECT_EQ(result_hash(q), expected[i])
                << core::to_string(metric) << " " << tiers[i].name;
        }
    }

    static core::Study_session* session_;
};

core::Study_session* GoldenResults::session_ = nullptr;

TEST_F(GoldenResults, ReadTd)
{
    check_tiers(core::Metric::read_td,
                {"d87dab213289bb4b", "538cb5fec3ad4475", "aaff5ff3b44ec1b3"});
}

TEST_F(GoldenResults, WriteTw)
{
    check_tiers(core::Metric::write_tw,
                {"e1a0c47f24f9c4f2", "5aa540c1a5e2cb26", "0ea89f15f209ca1d"});
}

TEST_F(GoldenResults, Disturb)
{
    check_tiers(core::Metric::disturb,
                {"875ec32d00792f77", "91c01a6eaca0c8a6", "9c098be03c927002"});
}

TEST_F(GoldenResults, WorstCaseRc)
{
    EXPECT_EQ(result_hash(one_case(core::Metric::worst_case_rc)),
              "cdb0282839cd64df");
}

TEST_F(GoldenResults, FormulaMcTdp)
{
    core::Query q = one_case(core::Metric::mc_tdp)
                        .with_tdp_engine(core::Tdp_engine::formula);
    q.mc.samples = 200;
    q.mc.seed = 7;
    EXPECT_EQ(result_hash(q), "5c2a1010f3ae1369");
}

TEST_F(GoldenResults, SpiceMcTdp)
{
    core::Query q = one_case(core::Metric::mc_tdp)
                        .with_tdp_engine(core::Tdp_engine::spice)
                        .with_accuracy(sram::Sim_accuracy::fast)
                        .with_solver(spice::Solver_policy::bypass);
    q.mc.samples = 4;
    q.mc.seed = 7;
    EXPECT_EQ(result_hash(q), "43334a62387963db");
}

// --- serialization keys and dumps -------------------------------------------

std::string hex_of(const std::string& bytes)
{
    return util::hex16(util::fnv1a(bytes));
}

/// Default options with the accuracy tiers spelled out, so neither the
/// fingerprint nor the resolved policies follow MPSRAM_SIM_ACCURACY.
core::Study_options pinned_options()
{
    core::Study_options opts;
    opts.read.accuracy = sram::Sim_accuracy::fast;
    opts.write.accuracy = sram::Sim_accuracy::fast;
    opts.disturb.accuracy = sram::Sim_accuracy::fast;
    opts.cache.mode = core::Cache_mode::off;
    return opts;
}

constexpr auto sadp = tech::Patterning_option::sadp;
constexpr auto euv = tech::Patterning_option::euv;
constexpr auto fast = sram::Sim_accuracy::fast;
constexpr auto reference = sram::Sim_accuracy::reference;
constexpr auto direct = spice::Solver_policy::direct;
constexpr auto bypass = spice::Solver_policy::bypass;

struct Keyed_query {
    const char* label;
    core::Query query;
    const char* dump_hash;  ///< of json_of_query(query).dump()
    const char* key_hash;   ///< hex16 of query_key
};

/// Every token of every enum a query carries.  Queries on the session's
/// fast default name a solver, so no key follows MPSRAM_SOLVER_POLICY.
std::vector<Keyed_query> query_corpus()
{
    using core::Metric;
    std::vector<Keyed_query> corpus;
    const auto add = [&corpus](const char* label, core::Query q,
                               const char* dump, const char* key) {
        corpus.push_back({label, std::move(q), dump, key});
    };

    add("worst_case_rc default axes",
        core::Query(Metric::worst_case_rc)
            .with_case({le3, 0, -2.5})
            .with_accuracy(reference),
        "b1a96e49da37e7ae", "f4e987cea5443f7f");
    add("read_td all options",
        core::Query(Metric::read_td)
            .over_options(std::vector{le3, sadp, euv}, 16, 4e-9)
            .with_accuracy(fast)
            .with_solver(direct),
        "2d53fc0dab92e36c", "ceb9a708289db7fd");
    add("nominal_td", core::Query(Metric::nominal_td)
                          .with_case({euv, 64, -1.0})
                          .with_solver(bypass),
        "836da5c9ecdedf9f", "744b130c731324fd");
    add("worst_case_tdp solver conflict",
        core::Query(Metric::worst_case_tdp)
            .with_case({le3, 32, 2e-9})
            .with_accuracy(reference)
            .with_solver(bypass),
        "fe3d2cf60fb891e2", "15257c5d9a5613ad");
    {
        core::Query q = core::Query(Metric::mc_tdp)
                            .with_case({le3, 64, 8e-9})
                            .with_tdp_engine(core::Tdp_engine::formula)
                            .with_solver(direct);
        q.mc.samples = 5000;
        q.mc.seed = 18446744073709551557ull;  // above 2^53
        q.mc.sampling = mc::Sampling::pseudo_random;
        q.mc.store_samples = true;
        add("mc_tdp formula", std::move(q), "d5302ad62e98efa3", "e6af9c2be347d575");
    }
    {
        core::Query q = core::Query(Metric::mc_tdp)
                            .with_case({sadp, 16, -1.0})
                            .with_tdp_engine(core::Tdp_engine::spice)
                            .with_accuracy(reference);
        q.mc.samples = 40;
        q.mc.seed = 9007199254740993ull;  // 2^53 + 1
        q.mc.truncate_k = 2.5;
        q.mc.sampling = mc::Sampling::latin_hypercube;
        add("mc_tdp spice lhs", std::move(q), "080eb07537a6ee61", "4855a1597e2d0f30");
    }
    {
        core::Query q = core::Query(Metric::mc_tdp)
                            .with_case({euv, 0, -1.0})
                            .with_tdp_engine(core::Tdp_engine::surrogate)
                            .with_solver(bypass);
        q.mc.samples = 250000;
        q.mc.store_samples = false;
        add("mc_tdp surrogate streaming", std::move(q), "7f48babb3ff55b70", "fdfeac206bd229da");
    }
    add("write_tw", core::Query(Metric::write_tw)
                        .with_case({sadp, 24, -1.0})
                        .with_accuracy(reference)
                        .with_solver(direct),
        "155254321b54cf94", "768dc567c05cb03d");
    add("nominal_tw", core::Query(Metric::nominal_tw)
                          .with_case({euv, 128, -1.0})
                          .with_accuracy(fast)
                          .with_solver(bypass),
        "1db6cd8850363896", "d6225935b51def7d");
    const auto mc_twp = [](core::Twp_engine engine) {
        core::Query q = core::Query(Metric::mc_twp)
                            .with_case({le3, 32, -7.0})
                            .with_twp_engine(engine)
                            .with_solver(bypass);
        q.mc.samples = 12;
        q.mc.seed = 3;
        return q;
    };
    add("mc_twp spice", mc_twp(core::Twp_engine::spice), "48dfa23940997516", "8093d046feecc4c0");
    add("mc_twp formula", mc_twp(core::Twp_engine::formula), "7f11af09ac29312a", "bf617db8a11944e0");
    add("mc_twp surrogate", mc_twp(core::Twp_engine::surrogate), "524080628a14b7b6", "0c62b3ac081dfabc");
    add("disturb", core::Query(Metric::disturb)
                       .with_case({le3, 16, 6e-9})
                       .with_case({sadp, 0, -1.0})
                       .with_solver(direct),
        "786638c14578d19e", "5f3514d86ec1aca4");
    return corpus;
}

class GoldenKeys : public ::testing::Test {
protected:
    GoldenKeys() : session_(tech::n10(), pinned_options()) {}

    std::uint64_t fingerprint() const
    {
        return core::config_fingerprint(session_.technology(),
                                        session_.options());
    }

    core::Study_session session_;
};

TEST_F(GoldenKeys, ConfigFingerprint)
{
    EXPECT_EQ(util::hex16(fingerprint()), "14423047e5131150");
}

TEST_F(GoldenKeys, QueryDumpsAndKeys)
{
    for (const Keyed_query& k : query_corpus()) {
        const std::string dump = core::json_of_query(k.query).dump();
        EXPECT_EQ(hex_of(dump), k.dump_hash) << k.label << ": " << dump;
        EXPECT_EQ(util::hex16(core::query_key(session_, k.query)),
                  k.key_hash)
            << k.label << ": "
            << core::canonical_query_json(session_, k.query).dump();
        // The decoder reads back exactly what the encoder wrote.
        EXPECT_EQ(core::json_of_query(
                      core::query_of_json(util::Json::parse(dump)))
                      .dump(),
                  dump)
            << k.label;
    }
}

TEST_F(GoldenKeys, SubArtifactKeys)
{
    const std::uint64_t fp = fingerprint();
    EXPECT_EQ(util::hex16(core::corner_key(fp, le3, 64, -3.0)), "78a6b8adb1ec407b");
    EXPECT_EQ(util::hex16(core::corner_key(fp, sadp, 16, 2.5e-9)), "970d0bf0768045cb");
    EXPECT_EQ(util::hex16(core::corner_key(fp, euv, 1024, -1.0)), "ec6793e31e3746dd");
    EXPECT_EQ(util::hex16(core::nominal_key(fp, "nominal_td", 64, fast,
                                            bypass)),
              "dcd98238ebb1a855");
    EXPECT_EQ(util::hex16(core::nominal_key(fp, "nominal_tw", 16,
                                            reference, direct)),
              "abb727082001c011");
    EXPECT_EQ(util::hex16(core::nominal_key(fp, "nominal_disturb", 1024,
                                            fast, direct)),
              "6679e24a97cf40bc");
    EXPECT_EQ(util::hex16(core::surface_key(fp, core::Metric::mc_tdp, le3,
                                            64, -1.0, fast, bypass)),
              "cba9a8ddba848eb6");
    EXPECT_EQ(util::hex16(core::surface_key(fp, core::Metric::mc_twp, sadp,
                                            32, 4e-9, reference, direct)),
              "9e83b7bff2c1d2da");
}

constexpr double nan = std::numeric_limits<double>::quiet_NaN();
const double payload_nan = std::bit_cast<double>(0x7ff8dead0000beefull);
constexpr double inf = std::numeric_limits<double>::infinity();

TEST_F(GoldenKeys, ResultTableDump)
{
    mc::Tdp_distribution dist;
    dist.tdp = {1.25, -0.0, nan};
    dist.rvar = {1.0, payload_nan, 0.97};
    dist.cvar = {1.0, 1.5e-300, -inf};
    dist.summary.count = 3;
    dist.summary.mean = 0.625;
    dist.summary.stddev = nan;
    dist.summary.min = -0.0;
    dist.summary.max = 1.25;
    dist.summary.median = 0.5;
    dist.summary.p01 = -0.0;
    dist.summary.p99 = inf;

    std::vector<core::Query_case> cases;
    std::vector<core::Row_value> rows;
    const auto add = [&](core::Row_value row) {
        cases.push_back({static_cast<tech::Patterning_option>(
                             rows.size() % 3),
                         static_cast<int>(16 * (rows.size() + 1)),
                         rows.size() % 2 ? -1.0 : 3e-9});
        rows.push_back(std::move(row));
    };
    add(core::Worst_case_row{sadp, "cd_mandrel=+3s spacer=-3s", 61.5,
                             -0.0, nan});
    add(core::Read_row{1.5e-11, 1.75e-11, 16.666666666666668});
    add(core::Nominal_td_row{payload_nan, 2e-11});
    add(core::Tdp_row{-0.0, 12.5});
    add(core::Write_row{6e-10, nan, nan});
    add(core::Nominal_tw_row{5.9892e-10, -inf});
    add(core::Disturb_row{0.125, 0.13, 4.0000000000000036});
    add(std::move(dist));
    const core::Result_table table(core::Metric::read_td, std::move(cases),
                                   std::move(rows));

    const std::string dump = core::json_of_result_table(table).dump();
    EXPECT_EQ(hex_of(dump), "21645ced11716025") << dump;
    EXPECT_EQ(core::json_of_result_table(
                  core::result_table_of_json(util::Json::parse(dump)))
                  .dump(),
              dump);
}

TEST_F(GoldenKeys, WorstCaseDump)
{
    mc::Worst_case_result wc;
    wc.corner.sample = {3.0, -3.0, -0.0, 1.5};
    wc.corner.metric = 1.6e-15;
    wc.variation.r_factor = 1.0625;
    wc.variation.c_factor = nan;
    wc.vss_r_factor = -0.0;
    std::vector<geom::Wire> wires;
    const geom::Mask_color colors[] = {
        geom::Mask_color::unassigned, geom::Mask_color::mask_a,
        geom::Mask_color::mask_b, geom::Mask_color::mask_c};
    const geom::Sadp_class classes[] = {geom::Sadp_class::none,
                                        geom::Sadp_class::mandrel,
                                        geom::Sadp_class::gap};
    for (int i = 0; i < 4; ++i) {
        geom::Wire w;
        w.net = i == 0 ? "VSS" : "BL" + std::to_string(i);
        w.y_center = 4.8e-8 * i;
        w.width = 2.4e-8 + 1e-10 * i;
        w.length = 1.2e-6;
        w.color = colors[i];
        w.sadp = classes[i % 3];
        wires.push_back(w);
    }
    wc.realized = geom::Wire_array(std::move(wires));

    const std::string dump = core::json_of_worst_case(wc).dump();
    EXPECT_EQ(hex_of(dump), "4abc9ddf1bdc7dbc") << dump;
    EXPECT_EQ(core::json_of_worst_case(
                  core::worst_case_of_json(util::Json::parse(dump)))
                  .dump(),
              dump);
}

TEST_F(GoldenKeys, SurfacesDump)
{
    const auto surface = [](double bias) {
        std::vector<double> coeffs(
            analytic::Response_surface::coefficient_count(2));
        for (std::size_t i = 0; i < coeffs.size(); ++i) {
            coeffs[i] = bias + 0.125 * static_cast<double>(i);
        }
        coeffs[1] = -0.0;
        return analytic::Response_surface::restore({1e-9, 2.5e-9},
                                                   std::move(coeffs));
    };
    analytic::Yield_surfaces s;
    s.metric = surface(10.0);
    s.rvar = surface(1.0);
    s.cvar = surface(nan);
    s.holdout_rel = 0.0125;
    s.design_span = -0.0;
    s.design_points = 9007199254740993ull;  // 2^53 + 1
    s.holdout_points = 12;

    const std::string dump = core::json_of_surfaces(s).dump();
    EXPECT_EQ(hex_of(dump), "fbe49da8e4aa27fe") << dump;
    EXPECT_EQ(core::json_of_surfaces(
                  core::surfaces_of_json(util::Json::parse(dump)))
                  .dump(),
              dump);
}

} // namespace
