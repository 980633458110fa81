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
#include <gtest/gtest.h>

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

} // namespace
