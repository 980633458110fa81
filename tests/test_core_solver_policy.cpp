// Solver-tier contract at the query/session layer: the reuse tier
// (bypass) must stay inside the paper-row calibration budget against the
// reference+direct oracle, stay bitwise deterministic across thread
// counts, and be rejected loudly when combined with the reference
// accuracy tier (sram/solver_policy.h).
#include "sram/solver_policy.h"

#include <cmath>
#include <optional>

#include <gtest/gtest.h>

#include "core/query.h"
#include "core/session.h"
#include "extract/extractor.h"
#include "sram/disturb_sim.h"
#include "sram/read_sim.h"
#include "sram/write_sim.h"
#include "util/contracts.h"
#include "util/numeric.h"

namespace {

using namespace mpsram;
using core::Metric;
using core::Query;
using spice::Solver_policy;

constexpr int kSizes[] = {8, 16, 24, 32};

// --- resolution contract -----------------------------------------------------

TEST(SolverPolicyContract, ReferenceRejectsExplicitBypass)
{
    EXPECT_THROW(sram::resolve_solver_policy(sram::Sim_accuracy::reference,
                                             Solver_policy::bypass),
                 util::Precondition_error);
    // Defaulted and explicit-direct requests resolve to the oracle.
    EXPECT_EQ(sram::resolve_solver_policy(sram::Sim_accuracy::reference,
                                          std::nullopt),
              Solver_policy::direct);
    EXPECT_EQ(sram::resolve_solver_policy(sram::Sim_accuracy::reference,
                                          Solver_policy::direct),
              Solver_policy::direct);
}

TEST(SolverPolicyContract, FastHonorsExplicitRequests)
{
    for (const Solver_policy policy :
         {Solver_policy::direct, Solver_policy::bypass}) {
        EXPECT_EQ(sram::resolve_solver_policy(sram::Sim_accuracy::fast,
                                              policy),
                  policy);
    }
}

TEST(SolverPolicyContract, AllThreeWorkloadPathsEnforceIt)
{
    // The check must live on every sim path, not just read: a reference
    // validation run that silently ran a reuse tier on one workload would
    // poison the oracle side of the agreement gates.
    const core::Study_session session;
    constexpr int sizes[] = {8};
    for (const Metric metric :
         {Metric::read_td, Metric::write_tw, Metric::disturb}) {
        EXPECT_THROW(
            session.run(Query(metric)
                            .over_word_lines(tech::Patterning_option::le3,
                                             sizes)
                            .with_accuracy(sram::Sim_accuracy::reference)
                            .with_solver(Solver_policy::bypass)),
            util::Precondition_error)
            << "metric " << static_cast<int>(metric);
    }
}

// --- paper-row agreement -----------------------------------------------------

TEST(SolverPolicyAgreement, BypassStaysInCalibrationBudget)
{
    // Fig. 4 read rows (small prefix; bench_perf_solver gates the full
    // set to 10x1024): fast+bypass vs the reference+direct oracle, held
    // to the same 0.5% budget as the accuracy tier itself.
    const core::Study_session session;
    constexpr int sizes[] = {16, 64};
    const Query base = Query(Metric::read_td)
                           .over_word_lines(tech::Patterning_option::le3,
                                            sizes);
    const core::Result_table reference = session.run(
        Query(base).with_accuracy(sram::Sim_accuracy::reference));
    const core::Result_table fast =
        session.run(Query(base)
                        .with_accuracy(sram::Sim_accuracy::fast)
                        .with_solver(Solver_policy::bypass));
    ASSERT_EQ(fast.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        const auto& ref = reference.as<core::Read_row>(i);
        const auto& fst = fast.as<core::Read_row>(i);
        EXPECT_LE(util::rel_diff(ref.td_nominal, fst.td_nominal), 5e-3);
        EXPECT_LE(util::rel_diff(ref.td_varied, fst.td_varied), 5e-3);
        EXPECT_LE(std::fabs(ref.tdp_percent - fst.tdp_percent), 0.5);
    }
}

// --- thread determinism ------------------------------------------------------

TEST(SolverPolicyDeterminism, BitwiseIdenticalAcrossThreadsPerTier)
{
    // The factorization state of the bypass tier evolves only from solve
    // inputs, so the 1/2/8-thread bitwise contract must hold per tier
    // exactly as it does for direct.
    for (const Solver_policy policy :
         {Solver_policy::direct, Solver_policy::bypass}) {
        auto run = [&](int threads) {
            const core::Study_session session;
            return session.run(
                Query(Metric::read_td)
                    .over_word_lines(tech::Patterning_option::le3, kSizes)
                    .with_accuracy(sram::Sim_accuracy::fast)
                    .with_solver(policy)
                    .on(core::Runner_options{threads}));
        };
        const core::Result_table serial = run(1);
        for (const int threads : {2, 8}) {
            EXPECT_TRUE(run(threads) == serial)
                << "policy " << sram::to_string(policy) << " threads "
                << threads;
        }
    }
}

// --- large-array smoke -------------------------------------------------------

struct Column_fixture {
    tech::Technology t = tech::n10();
    sram::Cell_electrical cell = sram::Cell_electrical::n10(t.feol);
    extract::Extractor ex{t.metal1};
    sram::Array_config cfg;
    sram::Bitline_electrical wires;

    explicit Column_fixture(int n)
    {
        cfg.word_lines = n;
        cfg.victim_pair = 2;
        const geom::Wire_array arr = sram::build_metal1_array(t, cfg);
        wires = sram::roll_up_nominal(ex, arr, t, cfg);
    }
};

TEST(SolverPolicyLargeArray, ReferenceTransientSmokeAt4096)
{
    // A 4k-row column, 4x the paper's largest, must stay solvable by the
    // fixed-step reference oracle.  A 4096-cell bitline is past
    // the paper's measurable range (the differential does not reach the
    // sense threshold inside any sane window), so this is a solver smoke
    // test: the transient must complete with healthy counters and
    // physical voltages, not produce a td.  Reduced step count and no
    // window retries keep it a smoke test, not a benchmark.
    Column_fixture f(4096);
    sram::Read_netlist net =
        sram::build_read_netlist(f.t, f.cell, f.wires, f.cfg);
    sram::Read_options opts;
    opts.accuracy = sram::Sim_accuracy::reference;
    opts.nominal_steps = 400;
    opts.max_retries = 0;
    const sram::Read_result r = sram::simulate_read(net, opts);
    ASSERT_GT(r.steps.accepted, 0);
    EXPECT_EQ(r.steps.bypass_hits, 0);  // reference resolves to direct
    EXPECT_EQ(r.steps.lu_factorizations, r.steps.newton_iterations);
    // The accessed bitline discharges below its complement; both stay
    // inside the rail.
    EXPECT_LE(r.bl_final, r.blb_final);
    EXPECT_LE(r.blb_final, f.t.feol.vdd + 1e-6);
    EXPECT_GE(r.bl_final, -1e-6);
}

TEST(SolverPolicyLargeArray, BypassTransientSmokeAt4096)
{
    // The same column on the factorization-reuse tier: every Newton
    // iteration either refactors or reuses, and reuse must actually
    // happen at this size.
    Column_fixture f(4096);
    sram::Read_netlist net =
        sram::build_read_netlist(f.t, f.cell, f.wires, f.cfg);
    sram::Read_options opts;
    opts.accuracy = sram::Sim_accuracy::fast;
    opts.solver = Solver_policy::bypass;
    opts.nominal_steps = 400;
    opts.max_retries = 0;
    const sram::Read_result r = sram::simulate_read(net, opts);
    ASSERT_GT(r.steps.accepted, 0);
    EXPECT_GT(r.steps.bypass_hits, 0);
    EXPECT_LT(r.steps.lu_factorizations, r.steps.newton_iterations);
    EXPECT_EQ(r.steps.lu_factorizations + r.steps.bypass_hits,
              r.steps.newton_iterations);
    EXPECT_LE(r.bl_final, r.blb_final);
}

// --- counters surface through the batch layer --------------------------------

TEST(SolverPolicyCounters, SessionOptionDefaultsFlowToSims)
{
    // A session whose read options pin the bypass tier must produce reads
    // whose Step_stats show bypass activity — the option plumbed through
    // core::Study_session, not just the direct sim call.
    core::Study_options sopts;
    sopts.read.solver = Solver_policy::bypass;
    sopts.read.accuracy = sram::Sim_accuracy::fast;
    const core::Study_session session(tech::n10(), sopts);
    constexpr int sizes[] = {8};
    const core::Result_table table = session.run(
        Query(Metric::read_td)
            .over_word_lines(tech::Patterning_option::le3, sizes));
    ASSERT_EQ(table.size(), 1u);
    EXPECT_GT(table.as<core::Read_row>(0).td_nominal, 0.0);
}

} // namespace
