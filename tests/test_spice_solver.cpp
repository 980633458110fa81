// Linear-solver tier (spice::Solver_policy): factorization reuse and the
// Step_stats counter contracts that prove which tier actually ran.
// Semantics in spice/analysis.h.
#include "spice/sparse.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/runner.h"
#include "spice/analysis.h"
#include "spice/mosfet_model.h"
#include "sram/read_sim.h"
#include "extract/extractor.h"
#include "util/contracts.h"
#include "util/numeric.h"

namespace {

using namespace mpsram;
using spice::Solver_policy;
using spice::Sparse_lu;
using spice::Sparse_matrix;

/// The -1 2 -1 conductance ladder every bitline discretizes to.
Sparse_matrix ladder(std::size_t n)
{
    std::vector<std::pair<int, int>> entries;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        entries.push_back({static_cast<int>(i), static_cast<int>(i + 1)});
        entries.push_back({static_cast<int>(i + 1), static_cast<int>(i)});
    }
    Sparse_matrix m(n, entries);
    for (std::size_t i = 0; i < n; ++i) {
        m.add(static_cast<int>(i), static_cast<int>(i), 2.0);
        if (i + 1 < n) {
            m.add(static_cast<int>(i), static_cast<int>(i + 1), -1.0);
            m.add(static_cast<int>(i + 1), static_cast<int>(i), -1.0);
        }
    }
    return m;
}

std::vector<double> ramp_rhs(std::size_t n)
{
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) {
        b[i] = 0.25 + 0.01 * static_cast<double>(i);
    }
    return b;
}

TEST(SolverReuse, StaleFactorSolveBitwiseIdenticalToFresh)
{
    // The bypass tier's core assumption: as long as the values are
    // unchanged, solving against the factorization computed N solves ago
    // is BITWISE identical to refactoring first — reuse can never perturb
    // a converged result, only the iteration count.
    const Sparse_matrix m = ladder(64);
    const std::vector<double> b = ramp_rhs(64);

    Sparse_lu stale(m);
    stale.factor(m);
    std::vector<double> x_stale = b;
    stale.solve(x_stale);  // first solve, factor now "stale"
    std::vector<double> x_stale2 = b;
    stale.solve(x_stale2);  // reuse without refactor

    Sparse_lu fresh(m);
    fresh.factor(m);
    std::vector<double> x_fresh = b;
    fresh.solve(x_fresh);

    for (std::size_t i = 0; i < b.size(); ++i) {
        EXPECT_EQ(x_stale[i], x_fresh[i]) << "row " << i;
        EXPECT_EQ(x_stale2[i], x_fresh[i]) << "row " << i;
    }
}

/// A small SRAM read column: the nonlinear MOSFET workload the bypass
/// tier must reproduce, with Step_stats exposing which tier ran.
struct Read_fixture {
    tech::Technology t = tech::n10();
    sram::Cell_electrical cell = sram::Cell_electrical::n10(t.feol);
    extract::Extractor ex{t.metal1};
    sram::Array_config cfg;
    sram::Bitline_electrical wires;

    explicit Read_fixture(int n)
    {
        cfg.word_lines = n;
        cfg.victim_pair = 2;
        const geom::Wire_array arr = sram::build_metal1_array(t, cfg);
        wires = sram::roll_up_nominal(ex, arr, t, cfg);
    }

    sram::Read_result run(Solver_policy policy)
    {
        sram::Read_netlist net =
            sram::build_read_netlist(t, cell, wires, cfg);
        sram::Read_options opts;
        opts.accuracy = sram::Sim_accuracy::fast;
        opts.solver = policy;
        return sram::simulate_read(net, opts);
    }
};

TEST(SolverPolicy, BypassAgreesWithDirectOnReadColumn)
{
    Read_fixture f(8);
    const sram::Read_result direct = f.run(Solver_policy::direct);
    ASSERT_TRUE(direct.crossed);
    const sram::Read_result r = f.run(Solver_policy::bypass);
    ASSERT_TRUE(r.crossed);
    EXPECT_LE(util::rel_diff(direct.td, r.td), 5e-3);
    EXPECT_LE(std::fabs(direct.bl_final - r.bl_final), 5e-3);
}

TEST(SolverPolicy, DirectCountersFactorEveryIteration)
{
    Read_fixture f(8);
    const sram::Read_result r = f.run(Solver_policy::direct);
    ASSERT_GT(r.steps.newton_iterations, 0);
    EXPECT_EQ(r.steps.lu_factorizations, r.steps.newton_iterations);
    EXPECT_EQ(r.steps.bypass_hits, 0);
}

TEST(SolverPolicy, BypassCountersProveFactorizationsAvoided)
{
    // 64 cells: long enough for quiet waveform stretches, where the
    // staleness envelope actually admits reuse (a tiny column spends
    // most steps moving, so the drift trigger keeps refreshing).
    Read_fixture f(64);
    const sram::Read_result direct = f.run(Solver_policy::direct);
    const sram::Read_result r = f.run(Solver_policy::bypass);
    ASSERT_GT(r.steps.newton_iterations, 0);
    // Every reuse-path iteration either refactors or bypasses — and the
    // point of the tier is factoring far less than the per-iteration
    // oracle on the same workload.
    EXPECT_EQ(r.steps.lu_factorizations + r.steps.bypass_hits,
              r.steps.newton_iterations);
    EXPECT_GT(r.steps.bypass_hits, 0);
    EXPECT_LT(r.steps.lu_factorizations * 2, direct.steps.lu_factorizations);
}

TEST(SolverPolicy, LinearCircuitTiersMatchTightly)
{
    // On a linear RC ladder the Jacobian is constant, so the delta-
    // residual reuse path iterates the SAME exact factorization as the
    // direct tier — the waveforms must agree to rounding, not just to
    // the calibration budget.
    spice::Circuit c;
    const spice::Node in = c.node("in");
    spice::Node prev = in;
    for (int i = 0; i < 20; ++i) {
        const spice::Node n = c.node("n" + std::to_string(i));
        c.add_resistor("R" + std::to_string(i), prev, n, 500.0);
        c.add_capacitor("C" + std::to_string(i), n, spice::ground_node,
                        2e-15);
        prev = n;
    }
    c.add_voltage_source("Vin", in, spice::ground_node,
                         spice::Waveform::pulse(0.0, 0.7, 20e-12, 5e-12));

    auto run = [&](Solver_policy policy) {
        spice::Transient_options opts;
        opts.tstop = 500e-12;
        opts.nominal_steps = 500;
        opts.newton.solver = policy;
        return spice::run_transient(c, {prev}, opts);
    };
    const auto direct = run(Solver_policy::direct);
    const auto bypass = run(Solver_policy::bypass);
    const std::string probe = c.node_name(prev);
    EXPECT_NEAR(direct.final_value(probe), bypass.final_value(probe),
                1e-9);
}

/// A capacitor-free three-stage inverter chain: every counted device
/// evaluation is a MOSFET compact-model evaluation.
spice::Circuit inverter_chain()
{
    spice::Mosfet_params nm;
    nm.type = spice::Mosfet_type::nmos;
    nm = spice::calibrate_beta(nm, 0.7, 40e-6);
    spice::Mosfet_params pm;
    pm.type = spice::Mosfet_type::pmos;
    pm = spice::calibrate_beta(pm, 0.7, 30e-6);

    spice::Circuit c;
    const spice::Node vdd = c.node("vdd");
    spice::Node in = c.node("in");
    c.add_voltage_source("Vdd", vdd, spice::ground_node,
                         spice::Waveform::dc(0.7));
    c.add_voltage_source("Vin", in, spice::ground_node,
                         spice::Waveform::pulse(0.0, 0.7, 50e-12, 20e-12));
    for (int i = 0; i < 3; ++i) {
        const std::string k = std::to_string(i);
        const spice::Node out = c.node("out" + k);
        const spice::Node next = c.node("in" + std::to_string(i + 1));
        c.add_mosfet("Mp" + k, out, in, vdd, pm);
        c.add_mosfet("Mn" + k, out, in, spice::ground_node, nm);
        c.add_resistor("R" + k, out, next, 2e3);
        in = next;
    }
    c.add_resistor("Rload", in, spice::ground_node, 50e3);
    return c;
}

TEST(SolverCounters, MosfetEvaluationsMatchPinnedCounts)
{
    // Which iterations re-run the compact model decides the bypass
    // tier's result bits, so the counts are pinned, not just bounded.
    spice::Circuit c = inverter_chain();
    const spice::Node probe = c.find_node("in3");
    auto run = [&](Solver_policy policy) {
        spice::Transient_options opts;
        opts.tstop = 300e-12;
        opts.nominal_steps = 150;
        opts.newton.solver = policy;
        return spice::run_transient(c, {probe}, opts).steps();
    };
    const spice::Step_stats direct = run(Solver_policy::direct);
    const spice::Step_stats bypass = run(Solver_policy::bypass);
    EXPECT_EQ(direct.device_evaluations, 1926);
    EXPECT_EQ(bypass.device_evaluations, 160);
    // Direct evaluates all six MOSFETs on every Newton iteration.
    EXPECT_EQ(direct.device_evaluations % 6, 0);
    EXPECT_LT(bypass.device_evaluations, direct.device_evaluations);
}

TEST(SolverCounters, ReadColumnEvaluationsMatchPinnedCounts)
{
    // A read column carries 7 grounded capacitors per cell next to its 6
    // MOSFETs.  Capacitor companions count once per transient solve and
    // MOSFETs once per evaluation, so a miscounted companion pass moves
    // these pins where the capacitor-free chain above cannot.  The read
    // stops at its sense crossing, so the pins cover the window up to it.
    Read_fixture f(8);
    const sram::Read_result direct = f.run(Solver_policy::direct);
    const sram::Read_result bypass = f.run(Solver_policy::bypass);
    EXPECT_EQ(direct.steps.device_evaluations, 21324);
    EXPECT_EQ(bypass.steps.device_evaluations, 9054);
}

TEST(SolverCounters, DeviceEvaluationsAreThreadCountInvariant)
{
    // A read_td sweep with per-worker column contexts: worker assignment
    // (and so which runs reuse a compiled system) varies with the thread
    // count, the per-run counters must not.
    const std::vector<int> sizes = {8, 16, 24, 8, 16, 32};
    std::vector<Read_fixture> fixtures;
    fixtures.reserve(sizes.size());
    for (const int n : sizes) fixtures.emplace_back(n);

    for (const Solver_policy policy :
         {Solver_policy::direct, Solver_policy::bypass}) {
        auto run = [&](int threads) {
            std::vector<sram::Read_sim_context> contexts(
                static_cast<std::size_t>(threads));
            std::vector<long long> evals(sizes.size(), -1);
            sram::Read_options opts;
            opts.accuracy = sram::Sim_accuracy::fast;
            opts.solver = policy;
            core::run_indexed(
                sizes.size(),
                [&](std::size_t i, const core::Run_context& ctx) {
                    const Read_fixture& f = fixtures[i];
                    sram::Read_sim_context& context =
                        contexts[core::checked_worker(ctx, contexts.size())];
                    const sram::Read_result r = context.simulate(
                        f.t, f.cell, f.wires, f.cfg, sram::Read_timing{},
                        sram::Netlist_options{}, opts);
                    evals[core::checked_slot(ctx, evals.size())] =
                        r.steps.device_evaluations;
                },
                core::Runner_options{threads, 1});
            return evals;
        };
        const std::vector<long long> serial = run(1);
        for (const long long e : serial) EXPECT_GT(e, 0);
        for (const int threads : {2, 8}) {
            EXPECT_EQ(run(threads), serial)
                << "policy " << static_cast<int>(policy) << " threads "
                << threads;
        }
    }
}

} // namespace
