#include "spice/analysis.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "spice/exceptions.h"
#include "spice/measure.h"
#include "spice/mosfet_model.h"
#include "util/contracts.h"

namespace {

using namespace mpsram::spice;

/// Build the canonical RC low-pass driven by a step.
struct Rc_fixture {
    Circuit circuit;
    Node in = 0;
    Node out = 0;
    double r = 1000.0;
    double c = 1e-12;  // tau = 1 ns

    explicit Rc_fixture(double step_delay = 1e-9)
    {
        in = circuit.node("in");
        out = circuit.node("out");
        circuit.add_voltage_source(
            "Vin", in, ground_node,
            Waveform::pulse(0.0, 1.0, step_delay, 1e-12));
        circuit.add_resistor("R1", in, out, r);
        circuit.add_capacitor("C1", out, ground_node, c);
    }
};

class RcChargeTest : public ::testing::TestWithParam<Integration_method> {};

TEST_P(RcChargeTest, MatchesAnalyticExponential)
{
    Rc_fixture f;
    Transient_options opts;
    opts.tstop = 6e-9;
    opts.nominal_steps = 3000;
    opts.method = GetParam();

    const Transient_result res =
        run_transient(f.circuit, {f.out}, opts);
    const auto wave = res.waveform("out");

    const double tau = f.r * f.c;
    for (double t_ns : {1.5, 2.0, 3.0, 4.0, 5.5}) {
        const double t = t_ns * 1e-9;
        const double expected = 1.0 - std::exp(-(t - 1e-9 - 0.5e-12) / tau);
        EXPECT_NEAR(wave.at(t), expected, 5e-3)
            << "t = " << t_ns << " ns";
    }
}

INSTANTIATE_TEST_SUITE_P(Integrators, RcChargeTest,
                         ::testing::Values(
                             Integration_method::backward_euler,
                             Integration_method::trapezoidal));

TEST(Transient, TrapezoidalMoreAccurateThanBackwardEuler)
{
    const double tau = 1e-9;
    auto max_error = [&](Integration_method m) {
        Rc_fixture f;
        Transient_options opts;
        opts.tstop = 5e-9;
        opts.nominal_steps = 200;  // deliberately coarse
        opts.method = m;
        const auto res = run_transient(f.circuit, {f.out}, opts);
        const auto wave = res.waveform("out");
        double worst = 0.0;
        for (double t = 1.2e-9; t < 5e-9; t += 0.1e-9) {
            const double expected = 1.0 - std::exp(-(t - 1e-9) / tau);
            worst = std::max(worst, std::fabs(wave.at(t) - expected));
        }
        return worst;
    };
    EXPECT_LT(max_error(Integration_method::trapezoidal),
              max_error(Integration_method::backward_euler));
}

TEST(Transient, TenPercentDischargeConstant)
{
    // Discharge an initially charged cap and verify t = 0.105 RC at the
    // 10% discharge level — eq. (3) of the paper.
    Circuit c;
    const Node in = c.node("in");
    const Node out = c.node("out");
    c.add_voltage_source("Vin", in, ground_node,
                         Waveform::pulse(1.0, 0.0, 1e-9, 1e-12));
    c.add_resistor("R1", in, out, 1000.0);
    c.add_capacitor("C1", out, ground_node, 1e-12);

    Transient_options opts;
    opts.tstop = 3e-9;
    opts.nominal_steps = 6000;
    const auto res = run_transient(c, {out}, opts);
    const double t_cross = crossing_time(res, "out", 0.9, 1e-9);
    ASSERT_GT(t_cross, 0.0);
    EXPECT_NEAR(t_cross - 1e-9 - 0.5e-12, 0.10536e-9, 3e-12);
}

TEST(Transient, StartsFromDcOperatingPoint)
{
    // The cap starts at the DC solution (1 V), so nothing moves until the
    // source steps down.
    Circuit c;
    const Node in = c.node("in");
    const Node out = c.node("out");
    c.add_voltage_source("Vin", in, ground_node,
                         Waveform::pulse(1.0, 0.0, 2e-9, 1e-12));
    c.add_resistor("R1", in, out, 1000.0);
    c.add_capacitor("C1", out, ground_node, 1e-12);

    Transient_options opts;
    opts.tstop = 3e-9;
    const auto res = run_transient(c, {out}, opts);
    const auto wave = res.waveform("out");
    EXPECT_NEAR(wave.at(0.0), 1.0, 1e-6);
    EXPECT_NEAR(wave.at(1.9e-9), 1.0, 1e-4);
    EXPECT_LT(wave.at(3e-9), 0.7);
}

TEST(Transient, LandsExactlyOnBreakpoints)
{
    Rc_fixture f(1.234567e-9);
    Transient_options opts;
    opts.tstop = 2e-9;
    opts.nominal_steps = 37;  // deliberately incommensurate
    const auto res = run_transient(f.circuit, {f.out}, opts);
    // One recorded sample must sit exactly on the source corner.
    bool found = false;
    for (double t : res.time()) {
        if (std::fabs(t - 1.234567e-9) < 1e-18) found = true;
    }
    EXPECT_TRUE(found);
}

TEST(Transient, CapacitorDividerStep)
{
    // Two series caps divide a fast step by the capacitance ratio.
    Circuit c;
    const Node in = c.node("in");
    const Node mid = c.node("mid");
    c.add_voltage_source("Vin", in, ground_node,
                         Waveform::pulse(0.0, 1.0, 0.5e-9, 1e-12));
    c.add_capacitor("C1", in, mid, 3e-15);
    c.add_capacitor("C2", mid, ground_node, 1e-15);

    Transient_options opts;
    opts.tstop = 1e-9;
    opts.newton.gmin = 1e-15;  // keep the divider from drooping
    const auto res = run_transient(c, {mid}, opts);
    EXPECT_NEAR(res.final_value("mid"), 0.75, 1e-3);
}

TEST(Transient, InverterSwitchesAndIsMeasurable)
{
    Mosfet_params nm;
    nm.type = Mosfet_type::nmos;
    nm = calibrate_beta(nm, 0.7, 40e-6);
    Mosfet_params pm;
    pm.type = Mosfet_type::pmos;
    pm = calibrate_beta(pm, 0.7, 30e-6);

    Circuit c;
    const Node vdd = c.node("vdd");
    const Node in = c.node("in");
    const Node out = c.node("out");
    c.add_voltage_source("Vdd", vdd, ground_node, Waveform::dc(0.7));
    c.add_voltage_source("Vin", in, ground_node,
                         Waveform::pulse(0.0, 0.7, 50e-12, 10e-12));
    c.add_mosfet("Mp", out, in, vdd, pm);
    c.add_mosfet("Mn", out, in, ground_node, nm);
    c.add_capacitor("CL", out, ground_node, 1e-15);

    Transient_options opts;
    opts.tstop = 300e-12;
    const auto res = run_transient(c, {in, out}, opts);

    EXPECT_NEAR(res.waveform("out").at(10e-12), 0.7, 1e-3);
    EXPECT_LT(res.final_value("out"), 0.05);
    const double t50 = crossing_time(res, "out", 0.35, 40e-12);
    EXPECT_GT(t50, 50e-12);
    EXPECT_LT(t50, 120e-12);
}

/// Two RC branches with different taus driven by one step: they develop
/// a measurable differential.
struct Two_tau_fixture {
    Circuit circuit;
    Node a = 0;
    Node b = 0;

    Two_tau_fixture()
    {
        const Node in = circuit.node("in");
        a = circuit.node("a");
        b = circuit.node("b");
        circuit.add_voltage_source("Vin", in, ground_node,
                                   Waveform::pulse(0.0, 1.0, 0.1e-9, 1e-12));
        circuit.add_resistor("Ra", in, a, 1000.0);
        circuit.add_capacitor("Ca", a, ground_node, 1e-12);
        circuit.add_resistor("Rb", in, b, 3000.0);
        circuit.add_capacitor("Cb", b, ground_node, 1e-12);
    }
};

TEST(Transient, DifferentialMeasurement)
{
    Two_tau_fixture f;
    Transient_options opts;
    opts.tstop = 3e-9;
    const auto res = run_transient(f.circuit, {f.a, f.b}, opts);
    const double t = differential_time(res, "a", "b", 0.1, 0.1e-9);
    EXPECT_GT(t, 0.1e-9);
    EXPECT_LT(t, 1.5e-9);
    // At the reported time the differential equals the level.
    EXPECT_NEAR(res.differential("a", "b").at(t), 0.1, 1e-6);
}

TEST(Transient, DifferentialStopEndsAtTheCrossingSegment)
{
    for (const bool adaptive : {false, true}) {
        SCOPED_TRACE(adaptive ? "adaptive" : "fixed step");
        Two_tau_fixture f;
        Transient_options opts;
        opts.tstop = 3e-9;
        opts.adaptive = adaptive;
        const auto full = run_transient(f.circuit, {f.a, f.b}, opts);
        opts.stop = Differential_stop{f.a, f.b, 0.1, 0.1e-9};
        const auto stopped = run_transient(f.circuit, {f.a, f.b}, opts);

        const double t_full = differential_time(full, "a", "b", 0.1, 0.1e-9);
        ASSERT_GT(t_full, 0.0);
        EXPECT_EQ(differential_time(stopped, "a", "b", 0.1, 0.1e-9), t_full);

        // A prefix of the full run, ending on the first sample at or past
        // the crossing.
        const std::size_t k = stopped.sample_count();
        ASSERT_GE(k, 2u);
        ASSERT_LT(k, full.sample_count());
        EXPECT_TRUE(std::equal(stopped.time().begin(), stopped.time().end(),
                               full.time().begin()));
        for (const char* p : {"a", "b"}) {
            const mpsram::util::Piecewise_linear head = stopped.waveform(p);
            const mpsram::util::Piecewise_linear whole = full.waveform(p);
            EXPECT_TRUE(std::equal(head.ys().begin(), head.ys().end(),
                                   whole.ys().begin()))
                << "probe " << p;
        }
        EXPECT_LE(stopped.time()[k - 2], t_full);
        EXPECT_GE(stopped.time()[k - 1], t_full);
        EXPECT_EQ(stopped.steps().accepted, static_cast<int>(k) - 1);
        EXPECT_LT(stopped.steps().newton_iterations,
                  full.steps().newton_iterations);

        // A level the differential never reaches runs the whole window.
        opts.stop->level = 2.0;
        const auto never = run_transient(f.circuit, {f.a, f.b}, opts);
        EXPECT_EQ(never.time(), full.time());
        EXPECT_EQ(never.steps().newton_iterations,
                  full.steps().newton_iterations);
    }
}

TEST(Transient, ValidatesOptions)
{
    Rc_fixture f;
    Transient_options opts;
    opts.tstop = 0.0;
    EXPECT_THROW(run_transient(f.circuit, {f.out}, opts),
                 mpsram::util::Precondition_error);
    opts.tstop = 1e-9;
    opts.stop = Differential_stop{f.out, 99, 0.1, 0.0};
    EXPECT_THROW(run_transient(f.circuit, {f.out}, opts),
                 mpsram::util::Precondition_error);
}

TEST(Transient, UnknownProbeNameThrows)
{
    Rc_fixture f;
    Transient_options opts;
    opts.tstop = 1e-9;
    const auto res = run_transient(f.circuit, {f.out}, opts);
    EXPECT_THROW(res.waveform("nope"), mpsram::spice::Netlist_error);
}

/// The stored bits of every time point and probed sample of a run.
std::vector<std::uint64_t> result_bits(const Transient_result& r,
                                       const std::vector<std::string>& probes)
{
    std::vector<std::uint64_t> bits;
    for (const double t : r.time()) {
        bits.push_back(std::bit_cast<std::uint64_t>(t));
    }
    for (const std::string& p : probes) {
        const mpsram::util::Piecewise_linear wave = r.waveform(p);
        for (const double v : wave.ys()) {
            bits.push_back(std::bit_cast<std::uint64_t>(v));
        }
    }
    return bits;
}

Transient_options edit_options(Solver_policy policy)
{
    Transient_options opts;
    opts.tstop = 2e-9;
    opts.nominal_steps = 200;
    opts.newton.solver = policy;
    return opts;
}

TEST(Transient, CapacitanceEditOnReusedWorkspaceMatchesFreshRun)
{
    // A value edit between two runs on one workspace keeps the compiled
    // system; the second run must be the run a fresh workspace computes
    // for the edited circuit, bit for bit.
    for (const Solver_policy policy :
         {Solver_policy::direct, Solver_policy::bypass}) {
        Circuit c;
        const Node in = c.node("in");
        const Node a = c.node("a");
        const Node b = c.node("b");
        c.add_voltage_source("Vin", in, ground_node,
                             Waveform::pulse(0.0, 1.0, 0.2e-9, 10e-12));
        c.add_resistor("R1", in, a, 1000.0);
        Capacitor& edited = c.add_capacitor("C1", a, ground_node, 1e-12);
        c.add_resistor("R2", a, b, 2000.0);
        c.add_capacitor("C2", b, ground_node, 0.5e-12);
        c.add_capacitor("Cab", a, b, 0.2e-12);

        const std::vector<std::string> probes = {"a", "b"};
        const Transient_options opts = edit_options(policy);
        Transient_workspace workspace;
        const auto before = run_transient(c, {a, b}, opts, workspace);
        edited.set_capacitance(2.5e-12);
        const auto reused = run_transient(c, {a, b}, opts, workspace);
        EXPECT_EQ(workspace.build_count(), 1u);

        const auto fresh = run_transient(c, {a, b}, opts);
        EXPECT_EQ(result_bits(reused, probes), result_bits(fresh, probes))
            << "policy " << static_cast<int>(policy);
        EXPECT_NE(result_bits(reused, probes), result_bits(before, probes))
            << "the edit must take effect";
    }
}

/// How a test circuit's capacitor C(a, x) is attached.
enum class Cap_wiring {
    a_to_ground,       ///< C(a, gnd)
    ground_to_a,       ///< C(gnd, a)
    a_to_zero_source,  ///< C(a, z), z driven at 0 V
    a_to_b,            ///< floating C(a, b)
    b_to_a,            ///< floating C(b, a)
    a_to_driven,       ///< C(a, d), d driven by a moving source
    driven_to_a,       ///< C(d, a)
};

/// Pulse -> R -> a -> R -> b ladder with capacitor Cx wired as asked.
/// Every variant has the same nodes in the same order.
Circuit wiring_circuit(Cap_wiring w)
{
    Circuit c;
    const Node in = c.node("in");
    const Node a = c.node("a");
    const Node b = c.node("b");
    const Node z = c.node("z");
    const Node d = c.node("d");
    c.add_voltage_source("Vin", in, ground_node,
                         Waveform::pulse(0.0, 1.0, 0.2e-9, 10e-12));
    c.add_voltage_source("Vz", z, ground_node, Waveform::dc(0.0));
    c.add_voltage_source("Vd", d, ground_node,
                         Waveform::pulse(0.0, 0.5, 0.7e-9, 50e-12));
    c.add_resistor("R1", in, a, 1000.0);
    c.add_resistor("R2", a, b, 1500.0);
    c.add_capacitor("Cb", b, ground_node, 0.3e-12);
    const double farads = 1e-12;
    switch (w) {
    case Cap_wiring::a_to_ground:
        c.add_capacitor("Cx", a, ground_node, farads);
        break;
    case Cap_wiring::ground_to_a:
        c.add_capacitor("Cx", ground_node, a, farads);
        break;
    case Cap_wiring::a_to_zero_source:
        c.add_capacitor("Cx", a, z, farads);
        break;
    case Cap_wiring::a_to_b:
        c.add_capacitor("Cx", a, b, farads);
        break;
    case Cap_wiring::b_to_a:
        c.add_capacitor("Cx", b, a, farads);
        break;
    case Cap_wiring::a_to_driven:
        c.add_capacitor("Cx", a, d, farads);
        break;
    case Cap_wiring::driven_to_a:
        c.add_capacitor("Cx", d, a, farads);
        break;
    }
    c.add_resistor("R3", b, ground_node, 5000.0);
    return c;
}

TEST(Transient, CapacitorOrientationIsBitwiseInvariant)
{
    // Swapping a capacitor's terminals, or grounding it through a 0 V
    // source instead of the ground node, changes how its stamps are
    // routed but not the physics: the waveforms must not move a bit.
    const std::vector<std::string> probes = {"a", "b"};
    const auto run = [&](Cap_wiring w, Solver_policy policy) {
        Circuit c = wiring_circuit(w);
        const auto r = run_transient(c, {c.find_node("a"), c.find_node("b")},
                                     edit_options(policy));
        return result_bits(r, probes);
    };
    for (const Solver_policy policy :
         {Solver_policy::direct, Solver_policy::bypass}) {
        const auto grounded = run(Cap_wiring::a_to_ground, policy);
        EXPECT_EQ(run(Cap_wiring::ground_to_a, policy), grounded);
        EXPECT_EQ(run(Cap_wiring::a_to_zero_source, policy), grounded);
        EXPECT_EQ(run(Cap_wiring::b_to_a, policy),
                  run(Cap_wiring::a_to_b, policy));
        EXPECT_EQ(run(Cap_wiring::driven_to_a, policy),
                  run(Cap_wiring::a_to_driven, policy));
        // The variants are not all one circuit in disguise.
        EXPECT_NE(run(Cap_wiring::a_to_b, policy), grounded);
        EXPECT_NE(run(Cap_wiring::a_to_driven, policy), grounded);
    }
}

TEST(Mosfet, PassGateChargeSharingConserved)
{
    // Charge redistribution across a pass gate: 2 fF at 0.7 V into 1 fF at
    // 0 V -> both settle near 0.7 * 2/3 = 0.467 V (NMOS can pass this
    // level since vgs stays above vth).
    Mosfet_params nm;
    nm.type = Mosfet_type::nmos;
    nm = calibrate_beta(nm, 0.7, 40e-6);

    Circuit c;
    const Node a = c.node("a");
    const Node b = c.node("b");
    const Node g = c.node("g");
    c.add_voltage_source("Vg", g, ground_node,
                         Waveform::pulse(0.0, 0.7, 10e-12, 4e-12));
    // Pre-charge node a via a source that steps away... simpler: use a
    // big source resistor so node a starts at 0.7 and is then isolated.
    const Node supply = c.node("supply");
    c.add_voltage_source("Vs", supply, ground_node,
                         Waveform::pulse(0.7, 0.0, 5e-12, 2e-12));
    c.add_resistor("Riso", supply, a, 1e7);
    c.add_capacitor("Ca", a, ground_node, 2e-15);
    c.add_capacitor("Cb", b, ground_node, 1e-15);
    // Multiplicity 0.01 slows the transfer to ~1 ps so the fixed-step
    // integrator resolves it; at full drive the hand-off happens in ~10 fs
    // and the one-step linearized current overshoots.
    c.add_mosfet("Mpass", a, g, b, nm, 0.01);

    Transient_options opts;
    opts.tstop = 2000e-12;
    opts.nominal_steps = 4000;
    const auto res = run_transient(c, {a, b}, opts);
    // The full equilibrium (0.7 * 2/3 ~ 0.467 V) is never reached inside
    // the window: as b rises, the pass gate's vgs collapses into
    // subthreshold.  What must hold exactly:
    const double va = res.final_value("a");
    const double vb = res.final_value("b");
    // 1. substantial transfer happened, with no overshoot (a stays above b);
    EXPECT_GT(vb, 0.2);
    EXPECT_GT(va, vb);
    EXPECT_LT(va, 0.7);
    // 2. charge conservation: 2 fF * va + 1 fF * vb == 2 fF * 0.7 minus
    //    the small drain through the 10 Mohm isolation resistor.
    const double q_total = 2e-15 * va + 1e-15 * vb;
    EXPECT_LT(q_total, 2e-15 * 0.7);
    EXPECT_NEAR(q_total, 2e-15 * 0.7, 0.05e-15);
}

} // namespace
