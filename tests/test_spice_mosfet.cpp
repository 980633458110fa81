#include "spice/mosfet_model.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "spice/analysis.h"
#include "util/contracts.h"

namespace {

using namespace mpsram::spice;

Mosfet_params nmos()
{
    Mosfet_params p;
    p.type = Mosfet_type::nmos;
    return calibrate_beta(p, 0.7, 40e-6);
}

Mosfet_params pmos()
{
    Mosfet_params p;
    p.type = Mosfet_type::pmos;
    return calibrate_beta(p, 0.7, 30e-6);
}

TEST(MosfetModel, CalibrationHitsDriveTarget)
{
    const Mosfet_params n = nmos();
    EXPECT_NEAR(drive_current(n, 0.7), 40e-6, 1e-12);
    const Mosfet_params p = pmos();
    EXPECT_NEAR(drive_current(p, 0.7), 30e-6, 1e-12);
}

TEST(MosfetModel, OffDeviceLeaksOrdersOfMagnitudeBelowOn)
{
    const Mosfet_params p = nmos();
    const double on = evaluate_mosfet(p, 0.7, 0.7, 0.0).ids;
    const double off = evaluate_mosfet(p, 0.7, 0.0, 0.0).ids;
    EXPECT_GT(on / off, 1e3);
    EXPECT_GT(off, 0.0);  // still finite subthreshold leakage
}

TEST(MosfetModel, SubthresholdSlopeMatchesN)
{
    // In weak inversion Ids ~ exp(vgs / (n Vt)): one decade per
    // n * Vt * ln(10) volts of gate drive.
    const Mosfet_params p = nmos();
    const double v1 = 0.05;
    const double v2 = 0.10;
    const double i1 = evaluate_mosfet(p, 0.7, v1, 0.0).ids;
    const double i2 = evaluate_mosfet(p, 0.7, v2, 0.0).ids;
    const double slope_mv_per_dec =
        (v2 - v1) / std::log10(i2 / i1) * 1e3;
    const double expected = p.n * p.v_t * std::log(10.0) * 1e3;  // ~77 mV
    EXPECT_NEAR(slope_mv_per_dec, expected, 0.1 * expected);
}

TEST(MosfetModel, SourceDrainSymmetry)
{
    // EKV is symmetric: swapping D and S negates the current.
    const Mosfet_params p = nmos();
    const double fwd = evaluate_mosfet(p, 0.5, 0.7, 0.1).ids;
    const double rev = evaluate_mosfet(p, 0.1, 0.7, 0.5).ids;
    EXPECT_NEAR(fwd, -rev, 1e-9 * std::fabs(fwd));
}

TEST(MosfetModel, ZeroVdsZeroCurrent)
{
    const Mosfet_params p = nmos();
    EXPECT_NEAR(evaluate_mosfet(p, 0.3, 0.7, 0.3).ids, 0.0, 1e-15);
}

TEST(MosfetModel, PmosMirrorsNmos)
{
    Mosfet_params n;
    n.type = Mosfet_type::nmos;
    Mosfet_params p = n;
    p.type = Mosfet_type::pmos;

    // PMOS at mirrored bias must carry the negated NMOS current.
    const Mosfet_eval en = evaluate_mosfet(n, 0.7, 0.7, 0.0);
    const Mosfet_eval ep = evaluate_mosfet(p, -0.7, -0.7, 0.0);
    EXPECT_NEAR(ep.ids, -en.ids, 1e-12);
    EXPECT_NEAR(ep.gm, en.gm, 1e-9);
    EXPECT_NEAR(ep.gds, en.gds, 1e-9);
}

TEST(MosfetModel, MultiplicityScalesCurrentLinearly)
{
    const Mosfet_params p = nmos();
    const double i1 = evaluate_mosfet(p, 0.7, 0.7, 0.0, 1.0).ids;
    const double i3 = evaluate_mosfet(p, 0.7, 0.7, 0.0, 3.0).ids;
    EXPECT_NEAR(i3, 3.0 * i1, 1e-12);
}

TEST(MosfetModel, SaturationCurrentNearlyFlatInVds)
{
    const Mosfet_params p = nmos();
    const double i1 = evaluate_mosfet(p, 0.5, 0.7, 0.0).ids;
    const double i2 = evaluate_mosfet(p, 0.7, 0.7, 0.0).ids;
    // Only CLM separates them: a few percent.
    EXPECT_NEAR(i2 / i1, 1.0 + p.lambda * 0.2, 0.02);
}

struct Bias {
    double vd;
    double vg;
    double vs;
};

class MosfetDerivativeTest : public ::testing::TestWithParam<Bias> {};

TEST_P(MosfetDerivativeTest, AnalyticMatchesFiniteDifference)
{
    // Property: gm, gds, gms agree with central finite differences at
    // every bias corner (this is what Newton convergence rests on).
    const Bias b = GetParam();
    const Mosfet_params p = nmos();
    const double h = 1e-6;

    const Mosfet_eval e = evaluate_mosfet(p, b.vd, b.vg, b.vs);

    const double gm_fd = (evaluate_mosfet(p, b.vd, b.vg + h, b.vs).ids -
                          evaluate_mosfet(p, b.vd, b.vg - h, b.vs).ids) /
                         (2.0 * h);
    const double gds_fd = (evaluate_mosfet(p, b.vd + h, b.vg, b.vs).ids -
                           evaluate_mosfet(p, b.vd - h, b.vg, b.vs).ids) /
                          (2.0 * h);
    const double gms_fd = (evaluate_mosfet(p, b.vd, b.vg, b.vs + h).ids -
                           evaluate_mosfet(p, b.vd, b.vg, b.vs - h).ids) /
                          (2.0 * h);

    const double scale = std::max(
        {std::fabs(gm_fd), std::fabs(gds_fd), std::fabs(gms_fd), 1e-9});
    EXPECT_NEAR(e.gm, gm_fd, 1e-4 * scale);
    EXPECT_NEAR(e.gds, gds_fd, 1e-4 * scale);
    EXPECT_NEAR(e.gms, gms_fd, 1e-4 * scale);
}

INSTANTIATE_TEST_SUITE_P(
    BiasGrid, MosfetDerivativeTest,
    ::testing::Values(Bias{0.7, 0.7, 0.0},   // strong on
                      Bias{0.1, 0.7, 0.0},   // triode
                      Bias{0.7, 0.2, 0.0},   // subthreshold
                      Bias{0.7, 0.0, 0.0},   // off
                      Bias{0.0, 0.7, 0.7},   // source-follower style
                      Bias{0.35, 0.5, 0.2},  // mid-bias
                      Bias{0.2, 0.7, 0.5},   // reverse-ish
                      Bias{0.7, 0.35, 0.35}));

TEST(MosfetModel, ValidatesParameters)
{
    Mosfet_params p = nmos();
    EXPECT_THROW(evaluate_mosfet(p, 0.0, 0.0, 0.0, -1.0),
                 mpsram::util::Precondition_error);
    p.n = 0.5;
    EXPECT_THROW(evaluate_mosfet(p, 0.0, 0.0, 0.0),
                 mpsram::util::Precondition_error);
    EXPECT_THROW(calibrate_beta(nmos(), 0.7, -1.0),
                 mpsram::util::Precondition_error);
}

// --- MOSFET stamps in the MNA system ------------------------------------------

/// An inverter driving a doubled NMOS load and a pass gate: driven gates
/// and a driven source (their Jacobian entries move to the RHS), grounded
/// sources (dropped entries), a multiplicity, and a pass gate whose source
/// is an unknown node.
Circuit driven_gate_circuit()
{
    Circuit c;
    const Node vdd = c.node("vdd");
    const Node in = c.node("in");
    const Node out = c.node("out");
    const Node load = c.node("load");
    const Node mid = c.node("mid");
    c.add_voltage_source("Vdd", vdd, ground_node, Waveform::dc(0.7));
    c.add_voltage_source("Vin", in, ground_node,
                         Waveform::pulse(0.0, 0.7, 40e-12, 20e-12));
    c.add_mosfet("Mp", out, in, vdd, pmos());
    c.add_mosfet("Mn", out, in, ground_node, nmos());
    c.add_capacitor("Cout", out, ground_node, 0.2e-15);
    c.add_mosfet("Mload", load, out, ground_node, nmos(), 2.0);
    c.add_resistor("Rload", load, vdd, 20e3);
    c.add_capacitor("Cload", load, ground_node, 0.1e-15);
    c.add_mosfet("Mpass", load, in, mid, nmos());
    c.add_resistor("Rmid", mid, ground_node, 50e3);
    return c;
}

void expect_bitwise(const std::vector<double>& got,
                    std::span<const double> want, const char* what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << what << "[" << i << "] = " << got[i] << ", pinned "
            << want[i];
    }
}

TEST(MosfetStamp, DrivenGateCircuitMatchesPinnedValues)
{
    // Printed at %.17g before the MOSFETs moved from Device::stamp into the
    // MNA system's bank; the stamp program must reproduce them bit for bit
    // on both solver tiers, DC operating point and a 20-step transient.
    const double dc_direct[] = {
        0, 0.69999999999999996, 0, 0.69999551224421253, 0.078384878153998527,
        2.357692081083887e-05,
    };
    const double dc_bypass[] = {
        0, 0.69999999999999996, 0, 0.69999551224932199, 0.078384878158175506,
        2.357692081392931e-05,
    };
    const double out_direct[] = {
        0.69999551224421253, 0.69999551224421241, 0.6999955122442123,
        0.6999955122442123, 0.6999955122442123, 0.66309859340747024,
        0.11389988125642055, 0.009744615654140738, -0.0061622655443943526,
        0.0048202016925120777, -0.0028593721423364085, 0.0024635995754610489,
        -0.0012485475780089346, 0.0013292281238657265,
        -0.00046609613594009229, 0.00078171020484284095,
        -8.6785619831125923e-05, 0.00051710416228414532,
        9.6914327568201189e-05, 0.00038914485335701592,
        0.00018583904007161845,
    };
    const double load_direct[] = {
        0.078384878153998527, 0.078384878153998278, 0.078384878153998291,
        0.078384878153998291, 0.078384878153998291, 0.084269375097438565,
        0.45821434495978086, 0.58216893064990138, 0.61756601133782385,
        0.60238369248626256, 0.60889543845076455, 0.60610311187127075,
        0.60730033041810205, 0.60678725361454722, 0.60700702978790688,
        0.60691299046663094, 0.60695317106368551, 0.60693604949888058,
        0.60694331582873617, 0.60694025413178165, 0.60694152936779489,
    };
    const double mid_direct[] = {
        2.357692081083887e-05, 2.3576920810838653e-05,
        2.3576920810838649e-05, 2.3576920810838649e-05,
        2.3576920810838649e-05, 0.038507510847828379, 0.23210635300571436,
        0.23253259279859523, 0.23262262297534628, 0.23258415014894043,
        0.23260067057381142, 0.23259359036241006, 0.23259662671880824,
        0.23259532559633075, 0.23259588295516292, 0.23259564447304942,
        0.23259574637115568, 0.23259570295096524, 0.23259572137836265,
        0.23259571361391038, 0.23259571684790503,
    };
    const double out_bypass[] = {
        0.69999551224421253, 0.6999955122442123, 0.69999551224421219,
        0.6999955122442123, 0.69999551224421241, 0.66309859351338452,
        0.11389988036334284, 0.0097446149910034481, -0.006162265722296072,
        0.0048202017106457476, -0.0028593781714739766, 0.0024635961782306292,
        -0.0012485484869794153, 0.0013292266449600602,
        -0.00046609557372916121, 0.00078170963438777008,
        -8.6785344158001526e-05, 0.00051710393734883862,
        9.6914450259431072e-05, 0.00038914476376160318,
        0.00018584194736434299,
    };
    const double load_bypass[] = {
        0.078384878153998527, 0.078384878153998264, 0.078384878153998319,
        0.078384878153998264, 0.078384878153998278, 0.084269375145518896,
        0.45821434640776071, 0.58216893089618249, 0.61756601123761534,
        0.6023836925303383, 0.60889543846154304, 0.60610311190664812,
        0.60730033042231335, 0.60678725362457286, 0.60700702978639498,
        0.60691299046725622, 0.60695317106292768, 0.60693604949852009,
        0.60694331582814987, 0.60694025413114672, 0.60694152935200918,
    };
    const double mid_bypass[] = {
        2.357692081083887e-05, 2.3576920810838649e-05,
        2.3576920810838653e-05, 2.3576920810838649e-05,
        2.3576920810838649e-05, 0.038507510503603438, 0.23210634804367725,
        0.23253259279781066, 0.23262262297312175, 0.23258415014903402,
        0.23260067057383782, 0.2325935903624998, 0.2325966267188197,
        0.23259532559635629, 0.23259588295515904, 0.23259564447630746,
        0.2325957463722208, 0.23259570295281862, 0.23259572137985488,
        0.23259571361554959, 0.23259571684944286,
    };
    struct Pinned {
        Solver_policy solver;
        std::span<const double> dc;
        std::span<const double> waves[3];
        long long evaluations;
    };
    const Pinned runs[] = {
        {Solver_policy::direct, dc_direct,
         {out_direct, load_direct, mid_direct}, 292},
        {Solver_policy::bypass, dc_bypass,
         {out_bypass, load_bypass, mid_bypass}, 166},
    };
    for (const Pinned& pin : runs) {
        SCOPED_TRACE(pin.solver == Solver_policy::direct ? "direct"
                                                         : "bypass");
        Circuit c = driven_gate_circuit();
        Dc_options dc;
        dc.newton.solver = pin.solver;
        expect_bitwise(dc_operating_point(c, dc).voltages, pin.dc, "dc");

        Transient_options opts;
        opts.tstop = 200e-12;
        opts.nominal_steps = 20;
        opts.newton.solver = pin.solver;
        const Transient_result r = run_transient(
            c, {c.find_node("out"), c.find_node("load"), c.find_node("mid")},
            opts);
        const char* names[] = {"out", "load", "mid"};
        for (int p = 0; p < 3; ++p) {
            expect_bitwise(r.waveform(names[p]).ys(), pin.waves[p],
                           names[p]);
        }
        EXPECT_EQ(r.steps().newton_iterations, 63);
        EXPECT_EQ(r.steps().device_evaluations, pin.evaluations);
    }
}

/// One element of every kind the MNA system assembles, each in the role
/// the SRAM netlists leave out: a pulse current source (nonzero in DC), a
/// floating voltage source (a branch row), a floating capacitor, a static
/// resistor, a resistor with a driven column, and a MOSFET with a driven
/// gate.
Circuit every_kind_circuit()
{
    Circuit c;
    const Node vdd = c.node("vdd");
    const Node in = c.node("in");
    const Node out = c.node("out");
    const Node top = c.node("top");
    const Node mid = c.node("mid");
    c.add_voltage_source("Vdd", vdd, ground_node, Waveform::dc(0.7));
    c.add_voltage_source("Vin", in, ground_node,
                         Waveform::pulse(0.0, 0.7, 40e-12, 20e-12));
    c.add_resistor("Rpull", vdd, out, 20e3);
    c.add_current_source("Ipulse", ground_node, out,
                         Waveform::pulse(2e-6, 12e-6, 60e-12, 20e-12,
                                         40e-12, 20e-12));
    c.add_mosfet("Mn", out, in, ground_node, nmos());
    c.add_capacitor("Cout", out, ground_node, 0.2e-15);
    c.add_capacitor("Cf", out, top, 0.3e-15);
    c.add_voltage_source("Vf", top, mid,
                         Waveform::pulse(0.1, 0.3, 100e-12, 20e-12));
    c.add_resistor("Rmid", mid, ground_node, 50e3);
    c.add_capacitor("Cmid", mid, ground_node, 0.1e-15);
    return c;
}

TEST(ElementStamps, EveryKindCircuitMatchesPinnedValues)
{
    // Printed at %.17g while every element kind was still stamped through
    // the virtual device interface; the assembly must reproduce them bit
    // for bit on both solver tiers, DC operating point and a 20-step
    // transient.
    const double dc_direct[] = {
        0, 0.69999999999999996, 0, 0.73998973079432429, 0.099999995000000508,
        -4.9999995000000496e-09,
    };
    const double out_direct[] = {
        0.73998973079432429, 0.73998973079432417, 0.73998973079432406,
        0.73998973079432395, 0.73998973079432395, 0.70995702801055849,
        0.37339165489903259, 0.25210107526277442, 0.23594226745377539,
        0.24786488124939751, 0.24883240351437058, 0.25567980095910919,
        0.26043654060175342, 0.21960553639999636, 0.18195025739937379,
        0.17504260226683521, 0.17190147937931821, 0.17113675275810181,
        0.1700539268873153, 0.16969849964148151, 0.1693123183581639,
    };
    const double top_direct[] = {
        0.099999995000000508, 0.099999995000000522, 0.099999995000000619,
        0.099999995000000674, 0.099999995000000647, 0.084983644108662951,
        -0.1109490348824098, -0.10127797469713642, -0.03046206486888052,
        0.018986598019004115, 0.051972472751204937, 0.1214053465096611,
        0.19569725034933128, 0.210049329463698, 0.22343642760813012,
        0.24550378765569117, 0.26541759464247683, 0.27879171592856999,
        0.28662532872632912, 0.29176193532055184, 0.29482544669059285,
    };
    const double mid_direct[] = {
        -4.9999995000000496e-09, -4.9999994941685181e-09,
        -4.999999384960231e-09, -4.9999993355904921e-09,
        -4.9999993655498489e-09, -0.015016355891337062, -0.21094903488240982,
        -0.20127797469713643, -0.13046206486888054, -0.081013401980995908,
        -0.048027527248795075, -0.078594653490338978, -0.10430274965066871,
        -0.089950670536301985, -0.076563572391869894, -0.054496212344308827,
        -0.034582405357523154, -0.021208284071429974, -0.013374671273670865,
        -0.0082380646794481052, -0.0051745533094071355,
    };
    const double dc_bypass[] = {
        0, 0.69999999999999996, 0, 0.73998973079432429, 0.099999995000000508,
        -4.9999995000000496e-09,
    };
    const double out_bypass[] = {
        0.73998973079432429, 0.73998973079432429, 0.73998973079432429,
        0.73998973079432429, 0.73998973079432429, 0.7099570280105586,
        0.37339165478192704, 0.25210104573315945, 0.2359422527482431,
        0.24786487748461639, 0.24883240357398201, 0.25567980056884931,
        0.26043653705949149, 0.21960552730767921, 0.18195018786804126,
        0.17504257972549148, 0.17190147849579873, 0.17113675158797217,
        0.17005392665589339, 0.1696984992401295, 0.16931231849077652,
    };
    const double top_bypass[] = {
        0.099999995000000508, 0.099999995000000508, 0.099999995000000508,
        0.099999995000000508, 0.099999995000000508, 0.084983644108662701,
        -0.1109490349526735, -0.1012779894502331, -0.030462064826288583,
        0.018986603517774148, 0.051972478345102227, 0.12140535001399018,
        0.19569725056072737, 0.21004932682960117, 0.22343638976426355,
        0.24550378592144129, 0.26541760659662123, 0.27879172292909016,
        0.28662533348986563, 0.29176193807671558, 0.29482544866466981,
    };
    const double mid_bypass[] = {
        -4.9999995000000496e-09, -4.9999995000000496e-09,
        -4.9999995000000496e-09, -4.9999995000000496e-09,
        -4.9999995000000496e-09, -0.01501635589133731, -0.2109490349526735,
        -0.20127798945023309, -0.13046206482628858, -0.081013396482225858,
        -0.048027521654897785, -0.078594649986009887, -0.10430274943927262,
        -0.089950673170398801, -0.076563610235736421, -0.054496214078558723,
        -0.034582393403378736, -0.02120827707090981, -0.013374666510134329,
        -0.0082380619232844277, -0.0051745513353301624,
    };
    struct Pinned {
        Solver_policy solver;
        std::span<const double> dc;
        std::span<const double> waves[3];
        long long newton_iterations;
        long long evaluations;
    };
    const Pinned runs[] = {
        {Solver_policy::direct, dc_direct,
         {out_direct, top_direct, mid_direct}, 57, 117},
        {Solver_policy::bypass, dc_bypass,
         {out_bypass, top_bypass, mid_bypass}, 53, 92},
    };
    for (const Pinned& pin : runs) {
        SCOPED_TRACE(pin.solver == Solver_policy::direct ? "direct"
                                                         : "bypass");
        Circuit c = every_kind_circuit();
        Dc_options dc;
        dc.newton.solver = pin.solver;
        expect_bitwise(dc_operating_point(c, dc).voltages, pin.dc, "dc");

        Transient_options opts;
        opts.tstop = 200e-12;
        opts.nominal_steps = 20;
        opts.newton.solver = pin.solver;
        const Transient_result r = run_transient(
            c, {c.find_node("out"), c.find_node("top"), c.find_node("mid")},
            opts);
        const char* names[] = {"out", "top", "mid"};
        for (int p = 0; p < 3; ++p) {
            expect_bitwise(r.waveform(names[p]).ys(), pin.waves[p],
                           names[p]);
        }
        EXPECT_EQ(r.steps().newton_iterations, pin.newton_iterations);
        EXPECT_EQ(r.steps().device_evaluations, pin.evaluations);
    }
}

} // namespace
