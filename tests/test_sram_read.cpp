#include "sram/read_sim.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "extract/extractor.h"
#include "util/contracts.h"
#include "spice/analysis.h"
#include "spice/measure.h"

namespace {

using namespace mpsram;

struct Fixture {
    tech::Technology t = tech::n10();
    sram::Cell_electrical cell = sram::Cell_electrical::n10(t.feol);
    extract::Extractor ex{t.metal1};
    sram::Array_config cfg;
    sram::Bitline_electrical wires;

    explicit Fixture(int n)
    {
        cfg.word_lines = n;
        cfg.victim_pair = 6;
        const geom::Wire_array arr = sram::build_metal1_array(t, cfg);
        wires = sram::roll_up_nominal(ex, arr, t, cfg);
    }
};

TEST(ReadSim, SmallArrayReadCompletes)
{
    Fixture f(8);
    sram::Read_netlist net =
        sram::build_read_netlist(f.t, f.cell, f.wires, f.cfg);
    const sram::Read_result r = sram::simulate_read(net);
    ASSERT_TRUE(r.crossed);
    EXPECT_GT(r.td, 0.0);
    EXPECT_LT(r.td, 50e-12);
    EXPECT_GT(r.t_cross, net.timing.wl_mid());
}

TEST(ReadSim, BitLineDischargesBelowComplement)
{
    Fixture f(8);
    sram::Read_netlist net =
        sram::build_read_netlist(f.t, f.cell, f.wires, f.cfg);
    const sram::Read_result r = sram::simulate_read(net);
    ASSERT_TRUE(r.crossed);
    // BL (storing 0) discharges; BLB stays near vdd.
    EXPECT_LT(r.bl_final, r.blb_final);
    EXPECT_GT(r.blb_final, f.t.feol.vdd - 0.1);
}

TEST(ReadSim, ReadTimeGrowsWithArrayLength)
{
    Fixture f8(8);
    sram::Read_netlist n8 =
        sram::build_read_netlist(f8.t, f8.cell, f8.wires, f8.cfg);
    Fixture f32(32);
    sram::Read_netlist n32 =
        sram::build_read_netlist(f32.t, f32.cell, f32.wires, f32.cfg);

    const double td8 = sram::simulate_read(n8).td;
    const double td32 = sram::simulate_read(n32).td;
    EXPECT_GT(td32, 2.0 * td8);
}

TEST(ReadSim, ReadIsNonDestructive)
{
    // After the read window the accessed cell must still store its data:
    // the canonical read-stability requirement.
    Fixture f(8);
    sram::Read_netlist net =
        sram::build_read_netlist(f.t, f.cell, f.wires, f.cfg);

    spice::Transient_options topts;
    topts.tstop = net.timing.wl_mid() + 200e-12;
    topts.dc = net.dc;
    const auto waves = spice::run_transient(
        net.circuit, {net.q, net.qb}, topts);
    EXPECT_LT(waves.final_value(net.circuit.node_name(net.q)), 0.25);
    EXPECT_GT(waves.final_value(net.circuit.node_name(net.qb)), 0.5);
}

TEST(ReadSim, HigherBitlineCapacitanceSlowsRead)
{
    Fixture f(8);
    sram::Read_netlist nominal =
        sram::build_read_netlist(f.t, f.cell, f.wires, f.cfg);
    const double td_nom = sram::simulate_read(nominal).td;

    sram::Bitline_electrical heavier = f.wires;
    heavier.c_bl_cell *= 1.6;
    heavier.c_blb_cell *= 1.6;
    sram::Read_netlist loaded =
        sram::build_read_netlist(f.t, f.cell, heavier, f.cfg);
    const double td_loaded = sram::simulate_read(loaded).td;

    EXPECT_GT(td_loaded, 1.1 * td_nom);
}

TEST(ReadSim, HigherVssRailResistanceSlowsRead)
{
    // The Section III-A mechanism in isolation.
    Fixture f(32);
    sram::Read_netlist nominal =
        sram::build_read_netlist(f.t, f.cell, f.wires, f.cfg);
    const double td_nom = sram::simulate_read(nominal).td;

    sram::Bitline_electrical degraded = f.wires;
    degraded.r_vss_cell *= 2.0;
    sram::Read_netlist slow =
        sram::build_read_netlist(f.t, f.cell, degraded, f.cfg);
    const double td_slow = sram::simulate_read(slow).td;
    EXPECT_GT(td_slow, td_nom);
}

struct Tier {
    sram::Sim_accuracy accuracy;
    spice::Solver_policy solver;
    const char* name;
};

constexpr Tier kTiers[] = {
    {sram::Sim_accuracy::reference, spice::Solver_policy::direct,
     "reference+direct"},
    {sram::Sim_accuracy::fast, spice::Solver_policy::direct, "fast+direct"},
    {sram::Sim_accuracy::fast, spice::Solver_policy::bypass, "fast+bypass"},
};

/// True if every time point and probed sample of `head` is bitwise the
/// same sample of `whole`.
bool is_prefix(const spice::Transient_result& head,
               const spice::Transient_result& whole,
               const std::vector<std::string>& probes)
{
    const std::size_t k = head.sample_count();
    if (k > whole.sample_count()) return false;
    if (!std::equal(head.time().begin(), head.time().end(),
                    whole.time().begin())) {
        return false;
    }
    for (const std::string& p : probes) {
        const util::Piecewise_linear h = head.waveform(p);
        const util::Piecewise_linear w = whole.waveform(p);
        if (!std::equal(h.ys().begin(), h.ys().end(), w.ys().begin())) {
            return false;
        }
    }
    return true;
}

TEST(ReadSim, SenseCrossingStopKeepsTdBitIdentical)
{
    // simulate_read stops at the sense crossing; its td must be bitwise
    // the crossing of a full-window transient of the same netlist, on
    // every tier.
    for (const int n : {8, 64}) {
        Fixture f(n);
        for (const Tier& tier : kTiers) {
            SCOPED_TRACE(std::string(tier.name) + " n=" + std::to_string(n));
            sram::Read_netlist net =
                sram::build_read_netlist(f.t, f.cell, f.wires, f.cfg);
            sram::Read_options opts;
            opts.accuracy = tier.accuracy;
            opts.solver = tier.solver;
            const sram::Read_result read = sram::simulate_read(net, opts);
            ASSERT_TRUE(read.crossed);

            const spice::Transient_options stop_opts =
                sram::read_transient_options(net, opts);
            ASSERT_TRUE(stop_opts.stop.has_value());
            spice::Transient_options full_opts = stop_opts;
            full_opts.stop.reset();
            const std::vector<spice::Node> probes = {net.bl_sense,
                                                     net.blb_sense};
            const auto stopped =
                spice::run_transient(net.circuit, probes, stop_opts);
            const auto full =
                spice::run_transient(net.circuit, probes, full_opts);

            const std::string bl = net.circuit.node_name(net.bl_sense);
            const std::string blb = net.circuit.node_name(net.blb_sense);
            const double t_ref = net.timing.wl_mid();
            const double t_full = spice::differential_time(
                full, bl, blb, net.sense_margin, t_ref);
            EXPECT_EQ(read.t_cross, t_full);
            EXPECT_EQ(read.td, t_full - t_ref);

            // The read ran exactly the stopped transient, a strict prefix
            // of the full window ending on the crossing segment.
            EXPECT_EQ(read.steps.newton_iterations,
                      stopped.steps().newton_iterations);
            EXPECT_EQ(read.steps.accepted, stopped.steps().accepted);
            EXPECT_LT(stopped.sample_count(), full.sample_count());
            EXPECT_TRUE(is_prefix(stopped, full, {bl, blb}));
            EXPECT_GE(stopped.time().back(), t_full);
            EXPECT_LE(stopped.time()[stopped.sample_count() - 2], t_full);
            EXPECT_EQ(read.bl_final, stopped.final_value(bl));
            EXPECT_EQ(read.blb_final, stopped.final_value(blb));
        }
    }
}

TEST(ReadSim, NeverCrossingReadRunsToWindowEnd)
{
    // A window too short for the differential to develop: the stop never
    // fires and the (only) attempt integrates to tstop.
    for (const int n : {8, 64}) {
        Fixture f(n);
        for (const Tier& tier : kTiers) {
            SCOPED_TRACE(std::string(tier.name) + " n=" + std::to_string(n));
            sram::Read_netlist net =
                sram::build_read_netlist(f.t, f.cell, f.wires, f.cfg);
            sram::Read_options opts;
            opts.accuracy = tier.accuracy;
            opts.solver = tier.solver;
            opts.min_window = 2e-12;
            opts.window_per_cell = 0.0;
            opts.max_retries = 0;
            const sram::Read_result read = sram::simulate_read(net, opts);
            EXPECT_FALSE(read.crossed);
            EXPECT_LT(read.td, 0.0);

            spice::Transient_options full_opts =
                sram::read_transient_options(net, opts);
            full_opts.stop.reset();
            const auto full = spice::run_transient(
                net.circuit, {net.bl_sense, net.blb_sense}, full_opts);
            EXPECT_DOUBLE_EQ(full.time().back(), full_opts.tstop);
            EXPECT_EQ(read.steps.accepted, full.steps().accepted);
            EXPECT_EQ(read.steps.newton_iterations,
                      full.steps().newton_iterations);
            EXPECT_EQ(read.bl_final,
                      full.final_value(net.circuit.node_name(net.bl_sense)));
        }
    }
}

TEST(ReadSim, ValidatesOptions)
{
    Fixture f(4);
    sram::Read_netlist net =
        sram::build_read_netlist(f.t, f.cell, f.wires, f.cfg);
    sram::Read_options opts;
    opts.nominal_steps = 0;
    EXPECT_THROW(sram::simulate_read(net, opts), util::Precondition_error);
}

} // namespace
