// Write-operation analysis (extension beyond the paper's read study).
//
// The same column infrastructure, driven the other way: with the cell
// storing 0 on the BL side, a write-1 pulls the high storage node down by
// yanking BLB low through the column write driver while the word line is
// up.  The figure of merit is the write time tw: word-line 50% to the
// storage flip (q crossing vdd/2 upward).  Interconnect variability enters
// through the BLB ladder the driver must discharge — the same RC the read
// study varies.
//
// The netlist structs and builders live in netlist_builder.h next to the
// read path's; this header owns the measurement (simulate_write) and the
// per-worker simulation context.
#ifndef MPSRAM_SRAM_WRITE_SIM_H
#define MPSRAM_SRAM_WRITE_SIM_H

#include <limits>
#include <optional>

#include "spice/workspace.h"
#include "sram/netlist_builder.h"
#include "sram/sim_accuracy.h"
#include "sram/sim_context.h"
#include "sram/solver_policy.h"

namespace mpsram::sram {

struct Write_options {
    /// Transient resolution (nominal reference size under the fast policy).
    int nominal_steps = 1500;
    /// Measurement window after the drive edge [s]; the effective window
    /// is max(window, window_per_cell * n) so tall columns keep their
    /// slower flip inside the measured range.
    double window = 400e-12;
    /// Per-cell window padding [s].
    double window_per_cell = 1.5e-12;
    /// Integration engine (see sim_accuracy.h), same policy as the read
    /// path: calibrated adaptive-LTE by default, fixed-step when pinned.
    Sim_accuracy accuracy = default_sim_accuracy();
    /// Linear-solver tier; resolved against `accuracy` exactly like the
    /// read path (see solver_policy.h).
    std::optional<spice::Solver_policy> solver{};
};

struct Write_result {
    /// [s] word-line mid to q = vdd/2.  NaN until the cell flips, so a
    /// failed write poisons any penalty arithmetic instead of leaking a
    /// plausible-looking negative sentinel into it; check `flipped`.
    double tw = std::numeric_limits<double>::quiet_NaN();
    /// q reached the commit level (write_transient_options) after wl_mid,
    /// with the driver and word line still on.  A write whose q crosses
    /// vdd/2 but never commits within the window is not flipped.
    bool flipped = false;
    /// q / qb at the last simulated sample [V]: the stop sample that closes
    /// the commit crossing of a flipped write, the window end otherwise.
    double q_final = 0.0;
    double qb_final = 0.0;
    spice::Step_stats steps;  ///< step-control counters of the run
};

/// Transient options of a write: tstop = wl_mid + max(window,
/// window_per_cell * n), the accuracy and solver tiers of `opts`, and a
/// stop at the first sample where q has reached the commit level (0.9 vdd)
/// after wl_mid.  tw only needs the earlier vdd/2 crossing, and the stopped
/// run's samples are a prefix of the full window's (analysis.h), so tw is
/// bitwise that of the full window; reset `stop` to integrate the whole
/// window.
spice::Transient_options write_transient_options(const Write_netlist& net,
                                                 const Write_options& opts);

/// Simulate the write and measure tw.  The netlist is reusable: capacitor
/// history is re-initialized by the DC operating point of each run.  The
/// workspace form keeps the compiled MNA system across calls; results are
/// bitwise identical either way.
Write_result simulate_write(Write_netlist& net,
                            const Write_options& opts = Write_options{});
Write_result simulate_write(Write_netlist& net, const Write_options& opts,
                            spice::Transient_workspace& workspace);

/// Trait binding of the write path for the shared column-simulation
/// context (see sim_context.h).
struct Write_sim_traits {
    using Netlist = Write_netlist;
    using Timing = Write_timing;
    using Options = Write_options;
    using Result = Write_result;

    static Write_netlist build(const tech::Technology& tech,
                               const Cell_electrical& cell,
                               const Bitline_electrical& wires,
                               const Array_config& cfg,
                               const Write_timing& timing,
                               const Netlist_options& nopts)
    {
        return build_write_netlist(tech, cell, wires, cfg, timing, nopts);
    }
    static void update_wires(Write_netlist& net,
                             const Bitline_electrical& wires,
                             const Netlist_options& nopts)
    {
        update_write_netlist_wires(net, wires, nopts);
    }
    static Write_result simulate(Write_netlist& net,
                                 const Write_options& opts,
                                 spice::Transient_workspace& workspace)
    {
        return simulate_write(net, opts, workspace);
    }
};

/// Re-entrant write-simulation context; see sim_context.h for the reuse
/// and threading contract.
using Write_sim_context = Column_sim_context<Write_sim_traits>;

} // namespace mpsram::sram

#endif // MPSRAM_SRAM_WRITE_SIM_H
