// Read-time measurement: run the read transient and extract td, the time
// from the word line reaching 50% to |Vbl - Vblb| reaching the
// sense-amplifier sensitivity at the sense end of the column.
#ifndef MPSRAM_SRAM_READ_SIM_H
#define MPSRAM_SRAM_READ_SIM_H

#include <optional>

#include "spice/analysis.h"
#include "spice/workspace.h"
#include "sram/netlist_builder.h"
#include "sram/sim_accuracy.h"
#include "sram/sim_context.h"
#include "sram/solver_policy.h"

namespace mpsram::sram {

struct Read_options {
    /// Transient resolution (steps across the whole window).  Under the
    /// fast policy this is the nominal reference size of the adaptive
    /// controller, not the actual solve count.
    int nominal_steps = 1500;
    /// Initial guess of the measurement window after word-line mid [s];
    /// grows with the array automatically and doubles on a miss.
    double min_window = 200e-12;
    /// Per-cell window padding [s].
    double window_per_cell = 1.5e-12;
    /// Maximum window-doubling retries before giving up.
    int max_retries = 3;
    spice::Integration_method method =
        spice::Integration_method::trapezoidal;
    /// Integration engine (see sim_accuracy.h): calibrated adaptive-LTE
    /// stepping by default, fixed-step reference when pinned.
    Sim_accuracy accuracy = default_sim_accuracy();
    /// Linear-solver tier; defaulted requests resolve against `accuracy`
    /// (see solver_policy.h — reference always runs direct, an explicit
    /// reuse tier under reference throws).
    std::optional<spice::Solver_policy> solver{};
};

struct Read_result {
    double td = -1.0;       ///< [s]; negative if never crossed
    double t_cross = -1.0;  ///< absolute crossing time [s]
    bool crossed = false;
    /// Sense-node BL / BLB voltages at the last simulated sample [V]: the
    /// stop sample that closes the crossing segment of a crossed read (see
    /// read_transient_options), the window end of one that never crossed.
    double bl_final = 0.0;
    double blb_final = 0.0;
    /// Step-control counters summed over the window-doubling attempts of
    /// this measurement (adaptive-vs-fixed cost observable).
    spice::Step_stats steps;
};

/// Transient options of read attempt `attempt` (0 = the first window;
/// each retry doubles it): tstop = wl_mid + window, the accuracy and solver
/// tiers of `opts`, and a stop at the first sample where
/// |v(bl_sense) - v(blb_sense)| has reached `sense_margin` after wl_mid.
/// td only needs that crossing, and the stopped run's samples are a prefix
/// of the full window's (analysis.h), so td is bitwise that of the full
/// window; reset `stop` to integrate the whole window.
spice::Transient_options read_transient_options(const Read_netlist& net,
                                                const Read_options& opts,
                                                int attempt = 0);

/// Simulate the read and measure td.  The netlist is reusable: capacitor
/// history is re-initialized by the DC operating point of each run.  The
/// workspace form keeps the compiled MNA system across calls (and across
/// the window-doubling retries of one call); results are bitwise identical
/// either way.
Read_result simulate_read(Read_netlist& net,
                          const Read_options& opts = Read_options{});
Read_result simulate_read(Read_netlist& net, const Read_options& opts,
                          spice::Transient_workspace& workspace);

/// Trait binding of the read path for the shared column-simulation
/// context (see sim_context.h).
struct Read_sim_traits {
    using Netlist = Read_netlist;
    using Timing = Read_timing;
    using Options = Read_options;
    using Result = Read_result;

    static Read_netlist build(const tech::Technology& tech,
                              const Cell_electrical& cell,
                              const Bitline_electrical& wires,
                              const Array_config& cfg,
                              const Read_timing& timing,
                              const Netlist_options& nopts)
    {
        return build_read_netlist(tech, cell, wires, cfg, timing, nopts);
    }
    static void update_wires(Read_netlist& net,
                             const Bitline_electrical& wires,
                             const Netlist_options& nopts)
    {
        update_read_netlist_wires(net, wires, nopts);
    }
    static Read_result simulate(Read_netlist& net, const Read_options& opts,
                                spice::Transient_workspace& workspace)
    {
        return simulate_read(net, opts, workspace);
    }
};

/// Re-entrant read-simulation context; see sim_context.h for the reuse
/// and threading contract.
using Read_sim_context = Column_sim_context<Read_sim_traits>;

} // namespace mpsram::sram

#endif // MPSRAM_SRAM_READ_SIM_H
