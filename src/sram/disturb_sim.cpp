#include "sram/disturb_sim.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "spice/measure.h"
#include "util/check.h"
#include "util/contracts.h"

namespace mpsram::sram {

Disturb_result simulate_disturb(Disturb_netlist& net,
                                const Disturb_options& opts)
{
    spice::Transient_workspace workspace;
    return simulate_disturb(net, opts, workspace);
}

Disturb_result simulate_disturb(Disturb_netlist& net,
                                const Disturb_options& opts,
                                spice::Transient_workspace& workspace)
{
    util::expects(opts.nominal_steps > 0, "steps must be positive");
    util::expects(opts.window > 0.0, "window must be positive");
    util::expects(opts.window_per_cell >= 0.0,
                  "per-cell window padding must be non-negative");

    const double window =
        std::max(opts.window, opts.window_per_cell *
                                  static_cast<double>(net.word_lines));

    spice::Transient_options topts;
    topts.tstop = net.timing.wl_mid() + window;
    topts.nominal_steps = opts.nominal_steps;
    topts.dc = net.dc;
    apply_sim_accuracy(topts, opts.accuracy);
    apply_solver_policy(topts,
                        resolve_solver_policy(opts.accuracy, opts.solver));
    // No early stop, unlike reads and writes: v_bump is a peak over the
    // whole window, and no sample before tstop proves it has been reached.

    const std::vector<spice::Node> probes = {net.q, net.qb, net.bl_far,
                                             net.blb_far};
    const spice::Transient_result waves =
        spice::run_transient(net.circuit, probes, topts, workspace);

    Disturb_result r;
    r.steps = waves.steps();
    const std::string q_name = net.circuit.node_name(net.q);
    r.q_final = waves.final_value(q_name);
    r.qb_final = waves.final_value(net.circuit.node_name(net.qb));

    // Peak from the start of the word-line edge: q sits at 0 before it,
    // so earlier samples cannot host the bump.
    r.v_bump = std::max(0.0, spice::peak_value(waves, q_name,
                                               net.timing.t_wl_on));
    r.bump_fraction = r.v_bump / (0.5 * net.vdd);
    // Bump contract: the peak is clamped non-negative above and a NaN
    // waveform must not leak into the half-select metric as a "bump".
    MPSRAM_ENSURE(std::isfinite(r.v_bump) && r.v_bump >= 0.0,
                  "disturb bump must be finite and non-negative",
                  MPSRAM_VAL(r.v_bump), MPSRAM_VAL(r.q_final));
    // Destructive only if the latch ends on the wrong side; a transient
    // graze of vdd/2 that regenerates back low is not a lost bit.  (The
    // peak always bounds q_final, so no separate bump check is needed.)
    r.flipped = r.q_final > 0.5 * net.vdd;
    return r;
}

} // namespace mpsram::sram
