#include "sram/write_sim.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "spice/measure.h"
#include "util/check.h"
#include "util/contracts.h"

namespace mpsram::sram {

Write_result simulate_write(Write_netlist& net, const Write_options& opts)
{
    spice::Transient_workspace workspace;
    return simulate_write(net, opts, workspace);
}

spice::Transient_options write_transient_options(const Write_netlist& net,
                                                 const Write_options& opts)
{
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
    // The latch has committed once q reaches this fraction of vdd: its
    // own feedback finishes the flip, and tw (q = vdd/2) lies behind it.
    constexpr double commit = 0.9;
    topts.stop = spice::Differential_stop{net.q, spice::ground_node,
                                          commit * net.vdd,
                                          net.timing.wl_mid()};
    return topts;
}

Write_result simulate_write(Write_netlist& net, const Write_options& opts,
                            spice::Transient_workspace& workspace)
{
    util::expects(opts.nominal_steps > 0, "steps must be positive");
    util::expects(opts.window > 0.0, "window must be positive");
    util::expects(opts.window_per_cell >= 0.0,
                  "per-cell window padding must be non-negative");

    const spice::Transient_options topts =
        write_transient_options(net, opts);
    const std::vector<spice::Node> probes = {net.q, net.qb, net.bl,
                                             net.blb};
    const spice::Transient_result waves =
        spice::run_transient(net.circuit, probes, topts, workspace);

    Write_result r;
    r.steps = waves.steps();
    const std::string q_name = net.circuit.node_name(net.q);
    r.q_final = waves.final_value(q_name);
    r.qb_final = waves.final_value(net.circuit.node_name(net.qb));

    const double t_ref = net.timing.wl_mid();
    const double t_commit =
        spice::crossing_time(waves, q_name, topts.stop->level, t_ref);
    const double t_flip =
        spice::crossing_time(waves, q_name, 0.5 * net.vdd, t_ref);
    if (t_commit >= 0.0 && t_flip >= 0.0) {
        r.flipped = true;
        r.tw = t_flip - t_ref;
        // Timing contract: a flipped cell reports a finite write time
        // measured from wordline mid-rise, never a negative one.
        MPSRAM_ENSURE(std::isfinite(r.tw) && r.tw >= 0.0,
                      "write time must be finite and non-negative",
                      MPSRAM_VAL(r.tw), MPSRAM_VAL(t_flip));
    }
    return r;
}

} // namespace mpsram::sram
