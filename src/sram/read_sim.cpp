#include "sram/read_sim.h"

#include <algorithm>
#include <cmath>

#include "spice/measure.h"
#include "util/check.h"
#include "util/contracts.h"

namespace mpsram::sram {

Read_result simulate_read(Read_netlist& net, const Read_options& opts)
{
    spice::Transient_workspace workspace;
    return simulate_read(net, opts, workspace);
}

spice::Transient_options read_transient_options(const Read_netlist& net,
                                                const Read_options& opts,
                                                int attempt)
{
    const double t_ref = net.timing.wl_mid();
    const double window = std::ldexp(
        std::max(opts.min_window,
                 opts.window_per_cell * static_cast<double>(net.word_lines)),
        attempt);

    spice::Transient_options topts;
    topts.tstop = t_ref + window;
    topts.nominal_steps = opts.nominal_steps;
    topts.method = opts.method;
    topts.dc = net.dc;
    apply_sim_accuracy(topts, opts.accuracy);
    apply_solver_policy(topts,
                        resolve_solver_policy(opts.accuracy, opts.solver));
    topts.stop = spice::Differential_stop{net.bl_sense, net.blb_sense,
                                          net.sense_margin, t_ref};
    return topts;
}

Read_result simulate_read(Read_netlist& net, const Read_options& opts,
                          spice::Transient_workspace& workspace)
{
    util::expects(opts.nominal_steps > 0, "steps must be positive");
    MPSRAM_REQUIRE(opts.min_window > 0.0 && opts.window_per_cell >= 0.0,
                   "read window options must define a positive window",
                   MPSRAM_VAL(opts.min_window),
                   MPSRAM_VAL(opts.window_per_cell));
    MPSRAM_REQUIRE(opts.max_retries >= 0, "retry count must be non-negative",
                   MPSRAM_VAL(opts.max_retries));

    const double t_ref = net.timing.wl_mid();
    const std::string bl_name = net.circuit.node_name(net.bl_sense);
    const std::string blb_name = net.circuit.node_name(net.blb_sense);
    const std::vector<spice::Node> probes = {
        net.bl_sense, net.blb_sense, net.bl_far, net.blb_far, net.wl,
        net.q, net.qb};

    Read_result result;
    for (int attempt = 0; attempt <= opts.max_retries; ++attempt) {
        spice::Transient_result waves = spice::run_transient(
            net.circuit, probes, read_transient_options(net, opts, attempt),
            workspace);
        result.steps += waves.steps();

        const double t_cross = spice::differential_time(
            waves, bl_name, blb_name, net.sense_margin, t_ref);

        result.bl_final = waves.final_value(bl_name);
        result.blb_final = waves.final_value(blb_name);

        if (t_cross >= 0.0) {
            result.crossed = true;
            result.t_cross = t_cross;
            result.td = t_cross - t_ref;
            // Timing contract: a crossed read reports a finite delay
            // measured from wordline mid-rise, never a negative one.
            MPSRAM_ENSURE(std::isfinite(result.td) && result.td >= 0.0,
                          "read delay must be finite and non-negative",
                          MPSRAM_VAL(result.td), MPSRAM_VAL(t_cross),
                          MPSRAM_VAL(t_ref));
            return result;
        }
    }
    return result;  // never crossed: td = -1
}

} // namespace mpsram::sram
