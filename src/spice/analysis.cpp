#include "spice/analysis.h"

#include <algorithm>
#include <cmath>

#include "spice/exceptions.h"
#include "util/contracts.h"

namespace mpsram::spice {

namespace {

Eval_context dc_context(const std::vector<double>& voltages)
{
    Eval_context ctx;
    ctx.mode = Analysis_mode::dc;
    ctx.time = 0.0;
    ctx.dt = 0.0;
    ctx.voltages = voltages.data();
    return ctx;
}

/// One DC Newton solve with optional forces, trying progressively larger
/// gmin values on failure and walking gmin back down (gmin stepping).
int dc_solve(Mna_system& system, std::vector<double>& voltages,
             const Dc_options& opts, std::span<const Forced_node> forces)
{
    try {
        return system.solve(dc_context(voltages), voltages, opts.newton,
                            forces);
    } catch (const Convergence_error&) {
        // fall through to gmin stepping
    }

    const double gmin_start = 1e-2;
    Newton_options stepped = opts.newton;
    int iters = 0;
    for (double g = gmin_start; g >= opts.newton.gmin; g *= 1e-2) {
        stepped.gmin = g;
        iters = system.solve(dc_context(voltages), voltages, stepped, forces);
    }
    stepped.gmin = opts.newton.gmin;
    return iters + system.solve(dc_context(voltages), voltages, stepped,
                                forces);
}

/// Full DC flow on an already-compiled system, writing into `voltages`
/// (resized and re-initialized here).  Returns the free-solve iterations.
int dc_into(Mna_system& system, std::size_t node_count,
            const Dc_options& opts, std::vector<double>& voltages)
{
    voltages.assign(node_count, 0.0);
    system.apply_driven(0.0, voltages);
    for (const auto& [node, v] : opts.initial_guesses) {
        voltages[static_cast<std::size_t>(node)] = v;
    }
    for (const Forced_node& f : opts.forces) {
        voltages[static_cast<std::size_t>(f.node)] = f.voltage;
    }

    if (!opts.forces.empty()) {
        // Phase 1: pinned solve selects the basin of attraction.
        dc_solve(system, voltages, opts, opts.forces);
    }
    // Phase 2 (or only phase): free solve.
    const int iterations = dc_solve(system, voltages, opts, {});

    // Let dynamic devices latch their DC state.
    system.accept(dc_context(voltages));
    return iterations;
}

/// True if |v(a) - v(b)| crosses the stop level in the accepted segment
/// (t0, before) -> (t1, after): the same per-segment test, on the same
/// |difference| values, as Piecewise_linear::first_crossing on
/// Transient_result::differential.
bool crossed_in(const Differential_stop& stop,
                const std::vector<double>& before, double t0,
                const std::vector<double>& after, double t1)
{
    const auto a = static_cast<std::size_t>(stop.a);
    const auto b = static_cast<std::size_t>(stop.b);
    return util::segment_crossing(t0, std::fabs(before[a] - before[b]), t1,
                                  std::fabs(after[a] - after[b]), stop.level,
                                  stop.from)
        .has_value();
}

} // namespace

Dc_result dc_operating_point(Circuit& circuit, const Dc_options& opts,
                             Transient_workspace& workspace)
{
    Mna_system& system = workspace.bind(circuit);
    system.reset_reuse_state();

    Dc_result result;
    result.iterations =
        dc_into(system, circuit.node_count(), opts, result.voltages);
    return result;
}

Dc_result dc_operating_point(Circuit& circuit, const Dc_options& opts)
{
    Transient_workspace workspace;
    return dc_operating_point(circuit, opts, workspace);
}

// --- Transient_result ---------------------------------------------------------

Transient_result::Transient_result(std::vector<Node> probes,
                                   std::vector<std::string> names)
    : probes_(std::move(probes)), names_(std::move(names))
{
    util::expects(probes_.size() == names_.size(),
                  "probe/name count mismatch");
    samples_.resize(probes_.size());
}

void Transient_result::append(double t, const std::vector<double>& voltages)
{
    util::expects(time_.empty() || t > time_.back(),
                  "transient samples must advance in time");
    time_.push_back(t);
    for (std::size_t i = 0; i < probes_.size(); ++i) {
        samples_[i].push_back(
            voltages[static_cast<std::size_t>(probes_[i])]);
    }
}

std::size_t Transient_result::probe_index(const std::string& name) const
{
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name) return i;
    }
    throw Netlist_error("no probe named " + name);
}

util::Piecewise_linear Transient_result::waveform(
    const std::string& name) const
{
    return util::Piecewise_linear(time_, samples_[probe_index(name)]);
}

util::Piecewise_linear Transient_result::differential(
    const std::string& a, const std::string& b) const
{
    const auto& sa = samples_[probe_index(a)];
    const auto& sb = samples_[probe_index(b)];
    std::vector<double> diff(sa.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
        diff[i] = std::fabs(sa[i] - sb[i]);
    }
    return util::Piecewise_linear(time_, std::move(diff));
}

double Transient_result::final_value(const std::string& name) const
{
    const auto& s = samples_[probe_index(name)];
    util::expects(!s.empty(), "no samples recorded");
    return s.back();
}

// --- run_transient -------------------------------------------------------------

Transient_result run_transient(Circuit& circuit,
                               const std::vector<Node>& probes,
                               const Transient_options& opts,
                               Transient_workspace& workspace)
{
    util::expects(opts.tstop > 0.0, "tstop must be positive");
    util::expects(opts.nominal_steps > 0, "nominal_steps must be positive");
    if (opts.stop) {
        const auto in_circuit = [&](Node n) {
            return n >= 0 && static_cast<std::size_t>(n) < circuit.node_count();
        };
        util::expects(in_circuit(opts.stop->a) && in_circuit(opts.stop->b),
                      "stop nodes must belong to the circuit");
    }

    Mna_system& system = workspace.bind(circuit);
    system.reset_reuse_state();
    const Solver_counters counters_before = system.counters();

    // Operating point (also latches capacitor DC state).  Shares the
    // compiled system with the time loop below.
    std::vector<double>& voltages = workspace.voltages();
    dc_into(system, circuit.node_count(), opts.dc, voltages);

    std::vector<std::string> names;
    names.reserve(probes.size());
    for (Node p : probes) names.push_back(circuit.node_name(p));
    Transient_result result(probes, std::move(names));
    result.append(0.0, voltages);

    std::vector<double> breakpoints = system.breakpoints(opts.tstop);
    breakpoints.push_back(opts.tstop);
    std::size_t next_bp = 0;

    const double dt_nominal =
        opts.tstop / static_cast<double>(opts.nominal_steps);
    const double dt_max = dt_nominal * opts.lte_max_growth;
    const double dt_min = dt_nominal * opts.lte_min_shrink;

    // Slope history for the LTE predictor.
    std::vector<double>& prev_voltages = workspace.prev_voltages();
    prev_voltages = voltages;
    std::vector<double>& attempt = workspace.attempt();
    double prev_dt = 0.0;

    double t = 0.0;
    double dt_next = dt_nominal;
    Step_stats stats;
    bool after_breakpoint = true;  // t=0 counts as a corner
    while (t < opts.tstop - 1e-18) {
        // Advance the breakpoint cursor past times we already passed.
        while (next_bp < breakpoints.size() &&
               breakpoints[next_bp] <= t + 1e-18) {
            ++next_bp;
        }
        double dt_wish = opts.adaptive ? dt_next : dt_nominal;
        if (opts.adaptive && after_breakpoint) {
            // Restart small after every waveform corner: the first step has
            // no slope history for the LTE predictor, and corners are where
            // stiff hand-offs (e.g. a pass gate snapping on) live.
            dt_wish = std::max(dt_nominal * 1e-2, dt_min);
        }
        double t_target = std::min(t + dt_wish, opts.tstop);
        if (next_bp < breakpoints.size()) {
            t_target = std::min(t_target, breakpoints[next_bp]);
        }

        Eval_context ctx;
        ctx.mode = Analysis_mode::transient;
        ctx.method = (after_breakpoint && opts.be_after_breakpoint)
                         ? Integration_method::backward_euler
                         : opts.method;

        // Try the step; shrink on Newton failure or excessive LTE.  The two
        // causes are tracked separately: only a Newton failure marks the
        // step as a waveform corner (below), because an LTE rejection just
        // means the step was too ambitious for a perfectly smooth solution.
        double dt = t_target - t;
        int halvings = 0;
        int newton_failures = 0;
        double lte = 0.0;
        for (;;) {
            attempt = voltages;
            ctx.time = t + dt;
            ctx.dt = dt;
            bool converged = true;
            try {
                system.solve(ctx, attempt, opts.newton);
            } catch (const Convergence_error&) {
                converged = false;
                ++newton_failures;
                ++stats.newton_rejected;
            }

            if (converged && opts.adaptive && prev_dt > 0.0 &&
                !after_breakpoint) {
                // Normalized predictor error: forward-Euler extrapolation
                // of the last accepted slope vs the implicit solution.
                lte = 0.0;
                for (std::size_t i = 0; i < attempt.size(); ++i) {
                    const double slope =
                        (voltages[i] - prev_voltages[i]) / prev_dt;
                    const double predicted = voltages[i] + slope * dt;
                    const double tol = opts.lte_abs +
                                       opts.lte_rel * std::fabs(attempt[i]);
                    lte = std::max(lte,
                                   std::fabs(attempt[i] - predicted) / tol);
                }
                if (lte > 1.0 && dt > dt_min) {
                    converged = false;  // reject: retry smaller
                    ++stats.lte_rejected;
                }
            }

            if (converged) break;
            if (++halvings > opts.max_step_halvings) {
                throw Convergence_error(
                    "transient step kept failing at t = " +
                    std::to_string(t) + " s");
            }
            dt *= 0.5;
        }

        prev_voltages = voltages;
        prev_dt = dt;
        // Swap instead of move: `attempt` keeps a full-sized buffer for the
        // next step's copy-assign, and the workspace vectors stay usable
        // across runs.
        std::swap(voltages, attempt);
        ctx.voltages = voltages.data();
        system.accept(ctx);
        const double t_prev = t;
        t += dt;
        ++stats.accepted;
        result.append(t, voltages);
        if (opts.stop && crossed_in(*opts.stop, prev_voltages, t_prev,
                                    voltages, t)) {
            break;
        }

        if (opts.adaptive) {
            // Grow toward the error target (cube-root law for a
            // second-order method), clamped to the configured band.
            double factor = 2.0;
            if (lte > 0.0) {
                factor = 0.9 * std::pow(1.0 / lte, 1.0 / 3.0);
                factor = std::clamp(factor, 0.3, 2.0);
            }
            dt_next = std::clamp(dt * factor, dt_min, dt_max);
        }

        // Only true waveform corners restart the controller: source
        // breakpoints and Newton failures (a stiff hand-off the
        // linearization could not follow).  An LTE rejection must NOT land
        // here — it is ordinary error control, and flagging it as a corner
        // would force a backward-Euler step, a tiny restart step, and a
        // predictor-history reset after every rejected step.
        const bool hit_breakpoint =
            next_bp < breakpoints.size() &&
            std::fabs(t - breakpoints[next_bp]) < 1e-18;
        after_breakpoint = hit_breakpoint || newton_failures > 0;
    }

    const Solver_counters& counters_after = system.counters();
    stats.newton_iterations =
        counters_after.newton_iterations - counters_before.newton_iterations;
    stats.lu_factorizations =
        counters_after.lu_factorizations - counters_before.lu_factorizations;
    stats.bypass_hits =
        counters_after.bypass_hits - counters_before.bypass_hits;
    stats.device_evaluations = counters_after.device_evaluations -
                               counters_before.device_evaluations;

    result.set_steps(stats);
    return result;
}

Transient_result run_transient(Circuit& circuit,
                               const std::vector<Node>& probes,
                               const Transient_options& opts)
{
    Transient_workspace workspace;
    return run_transient(circuit, probes, opts, workspace);
}

} // namespace mpsram::spice
