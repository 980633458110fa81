// Analysis drivers: DC operating point and transient simulation.
//
// Two orthogonal execution tiers select how much exactness a run buys:
//
//  * Accuracy tier (`sram::Sim_accuracy`, applied to Transient_options):
//    fixed-step reference integration vs the calibrated adaptive-LTE
//    controller.  Decides WHICH time points are solved.
//
//  * Solver tier (`spice::Solver_policy` on Newton_options.solver):
//    decides HOW each Newton linear system is solved.
//      - `direct`: factor the sparse LU every Newton iteration.  The
//        bitwise oracle; pair with Sim_accuracy::reference for golden
//        waveforms, and use it whenever a discrepancy needs a ground
//        truth to bisect against.
//      - `bypass`: delta-residual Newton on a reused factorization,
//        refreshed on operating-point drift (`bypass_vtol`), dt-band
//        exit (`bypass_dt_band`), stall (`bypass_stall_iters`), step
//        rejection, or any forcing stamps — plus device-level bypass
//        (`device_bypass_vtol`): quiet MOSFETs keep their last stamp
//        values instead of re-running the compact model (the compiled
//        stamp program then re-sums only the matrix entries that
//        changed; see system.h).  Acceptance requires a final
//        sub-tolerance step against a fresh factorization, so the
//        accepted point passes the direct tier's own criterion; the
//        residual model error is bounded by g * device_bypass_vtol per
//        quiet device and gated at 0.5% end to end.  This is the
//        production default under the fast accuracy tier.
//    DC operating points keep their own Newton_options (Dc_options below)
//    and default to `direct`, which pins identical initial conditions
//    under every policy.  Per-run factorization/bypass work and device
//    evaluations are observable in Step_stats.
#ifndef MPSRAM_SPICE_ANALYSIS_H
#define MPSRAM_SPICE_ANALYSIS_H

#include <optional>
#include <string>
#include <vector>

#include "spice/circuit.h"
#include "spice/system.h"
#include "spice/workspace.h"
#include "util/numeric.h"

namespace mpsram::spice {

struct Dc_options {
    Newton_options newton;
    /// Nodes pinned during a first solve pass and released for a second,
    /// warm-started pass — the supported way to pick a stable state of a
    /// bistable circuit (SRAM latch).
    std::vector<Forced_node> forces;
    /// Plain initial guesses (no pinning).
    std::vector<std::pair<Node, double>> initial_guesses;
};

struct Dc_result {
    std::vector<double> voltages;  ///< full node-indexed vector
    int iterations = 0;

    double v(Node n) const { return voltages[static_cast<std::size_t>(n)]; }
};

/// Solve the DC operating point (caps open).  Applies gmin stepping if the
/// direct solve fails to converge.  The one-shot form compiles the circuit
/// into a throwaway workspace; pass a Transient_workspace to reuse the
/// compiled system across repeated solves.
Dc_result dc_operating_point(Circuit& circuit, const Dc_options& opts = {});
Dc_result dc_operating_point(Circuit& circuit, const Dc_options& opts,
                             Transient_workspace& workspace);

/// Early end of a transient at a differential crossing: the first accepted
/// sample at which |v(a) - v(b)| has reached `level` at or after `from`.
/// See Transient_options::stop for the contract.
struct Differential_stop {
    Node a = ground_node;
    Node b = ground_node;
    double level = 0.0;
    double from = 0.0;
};

struct Transient_options {
    double tstop = 0.0;
    /// Nominal step = tstop / nominal_steps; the engine additionally lands
    /// exactly on every source breakpoint and halves the step on Newton
    /// failure.
    int nominal_steps = 1200;
    Integration_method method = Integration_method::trapezoidal;
    /// Use one backward-Euler step right after each breakpoint to damp the
    /// trapezoidal ringing a slope discontinuity would excite.
    bool be_after_breakpoint = true;
    int max_step_halvings = 20;
    Newton_options newton;
    Dc_options dc;  ///< options for the t=0 operating point

    // --- local-truncation-error step control ---------------------------------
    /// When true, each step's solution is compared against a forward
    /// predictor built from the previous slope; steps whose normalized
    /// error exceeds 1 are rejected and retried smaller, and accepted
    /// steps grow/shrink the next step toward the error target.  The
    /// nominal step acts as the reference size; growth is capped at
    /// `lte_max_growth` times it.
    bool adaptive = false;
    /// Per-node LTE tolerance: |v - predictor| <= lte_abs + lte_rel * |v|.
    double lte_rel = 2e-3;
    double lte_abs = 2e-4;
    /// Growth cap relative to the nominal step.
    double lte_max_growth = 4.0;
    /// Smallest allowed step relative to the nominal step.
    double lte_min_shrink = 1e-4;

    // --- early stop ----------------------------------------------------------
    /// When set, the run ends at the first accepted sample that closes the
    /// segment in which |v(a) - v(b)| crosses `level` at or after `from`,
    /// the segment test being util::segment_crossing.  Contract:
    ///  * Step control is causal and keeps the same tstop and breakpoints,
    ///    so every sample up to the stop is bitwise the sample of the run
    ///    without a stop: the stopped result is a prefix of the full one.
    ///  * differential_time(result, a, b, level, from) on the stopped
    ///    result is therefore bitwise the value on the full result, and
    ///    the crossing lies in the last recorded segment.
    ///  * A run that never crosses ends at tstop, exactly as without a
    ///    stop.  Step_stats and final values cover the recorded samples
    ///    only.
    std::optional<Differential_stop> stop;
};

/// Per-run step-control counters (filled by run_transient).  `accepted` is
/// the number of committed time steps; the reject counters distinguish the
/// two retry causes so adaptive-vs-fixed cost comparisons and step-control
/// regressions have an observable.  The solver counters are the per-run
/// delta of the system's cumulative Solver_counters (DC operating-point
/// work included): `lu_factorizations + bypass_hits == newton_iterations`,
/// and a growing bypass share is the direct observable of the
/// factorization-reuse tier.
struct Step_stats {
    int accepted = 0;
    int lte_rejected = 0;     ///< predictor error exceeded tolerance
    int newton_rejected = 0;  ///< Newton failed to converge at the step

    long long newton_iterations = 0;
    long long lu_factorizations = 0;  ///< LU factorizations
    long long bypass_hits = 0;        ///< solves on a reused factorization
    long long device_evaluations = 0; ///< compact-model / companion evals

    int total_attempts() const
    {
        return accepted + lte_rejected + newton_rejected;
    }

    Step_stats& operator+=(const Step_stats& other)
    {
        accepted += other.accepted;
        lte_rejected += other.lte_rejected;
        newton_rejected += other.newton_rejected;
        newton_iterations += other.newton_iterations;
        lu_factorizations += other.lu_factorizations;
        bypass_hits += other.bypass_hits;
        device_evaluations += other.device_evaluations;
        return *this;
    }
};

/// Recorded transient waveforms at the probed nodes.
class Transient_result {
public:
    Transient_result(std::vector<Node> probes,
                     std::vector<std::string> names);

    void append(double t, const std::vector<double>& voltages);

    std::size_t sample_count() const { return time_.size(); }
    const std::vector<double>& time() const { return time_; }

    /// Step-control counters of the run that produced this result.
    const Step_stats& steps() const { return steps_; }
    void set_steps(const Step_stats& s) { steps_ = s; }

    /// Waveform of a probed node (by name used at probe registration).
    util::Piecewise_linear waveform(const std::string& name) const;

    /// Differential waveform |v(a) - v(b)| of two probed nodes.
    util::Piecewise_linear differential(const std::string& a,
                                        const std::string& b) const;

    double final_value(const std::string& name) const;

private:
    std::size_t probe_index(const std::string& name) const;

    std::vector<Node> probes_;
    std::vector<std::string> names_;
    std::vector<double> time_;
    std::vector<std::vector<double>> samples_;  ///< per probe
    Step_stats steps_;
};

/// Run a transient from the DC operating point.  `probes` are circuit
/// nodes whose waveforms are recorded (keep the list small: memory is
/// samples x probes).  The workspace form reuses the compiled MNA system
/// and the solver vectors across runs (bitwise-identical results); the
/// one-shot form forwards through a local workspace.
Transient_result run_transient(Circuit& circuit,
                               const std::vector<Node>& probes,
                               const Transient_options& opts);
Transient_result run_transient(Circuit& circuit,
                               const std::vector<Node>& probes,
                               const Transient_options& opts,
                               Transient_workspace& workspace);

} // namespace mpsram::spice

#endif // MPSRAM_SPICE_ANALYSIS_H
