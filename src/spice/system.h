// Compiled MNA system: node classification, the bound stamp entries of
// every element, and the Newton-Raphson solve shared by DC and transient
// analyses.
//
// Classification: a voltage source with its negative terminal on ground
// makes its positive node "driven" (known voltage, no unknown — the common
// case for rails and clocks, and what keeps the matrix a pure conductance
// matrix).  Floating voltage sources get a branch-current unknown appended
// after the node unknowns, where elimination fill guarantees their pivots.
//
// Assembly: evaluation is separated from accumulation.
//
//   * Binding (compile time, SPICE3 TSTALLOC style).  Each element kind
//     has one fixed list of stamp entries over its terminals (system.cpp):
//     its (eq, wrt) Jacobian pairs, then its RHS rows.  Walking the
//     elements in insertion order, the same lists first build the CSR
//     pattern, then route every entry once: to a matrix slot, an RHS row,
//     a driven-column RHS entry (-x * v(column)), or a drop (ground and
//     driven equation rows, ground columns — adding a signed zero to a
//     sum that starts at +0.0 is an exact identity).  Each kept entry gets
//     its slab index.
//   * Evaluation.  Each kind has a flat loop of its own, which writes
//     stamp VALUES into the value slab; a write that changes the stored
//     bits marks its matrix slot or RHS row dirty.
//       - resistors without a driven column: once per run, after
//         reset_reuse_state();
//       - resistors with a driven column: every iteration on the direct
//         tier, and behind the per-element device_bypass_vtol drift check
//         on the bypass tier, as MOSFETs are;
//       - current sources: on the first Newton iteration of each solve,
//         where t and dt change, DC included;
//       - capacitors and MOSFETs: their banks, below.
//   * Capacitor bank.  Capacitors are structural, like grounded voltage
//     sources: the system owns their companion models in flat arrays
//     (terminals, farads, history v_prev / i_prev, bound entries).  The
//     bank is per step: evaluated in one flat loop on the first iteration
//     of each transient solve, open (+0.0) in DC, and told accept() after
//     each DC solution and accepted step, where it latches its history.
//     A grounded capacitor (a an unknown, b ground) keeps only its two
//     live entries, the (a, a) slot and the a row, and comes first in the
//     bank; any other keeps all six.  Capacitances are snapshotted in
//     reset_reuse_state(), where value edits take effect.
//   * MOSFET bank.  MOSFETs, the elements evaluated every Newton
//     iteration, form an SoA bank in insertion order: each one's
//     terminals, an index into a table of the distinct (Mosfet_params,
//     multiplicity) models (equal bit for bit), its eight bound entries
//     and its drift record.  One flat loop applies the drift check to
//     every record, evaluates the EKV model for those that moved and
//     writes their Newton companions.
//   * Slab layout.  Values are stored target-major: the contributions to
//     one matrix slot or RHS row are contiguous, in insertion order.
//   * Fold.  Each matrix slot and RHS row is the sum of its
//     contributions in insertion order, starting from 0.0, followed by
//     gmin, initial-condition forcing and the floating-source branch
//     stamps — the exact sequence of additions a clear-then-accumulate
//     assembly performs, so every solver tier gets bit-identical
//     matrices.  Only dirty entries are re-folded; everything else
//     carries over from the previous iteration.  The first assembly, a
//     gmin change, and any forced solve (and the one after it) fold
//     everything.
#ifndef MPSRAM_SPICE_SYSTEM_H
#define MPSRAM_SPICE_SYSTEM_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "spice/circuit.h"
#include "spice/sparse.h"

namespace mpsram::spice {

/// Linear-solver tier inside the Newton loop (full semantics in
/// analysis.h, next to the accuracy tier it composes with).
///
///   direct    — factor the Jacobian on every Newton iteration.  The
///               bitwise oracle; every other tier is gated against it.
///   bypass    — delta-residual (chord) Newton with device-level bypass:
///               the Jacobian and RHS are assembled every iteration, with
///               quiet nonlinear devices (terminal movement below
///               device_bypass_vtol) keeping their last stamp values
///               instead of re-running the compact model, and the linear
///               solve reuses the last LU factorization until the operating
///               point drifts, dt leaves the factor-time band, or
///               convergence stalls.  Converged solutions satisfy the
///               assembled residual — exact up to g * device_bypass_vtol
///               per quiet device, held to the 0.5% agreement budget.
enum class Solver_policy { direct, bypass };

struct Newton_options {
    int max_iterations = 100;
    /// Per-node voltage convergence: |dv| <= abstol + reltol * |v|.
    double abstol = 1e-6;
    double reltol = 1e-4;
    /// Per-iteration voltage step clamp [V] (Newton damping).
    double vstep_limit = 0.3;
    /// Conductance to ground added on every node diagonal [S].
    double gmin = 1e-12;
    double pivot_floor = 1e-13;

    Solver_policy solver = Solver_policy::direct;
    /// bypass: refresh the factorization when any node voltage (driven
    /// nodes included — word-line ramps move the MOSFET linearizations)
    /// drifts more than this from the factor-time operating point [V].
    /// Kept tight: a near-current operator keeps chord steps Newton-quality
    /// AND lets a converged solve accept on a still-valid factor without a
    /// confirmation iteration.
    double bypass_vtol = 5e-3;
    /// bypass: refresh when dt leaves [dt_f / band, dt_f * band] around
    /// the factor-time step (capacitor companion conductances scale as
    /// C/dt).  Default 1.0 = dt-exact reuse: the adaptive
    /// controller parks at dt_max through quiet stretches, which is
    /// where reuse pays; reusing across a dt change perturbs every
    /// companion conductance and stalls the chord iteration.
    double bypass_dt_band = 1.0;
    /// bypass: refresh once a factorization has served this many
    /// consecutive Newton iterations within a solve (convergence stall
    /// under a stale operator).
    int bypass_stall_iters = 5;
    /// bypass: device-level bypass (the classic SPICE BYPASS lever).  A
    /// MOSFET or driven-column resistor whose terminal voltages — driven terminals
    /// included — all moved less than this [V] since its last
    /// evaluation keeps its last stamp values instead of re-running the
    /// compact model.  The kept linearization is off by at most
    /// g * vtol, which the 0.5% agreement gate bounds end to end; the
    /// direct tier never uses it.  0 disables.
    double device_bypass_vtol = 1e-4;
};

/// Cumulative linear-solver work counters (monotone over the life of the
/// system; analysis drivers snapshot-and-diff them into per-run
/// Step_stats).  `bypass_hits` counts Newton iterations whose linear
/// solve was served by a reused factorization — factorization-avoidance
/// made observable.
struct Solver_counters {
    long long newton_iterations = 0;
    long long lu_factorizations = 0;  ///< LU factorizations
    long long bypass_hits = 0;
    /// Compact-model or companion evaluations: MOSFETs whose stamps were
    /// recomputed (not carried over) for an assembly, plus one per
    /// capacitor for every transient solve.
    long long device_evaluations = 0;
};

/// A node temporarily pinned toward a voltage through a conductance
/// (initial-condition support for bistable circuits).
struct Forced_node {
    Node node = ground_node;
    double voltage = 0.0;
    double conductance = 1.0;
};

class Mna_system {
public:
    explicit Mna_system(const Circuit& circuit);

    /// Fill driven-node voltages for time t into the full voltage vector.
    void apply_driven(double t, std::vector<double>& voltages) const;

    /// Newton-solve the system at the given context.  `voltages` (full
    /// node-indexed vector) is both the initial guess and the result.
    /// Returns the iteration count; throws Convergence_error on failure.
    int solve(const Eval_context& ctx, std::vector<double>& voltages,
              const Newton_options& opts,
              std::span<const Forced_node> forces = {});

    /// Latch the capacitor bank's history at `ctx`, a DC solution or an
    /// accepted transient step (ctx.voltages: the accepted point).
    // lint:allow(raw-socket) -- a stepper callback, not the syscall
    void accept(const Eval_context& ctx);

    /// Union of breakpoints of all sources in (0, tstop), sorted unique.
    std::vector<double> breakpoints(double tstop) const;

    /// Cumulative solver work counters (never reset; diff snapshots).
    const Solver_counters& counters() const { return counters_; }

    /// Drop all cross-solve reuse state (stale factorization, device
    /// bypass records) and re-evaluate the static resistors at the next
    /// assembly.  Analyses call this once per run so a result is a
    /// function of that run's inputs alone — never of what a reused
    /// workspace solved before.  Load-bearing for MC and sweeps: element
    /// value edits (Resistor::set_resistance, Capacitor::set_capacitance)
    /// take effect here, and samples change element values without
    /// moving the voltages the staleness checks watch.
    void reset_reuse_state();

private:
    /// A bound stamp entry: a slab value and its fold target, or a drop.
    struct Op {
        std::int32_t value;   ///< slab index, -1 for a drop
        std::int32_t target;  ///< matrix slot, or nnz + RHS row
        Node driven;          ///< driven column: stores -x * v(driven)
    };

    void classify();
    void compile();
    void bind_elements();
    Op route(Node eq, Node wrt, bool rhs);
    void snapshot_capacitances();

    /// One Newton iteration's system: evaluate what may have changed,
    /// then fold.  `new_step`: first iteration of a solve (t, dt and
    /// history just moved).
    void load(const Eval_context& ctx, const std::vector<double>& voltages,
              const Newton_options& opts, bool new_step,
              std::span<const Forced_node> forces);
    struct Companion {
        double g;     ///< equivalent conductance [S]
        double hist;  ///< history current source [A]
    };
    Companion companion(std::size_t k, double dt, bool trap) const;
    void write_resistor(const Resistor& r, const Op* op,
                        const double* voltages);
    void evaluate_static_resistors(const double* voltages);
    void evaluate_driven_resistors(const double* voltages, bool bypass,
                                   double vtol);
    void evaluate_current_sources(const Eval_context& ctx);
    void evaluate_capacitors(const Eval_context& ctx);
    void zero_capacitors();
    void evaluate_mosfets(const double* voltages, bool bypass, double vtol);
    void write(const Op& op, double x, const double* voltages);
    void store(std::int32_t value, std::int32_t target, double v);
    void fold(const Eval_context& ctx, const std::vector<double>& voltages,
              const Newton_options& opts,
              std::span<const Forced_node> forces);
    double fold_target(std::int32_t target) const;

    int solve_direct(Eval_context ctx, std::vector<double>& voltages,
                     const Newton_options& opts,
                     std::span<const Forced_node> forces);
    int solve_reuse(Eval_context ctx, std::vector<double>& voltages,
                    const Newton_options& opts,
                    std::span<const Forced_node> forces);
    bool factor_stale(const Eval_context& ctx,
                      const std::vector<double>& voltages,
                      const Newton_options& opts) const;

    const Circuit* circuit_;
    std::vector<int> solve_index_;    ///< node -> unknown index or -1
    std::vector<Node> unknown_nodes_; ///< unknown index -> node

    struct Driven {
        Node node;
        const Voltage_source* source;
    };
    std::vector<Driven> driven_;

    struct Branch {
        const Voltage_source* source;
        int index;  ///< unknown index of the branch current
        /// Bound matrix slots of (pos, br), (br, pos), (neg, br),
        /// (br, neg); -1 where the terminal is not an unknown.
        int slots[4] = {-1, -1, -1, -1};
    };
    std::vector<Branch> branches_;

    std::size_t total_unknowns_ = 0;

    std::unique_ptr<Sparse_matrix> matrix_;
    std::unique_ptr<Sparse_lu> lu_;
    std::vector<double> rhs_;
    std::vector<double> solution_;
    std::vector<double> branch_currents_;

    // --- assembly (file comment above) ---------------------------------------
    // Target-major value slab: the values of target t, in insertion order,
    // are values_[fold_ptr_[t] .. fold_ptr_[t + 1]).
    std::vector<double> values_;
    std::vector<std::int32_t> fold_ptr_;
    static constexpr unsigned char dirty_flag = 1;
    static constexpr unsigned char gmin_flag = 2;  ///< node diagonal slot
    std::vector<unsigned char> target_flags_;
    /// Dirty targets in marking order, [0, dirty_count_); sized to the
    /// target count, since each target is marked at most once per fold.
    std::vector<std::int32_t> dirty_;
    std::size_t dirty_count_ = 0;
    std::vector<int> diag_slot_;  ///< node unknown -> diagonal slot

    // Resistors, four bound entries each: those without a driven column,
    // then those with one, which keep a drift record of their terminals
    // (a, b) and the voltages at the last recorded evaluation (NaN: none).
    std::vector<const Resistor*> static_res_;
    std::vector<Op> static_res_ops_;
    std::vector<const Resistor*> driven_res_;
    std::vector<Op> driven_res_ops_;
    std::vector<Node> driven_res_nodes_;
    std::vector<double> driven_res_v_eval_;

    // Current sources, two bound entries each: the `to` row, then `from`.
    std::vector<const Current_source*> isrc_;
    std::vector<Op> isrc_ops_;

    // Capacitor bank (file comment), one entry per capacitor, grounded
    // ones first: [0, grounded_caps_).
    std::vector<const Capacitor*> cap_device_;
    std::vector<Node> cap_a_;
    std::vector<Node> cap_b_;
    std::vector<double> cap_farads_;  ///< snapshot of reset_reuse_state()
    std::vector<double> cap_v_prev_;  ///< v(a) - v(b) at the last accept
    std::vector<double> cap_i_prev_;  ///< current a->b at the last accept
    /// Bound entries: two per grounded capacitor ((a, a) slot, a row),
    /// then six per other capacitor, in bank order.
    std::vector<Op> cap_ops_;
    std::size_t grounded_caps_ = 0;

    // MOSFET bank (file comment), one record per MOSFET in insertion
    // order.
    struct Mos_model {
        Mosfet_params params;
        double m;  ///< multiplicity
    };
    std::vector<Mos_model> mos_models_;    ///< distinct models
    std::vector<std::int32_t> mos_model_;  ///< per record, into mos_models_
    std::vector<Node> mos_nodes_;          ///< drain, gate, source
    std::vector<Op> mos_ops_;              ///< eight per record
    /// Terminal voltages at the last recorded evaluation (NaN = none),
    /// three per record.
    std::vector<double> mos_v_eval_;

    bool assembled_ = false;      ///< a full fold has happened
    bool assembled_dc_ = false;   ///< mode of the last assembly
    bool static_res_stale_ = true;
    bool had_forces_ = false;
    double folded_gmin_ = 0.0;

    // Factorization-reuse state (bypass tier).  The reuse validity
    // conditions live in factor_stale(); `v_at_factor_` is the full
    // node-indexed voltage vector at factor time.
    Solver_counters counters_;
    bool factored_ = false;
    Analysis_mode mode_at_factor_ = Analysis_mode::dc;
    Integration_method method_at_factor_ = Integration_method::backward_euler;
    double dt_at_factor_ = 0.0;
    double gmin_at_factor_ = 0.0;
    std::vector<double> v_at_factor_;

    std::vector<double> x_, residual_, delta_;
};

} // namespace mpsram::spice

#endif // MPSRAM_SPICE_SYSTEM_H
