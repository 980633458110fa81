#include "spice/system.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>

#include "spice/exceptions.h"
#include "util/check.h"
#include "util/contracts.h"

namespace mpsram::spice {

namespace {

// --- stamp tables -------------------------------------------------------------

/// One stamp entry of an element kind, as indices into the element's
/// terminals: the Jacobian entry (eq, wrt), or the RHS row of eq when wrt
/// is rhs_row.
struct Stamp_entry {
    std::int8_t eq;
    std::int8_t wrt;
};
constexpr std::int8_t rhs_row = -1;

/// (a, b): conductance g between a and b — +g on (a, a) and (b, b), -g
/// on (a, b) and (b, a).
constexpr Stamp_entry resistor_stamps[] = {{0, 0}, {1, 1}, {0, 1}, {1, 0}};
/// (a, b): the companion conductance, as a resistor's, then the history
/// source into a and out of b.
constexpr Stamp_entry capacitor_stamps[] = {
    {0, 0}, {1, 1}, {0, 1}, {1, 0}, {0, rhs_row}, {1, rhs_row},
};
/// (from, to): the current into `to`, then out of `from`.
constexpr Stamp_entry current_source_stamps[] = {{1, rhs_row},
                                                 {0, rhs_row}};
/// (drain, gate, source): gds, gm, gms on the drain row and their
/// negations on the source row, then the drain and source RHS rows.
constexpr Stamp_entry mosfet_stamps[] = {
    {0, 0}, {0, 1}, {0, 2}, {2, 0}, {2, 1}, {2, 2}, {0, rhs_row}, {2, rhs_row},
};

/// An element's terminals and the stamp entries of its kind.  Voltage
/// sources have none: the system handles them structurally.
struct Element_stamps {
    std::array<Node, 3> nodes{};
    std::span<const Stamp_entry> entries;
};

Element_stamps stamps_of(const Circuit& c, const Element& e)
{
    const auto i = static_cast<std::size_t>(e.index);
    switch (e.kind) {
    case Element_kind::resistor: {
        const Resistor& r = c.resistors()[i];
        return {{r.a(), r.b(), ground_node}, resistor_stamps};
    }
    case Element_kind::capacitor: {
        const Capacitor& cap = c.capacitors()[i];
        return {{cap.a(), cap.b(), ground_node}, capacitor_stamps};
    }
    case Element_kind::current_source: {
        const Current_source& src = c.current_sources()[i];
        return {{src.from(), src.to(), ground_node}, current_source_stamps};
    }
    case Element_kind::mosfet: {
        const Mosfet& m = c.mosfets()[i];
        return {{m.drain(), m.gate(), m.source()}, mosfet_stamps};
    }
    case Element_kind::voltage_source:
        break;
    }
    return {};
}

/// Bitwise equality of two MOSFET models: the bank shares one table entry
/// only between models that evaluate identically (+0.0 and -0.0 differ).
bool same_model(const Mosfet_params& a, double ma, const Mosfet_params& b,
                double mb)
{
    static_assert(sizeof(Mosfet_params) == 6 * sizeof(double),
                  "same_model must compare every Mosfet_params field");
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    return a.type == b.type && bits(a.vth) == bits(b.vth) &&
           bits(a.n) == bits(b.n) && bits(a.beta) == bits(b.beta) &&
           bits(a.lambda) == bits(b.lambda) && bits(a.v_t) == bits(b.v_t) &&
           bits(ma) == bits(mb);
}

/// Device-level bypass drift check: true when every terminal nodes[j]
/// stayed within vtol of v_eval[j], its voltage at the element's last
/// recorded evaluation (NaN: none).  Branch-free: no early exit.
bool quiet(const double* v, const Node* nodes, const double* v_eval,
           std::size_t count, double vtol)
{
    bool still = true;
    for (std::size_t j = 0; j < count; ++j) {
        still &= std::fabs(v[nodes[j]] - v_eval[j]) <= vtol;
    }
    return still;
}

/// After an evaluation: record its terminal voltages on the bypass tier,
/// forget them (NaN) otherwise.
void record(const double* v, const Node* nodes, double* v_eval,
            std::size_t count, bool bypass)
{
    for (std::size_t j = 0; j < count; ++j) {
        v_eval[j] = bypass ? v[nodes[j]]
                           : std::numeric_limits<double>::quiet_NaN();
    }
}

} // namespace

/// Store one stamp value into slab entry `value`, marking fold target
/// `target` dirty when the stored bits change.
inline void Mna_system::store(std::int32_t value, std::int32_t target,
                              double v)
{
    double& slot = values_[static_cast<std::size_t>(value)];
    if (std::bit_cast<std::uint64_t>(slot) ==
        std::bit_cast<std::uint64_t>(v)) {
        return;
    }
    slot = v;
    unsigned char& flags = target_flags_[static_cast<std::size_t>(target)];
    if (!(flags & dirty_flag)) {
        flags |= dirty_flag;
        dirty_[dirty_count_++] = target;
    }
}

/// Store stamp value x through bound entry `op` (nothing for a drop); a
/// driven column moves to the RHS as -x * v(column).
inline void Mna_system::write(const Op& op, double x, const double* voltages)
{
    if (op.value < 0) return;
    store(op.value, op.target,
          op.driven == ground_node ? x : -x * voltages[op.driven]);
}

// --- compile ------------------------------------------------------------------

Mna_system::Mna_system(const Circuit& circuit) : circuit_(&circuit)
{
    classify();
    compile();
}

void Mna_system::classify()
{
    const std::size_t n_nodes = circuit_->node_count();
    solve_index_.assign(n_nodes, -2);  // -2: unclassified
    solve_index_[ground_node] = -1;

    // Driven nodes from grounded sources.
    for (const Voltage_source& src : circuit_->voltage_sources()) {
        if (!src.grounded()) continue;
        const Node pos = src.pos();
        if (pos == ground_node) {
            throw Netlist_error("voltage source " + src.name() +
                                " shorts ground to ground");
        }
        if (solve_index_[static_cast<std::size_t>(pos)] == -1) {
            throw Netlist_error("node " + circuit_->node_name(pos) +
                                " driven by multiple voltage sources");
        }
        solve_index_[static_cast<std::size_t>(pos)] = -1;
        driven_.push_back({pos, &src});
    }

    // Remaining nodes become unknowns, in node order (which follows the
    // netlist build order and therefore the physical structure).
    for (std::size_t n = 0; n < n_nodes; ++n) {
        if (solve_index_[n] == -2) {
            solve_index_[n] = static_cast<int>(unknown_nodes_.size());
            unknown_nodes_.push_back(static_cast<Node>(n));
        }
    }

    // Floating sources get branch unknowns after the node unknowns.
    int next = static_cast<int>(unknown_nodes_.size());
    for (const Voltage_source& src : circuit_->voltage_sources()) {
        if (src.grounded()) continue;
        branches_.push_back({&src, next++});
    }

    total_unknowns_ =
        unknown_nodes_.size() + branches_.size();
    util::ensures(total_unknowns_ > 0, "circuit has no unknowns to solve");

    branch_currents_.assign(branches_.size(), 0.0);
}

void Mna_system::compile()
{
    // Pattern: every element's Jacobian entries, in insertion order, plus
    // the floating-source branch rows.
    {
        std::vector<std::pair<int, int>> entries;
        for (const Element& e : circuit_->elements()) {
            const Element_stamps s = stamps_of(*circuit_, e);
            for (const Stamp_entry& st : s.entries) {
                if (st.wrt == rhs_row) continue;
                const int row = solve_index_[static_cast<std::size_t>(
                    s.nodes[static_cast<std::size_t>(st.eq)])];
                const int col = solve_index_[static_cast<std::size_t>(
                    s.nodes[static_cast<std::size_t>(st.wrt)])];
                if (row >= 0 && col >= 0) entries.push_back({row, col});
            }
        }
        for (const Branch& b : branches_) {
            for (const Node n : {b.source->pos(), b.source->neg()}) {
                const int row = solve_index_[static_cast<std::size_t>(n)];
                if (row < 0) continue;
                entries.push_back({row, b.index});
                entries.push_back({b.index, row});
            }
        }
        matrix_ = std::make_unique<Sparse_matrix>(total_unknowns_, entries);
    }
    lu_ = std::make_unique<Sparse_lu>(*matrix_);
    rhs_.assign(total_unknowns_, 0.0);
    solution_.assign(total_unknowns_, 0.0);

    diag_slot_.resize(unknown_nodes_.size());
    for (std::size_t u = 0; u < unknown_nodes_.size(); ++u) {
        diag_slot_[u] =
            matrix_->slot(static_cast<int>(u), static_cast<int>(u));
    }
    for (Branch& b : branches_) {
        const int prow =
            solve_index_[static_cast<std::size_t>(b.source->pos())];
        const int nrow =
            solve_index_[static_cast<std::size_t>(b.source->neg())];
        if (prow >= 0) {
            b.slots[0] = matrix_->slot(prow, b.index);
            b.slots[1] = matrix_->slot(b.index, prow);
        }
        if (nrow >= 0) {
            b.slots[2] = matrix_->slot(nrow, b.index);
            b.slots[3] = matrix_->slot(b.index, nrow);
        }
    }

    bind_elements();
}

/// Route one stamp entry — Jacobian entry (eq, wrt), or the RHS row of eq
/// when `rhs` — and give a kept entry the next rank among its target's
/// entries (bind_elements turns ranks into slab indices).
Mna_system::Op Mna_system::route(Node eq, Node wrt, bool rhs)
{
    Op op{-1, -1, ground_node};
    const int row = solve_index_[static_cast<std::size_t>(eq)];
    if (row < 0) return op;  // ground or driven equation: dropped
    const auto rhs_target =
        static_cast<std::int32_t>(matrix_->nonzeros()) + row;
    if (rhs) {
        op.target = rhs_target;
    } else if (const int col = solve_index_[static_cast<std::size_t>(wrt)];
               col >= 0) {
        op.target = matrix_->slot(row, col);
    } else if (wrt == ground_node) {
        // -g * 0 would add a signed zero to a sum that starts at +0.0, an
        // exact identity.
        return op;
    } else {
        // Known voltage: -g * v(wrt) on the RHS.
        op.target = rhs_target;
        op.driven = wrt;
    }
    op.value = fold_ptr_[static_cast<std::size_t>(op.target) + 1]++;
    return op;
}

void Mna_system::bind_elements()
{
    const std::size_t targets = matrix_->nonzeros() + total_unknowns_;
    fold_ptr_.assign(targets + 1, 0);

    // Insertion order sets every target's fold order.  Capacitors that
    // are not grounded join the bank after the grounded ones.
    std::vector<const Capacitor*> other_caps;
    std::vector<Op> other_cap_ops;
    static_res_.reserve(circuit_->resistors().size());
    static_res_ops_.reserve(4 * circuit_->resistors().size());
    cap_device_.reserve(circuit_->capacitors().size());
    isrc_.reserve(circuit_->current_sources().size());
    isrc_ops_.reserve(2 * circuit_->current_sources().size());
    mos_model_.reserve(circuit_->mosfets().size());
    mos_nodes_.reserve(3 * circuit_->mosfets().size());
    mos_ops_.reserve(8 * circuit_->mosfets().size());
    for (const Element& e : circuit_->elements()) {
        const Element_stamps s = stamps_of(*circuit_, e);
        std::array<Op, std::size(mosfet_stamps)> ops{};
        for (std::size_t j = 0; j < s.entries.size(); ++j) {
            const Stamp_entry st = s.entries[j];
            const bool rhs = st.wrt == rhs_row;
            ops[j] = route(s.nodes[static_cast<std::size_t>(st.eq)],
                           rhs ? ground_node
                               : s.nodes[static_cast<std::size_t>(st.wrt)],
                           rhs);
        }
        const Op* op = ops.data();
        const auto i = static_cast<std::size_t>(e.index);
        switch (e.kind) {
        case Element_kind::resistor: {
            const Resistor* r = &circuit_->resistors()[i];
            if (std::any_of(op, op + 4, [](const Op& o) {
                    return o.driven != ground_node;
                })) {
                driven_res_.push_back(r);
                driven_res_ops_.insert(driven_res_ops_.end(), op, op + 4);
                driven_res_nodes_.insert(driven_res_nodes_.end(),
                                         {r->a(), r->b()});
            } else {
                static_res_.push_back(r);
                static_res_ops_.insert(static_res_ops_.end(), op, op + 4);
            }
            break;
        }
        case Element_kind::capacitor: {
            const Capacitor* cap = &circuit_->capacitors()[i];
            // Grounded: only the (a, a) slot and the a row are live.
            if (cap->b() == ground_node &&
                solve_index_[static_cast<std::size_t>(cap->a())] >= 0) {
                cap_device_.push_back(cap);
                cap_ops_.insert(cap_ops_.end(), {op[0], op[4]});
            } else {
                other_caps.push_back(cap);
                other_cap_ops.insert(other_cap_ops.end(), op, op + 6);
            }
            break;
        }
        case Element_kind::current_source:
            isrc_.push_back(&circuit_->current_sources()[i]);
            isrc_ops_.insert(isrc_ops_.end(), op, op + 2);
            break;
        case Element_kind::mosfet: {
            const Mosfet& mos = circuit_->mosfets()[i];
            const Mos_model model{mos.params(), mos.multiplicity()};
            auto it = std::find_if(
                mos_models_.begin(), mos_models_.end(),
                [&](const Mos_model& m) {
                    return same_model(m.params, m.m, model.params, model.m);
                });
            if (it == mos_models_.end()) it = mos_models_.insert(it, model);
            mos_model_.push_back(
                static_cast<std::int32_t>(it - mos_models_.begin()));
            mos_nodes_.insert(mos_nodes_.end(),
                              {mos.drain(), mos.gate(), mos.source()});
            mos_ops_.insert(mos_ops_.end(), op, op + 8);
            break;
        }
        case Element_kind::voltage_source:
            break;
        }
    }
    grounded_caps_ = cap_device_.size();
    cap_device_.insert(cap_device_.end(), other_caps.begin(),
                       other_caps.end());
    cap_ops_.insert(cap_ops_.end(), other_cap_ops.begin(),
                    other_cap_ops.end());
    cap_ops_.shrink_to_fit();

    // Slab layout: each target's entries follow its predecessors', so an
    // entry's slab index is its target's offset plus its rank.
    for (std::size_t t = 0; t < targets; ++t) {
        fold_ptr_[t + 1] += fold_ptr_[t];
    }
    for (auto* ops : {&static_res_ops_, &driven_res_ops_, &isrc_ops_,
                      &cap_ops_, &mos_ops_}) {
        for (Op& o : *ops) {
            if (o.value >= 0) {
                o.value += fold_ptr_[static_cast<std::size_t>(o.target)];
            }
        }
    }
    values_.assign(static_cast<std::size_t>(fold_ptr_.back()), 0.0);

    target_flags_.assign(targets, 0);
    for (const int s : diag_slot_) {
        target_flags_[static_cast<std::size_t>(s)] |= gmin_flag;
    }
    dirty_.assign(targets, 0);

    driven_res_v_eval_.assign(driven_res_nodes_.size(),
                              std::numeric_limits<double>::quiet_NaN());
    mos_v_eval_.assign(mos_nodes_.size(),
                       std::numeric_limits<double>::quiet_NaN());
    const std::size_t caps = cap_device_.size();
    cap_a_.resize(caps);
    cap_b_.resize(caps);
    for (std::size_t k = 0; k < caps; ++k) {
        cap_a_[k] = cap_device_[k]->a();
        cap_b_[k] = cap_device_[k]->b();
    }
    cap_farads_.assign(caps, 0.0);
    cap_v_prev_.assign(caps, 0.0);
    cap_i_prev_.assign(caps, 0.0);
    snapshot_capacitances();
}

void Mna_system::snapshot_capacitances()
{
    for (std::size_t k = 0; k < cap_device_.size(); ++k) {
        cap_farads_[k] = cap_device_[k]->capacitance();
    }
}

void Mna_system::apply_driven(double t, std::vector<double>& voltages) const
{
    util::expects(voltages.size() == circuit_->node_count(),
                  "voltage vector size mismatch");
    voltages[ground_node] = 0.0;
    for (const Driven& d : driven_) {
        voltages[static_cast<std::size_t>(d.node)] = d.source->value(t);
    }
}

// --- evaluation ---------------------------------------------------------------

/// Conductance 1/R between a and b, through the resistor's four entries.
void Mna_system::write_resistor(const Resistor& r, const Op* op,
                                const double* voltages)
{
    const double g = 1.0 / r.resistance();
    MPSRAM_ASSERT(std::isfinite(g), "non-finite Jacobian stamp",
                  MPSRAM_VAL(g), MPSRAM_VAL(r.a()), MPSRAM_VAL(r.b()));
    write(op[0], g, voltages);
    write(op[1], g, voltages);
    write(op[2], -g, voltages);
    write(op[3], -g, voltages);
}

void Mna_system::evaluate_static_resistors(const double* voltages)
{
    for (std::size_t k = 0; k < static_res_.size(); ++k) {
        write_resistor(*static_res_[k], &static_res_ops_[4 * k], voltages);
    }
}

void Mna_system::evaluate_driven_resistors(const double* voltages,
                                           bool bypass, double vtol)
{
    for (std::size_t k = 0; k < driven_res_.size(); ++k) {
        const Node* nodes = &driven_res_nodes_[2 * k];
        double* v_eval = &driven_res_v_eval_[2 * k];
        if (bypass && quiet(voltages, nodes, v_eval, 2, vtol)) continue;
        write_resistor(*driven_res_[k], &driven_res_ops_[4 * k], voltages);
        record(voltages, nodes, v_eval, 2, bypass);
    }
}

void Mna_system::evaluate_current_sources(const Eval_context& ctx)
{
    for (std::size_t k = 0; k < isrc_.size(); ++k) {
        const double i = isrc_[k]->value(ctx.time);
        MPSRAM_ASSERT(std::isfinite(i), "non-finite RHS stamp",
                      MPSRAM_VAL(i), MPSRAM_VAL(isrc_[k]->to()));
        const Op* op = &isrc_ops_[2 * k];
        write(op[0], i, ctx.voltages);
        write(op[1], -i, ctx.voltages);
    }
}

/// Companion model of capacitor k at step dt: the branch current a->b at
/// the new point is i = g * v - hist, with g = C/dt and hist = g * v_prev
/// under BE, g = 2C/dt and hist = g * v_prev + i_prev under TRAP.
inline Mna_system::Companion Mna_system::companion(std::size_t k, double dt,
                                                   bool trap) const
{
    const double g = trap ? 2.0 * cap_farads_[k] / dt : cap_farads_[k] / dt;
    double hist = g * cap_v_prev_[k];
    if (trap) hist += cap_i_prev_[k];
    return {g, hist};
}

/// Companion stamps of every capacitor at `ctx`: conductance g between a
/// and b, and an equivalent source pushing hist into a (and out of b).
void Mna_system::evaluate_capacitors(const Eval_context& ctx)
{
    util::expects(ctx.dt > 0.0, "companion model needs a positive step");
    const bool trap = ctx.method == Integration_method::trapezoidal;
    const std::size_t count = cap_device_.size();
    for (std::size_t k = 0; k < grounded_caps_; ++k) {
        const Companion c = companion(k, ctx.dt, trap);
        MPSRAM_ASSERT(std::isfinite(c.hist), "non-finite capacitor history",
                      MPSRAM_VAL(k), MPSRAM_VAL(c.hist));
        const Op* op = &cap_ops_[2 * k];
        store(op[0].value, op[0].target, c.g);
        store(op[1].value, op[1].target, c.hist);
    }
    const Op* op = cap_ops_.data() + 2 * grounded_caps_;
    for (std::size_t k = grounded_caps_; k < count; ++k, op += 6) {
        const Companion c = companion(k, ctx.dt, trap);
        MPSRAM_ASSERT(std::isfinite(c.hist), "non-finite capacitor history",
                      MPSRAM_VAL(k), MPSRAM_VAL(c.hist));
        const double stamp[6] = {c.g, c.g, -c.g, -c.g, c.hist, -c.hist};
        for (int j = 0; j < 6; ++j) write(op[j], stamp[j], ctx.voltages);
    }
    counters_.device_evaluations += static_cast<long long>(count);
}

void Mna_system::zero_capacitors()
{
    for (const Op& op : cap_ops_) {
        if (op.value >= 0) store(op.value, op.target, 0.0);
    }
}

/// One assembly: evaluate what may have changed, then fold.
void Mna_system::load(const Eval_context& ctx,
                      const std::vector<double>& voltages,
                      const Newton_options& opts, bool new_step,
                      std::span<const Forced_node> forces)
{
    const double* v = voltages.data();
    const bool dc = ctx.mode == Analysis_mode::dc;
    // Entering DC: the capacitors are open.
    if (dc && (!assembled_ || !assembled_dc_)) zero_capacitors();
    assembled_dc_ = dc;

    if (static_res_stale_) {
        evaluate_static_resistors(v);
        static_res_stale_ = false;
    }
    if (new_step) {
        evaluate_current_sources(ctx);
        if (!dc) evaluate_capacitors(ctx);
    }

    // Driven-column resistors and the MOSFET bank.  On the bypass tier an
    // element whose terminals — driven ones included — all stayed within
    // device_bypass_vtol of its last recorded evaluation keeps its values;
    // the direct tier (and vtol <= 0) re-evaluates every iteration and
    // records nothing.
    const double vtol = opts.device_bypass_vtol;
    const bool bypass = opts.solver == Solver_policy::bypass && vtol > 0.0;
    evaluate_driven_resistors(v, bypass, vtol);
    evaluate_mosfets(v, bypass, vtol);

    fold(ctx, voltages, opts, forces);
}

/// The MOSFET bank's iteration: the drift check, then the EKV model and
/// the Newton companion of every record that moved.
void Mna_system::evaluate_mosfets(const double* voltages, bool bypass,
                                  double vtol)
{
    for (std::size_t k = 0; k < mos_model_.size(); ++k) {
        const Node* nodes = &mos_nodes_[3 * k];
        double* v_eval = &mos_v_eval_[3 * k];
        if (bypass && quiet(voltages, nodes, v_eval, 3, vtol)) continue;
        const Mos_model& model =
            mos_models_[static_cast<std::size_t>(mos_model_[k])];
        const double vd = voltages[nodes[0]];
        const double vg = voltages[nodes[1]];
        const double vs = voltages[nodes[2]];
        const Mosfet_eval e = evaluate_mosfet(model.params, vd, vg, vs,
                                              model.m);
        // Newton companion: ids(v) ~ ids0 + gds*dvd + gm*dvg + gms*dvs.
        // ids flows d -> s inside the device, i.e. leaves node d and
        // enters node s.
        const double i_const = e.ids - (e.gds * vd + e.gm * vg + e.gms * vs);
        const double stamp[8] = {e.gds,  e.gm,  e.gms,     -e.gds,
                                 -e.gm,  -e.gms, -i_const, i_const};
        const Op* op = &mos_ops_[8 * k];
        for (int j = 0; j < 8; ++j) {
            // A NaN-poisoned stamp caught here names the MOSFET;
            // downstream it would surface as an unrelated
            // Convergence_error (NaN never satisfies the pivot floor or
            // the tolerance test) long after the cause.
            MPSRAM_ASSERT(std::isfinite(stamp[j]),
                          j < 6 ? "non-finite Jacobian stamp"
                                : "non-finite RHS stamp",
                          MPSRAM_VAL(stamp[j]), MPSRAM_VAL(k));
            write(op[j], stamp[j], voltages);
        }
        ++counters_.device_evaluations;
        record(voltages, nodes, v_eval, 3, bypass);
    }
}

double Mna_system::fold_target(std::int32_t target) const
{
    const auto t = static_cast<std::size_t>(target);
    double acc = 0.0;
    for (std::int32_t k = fold_ptr_[t]; k < fold_ptr_[t + 1]; ++k) {
        acc += values_[static_cast<std::size_t>(k)];
    }
    return acc;
}

/// Re-sum the dirty targets (or all of them), then the voltage-
/// independent tail: gmin, initial-condition forcing, and the
/// floating-source branch equations, in that order per entry.
void Mna_system::fold(const Eval_context& ctx,
                      const std::vector<double>& voltages,
                      const Newton_options& opts,
                      std::span<const Forced_node> forces)
{
    double* a = matrix_->value_data();
    const auto nnz = static_cast<std::int32_t>(matrix_->nonzeros());
    const auto store = [&](std::int32_t t) {
        double acc = fold_target(t);
        const auto ut = static_cast<std::size_t>(t);
        if (t < nnz) {
            if (target_flags_[ut] & gmin_flag) acc += opts.gmin;
            a[ut] = acc;
        } else {
            rhs_[static_cast<std::size_t>(t - nnz)] = acc;
        }
        target_flags_[ut] &= static_cast<unsigned char>(~dirty_flag);
    };

    const bool full = !assembled_ || opts.gmin != folded_gmin_ ||
                      !forces.empty() || had_forces_;
    if (full) {
        const auto targets = static_cast<std::int32_t>(target_flags_.size());
        for (std::int32_t t = 0; t < targets; ++t) store(t);
        for (const Forced_node& f : forces) {
            const int row = solve_index_[static_cast<std::size_t>(f.node)];
            if (row < 0) continue;
            a[diag_slot_[static_cast<std::size_t>(row)]] += f.conductance;
            rhs_[static_cast<std::size_t>(row)] += f.conductance * f.voltage;
        }
        // KCL columns: branch current flows into pos, out of neg.
        constexpr double branch_signs[4] = {-1.0, 1.0, 1.0, -1.0};
        for (const Branch& b : branches_) {
            for (int k = 0; k < 4; ++k) {
                if (b.slots[k] >= 0) a[b.slots[k]] += branch_signs[k];
            }
        }
    } else {
        for (std::size_t k = 0; k < dirty_count_; ++k) store(dirty_[k]);
    }
    dirty_count_ = 0;

    // Floating-source branch equations: v(pos) - v(neg) = value(t), with
    // known terminal voltages moved to the RHS.
    for (const Branch& b : branches_) {
        const Node pos = b.source->pos();
        const Node neg = b.source->neg();
        double v_rhs = b.source->value(ctx.time);
        if (b.slots[0] < 0) v_rhs -= voltages[static_cast<std::size_t>(pos)];
        if (b.slots[2] < 0) v_rhs += voltages[static_cast<std::size_t>(neg)];
        rhs_[static_cast<std::size_t>(b.index)] = 0.0 + v_rhs;
    }

    assembled_ = true;
    folded_gmin_ = opts.gmin;
    had_forces_ = !forces.empty();
}

int Mna_system::solve(const Eval_context& ctx_in,
                      std::vector<double>& voltages,
                      const Newton_options& opts,
                      std::span<const Forced_node> forces)
{
    util::expects(voltages.size() == circuit_->node_count(),
                  "voltage vector size mismatch");

    Eval_context ctx = ctx_in;
    apply_driven(ctx.time, voltages);

    if (opts.solver == Solver_policy::direct) {
        return solve_direct(ctx, voltages, opts, forces);
    }
    return solve_reuse(ctx, voltages, opts, forces);
}

int Mna_system::solve_direct(Eval_context ctx, std::vector<double>& voltages,
                             const Newton_options& opts,
                             std::span<const Forced_node> forces)
{
    // The reference path: every operation here predates the solver tiers
    // and must stay bitwise identical to them.  Direct factors leave no
    // reusable state (no operating point is recorded for them).
    factored_ = false;

    const int max_iter = opts.max_iterations;

    for (int iter = 1; iter <= max_iter; ++iter) {
        ctx.voltages = voltages.data();
        load(ctx, voltages, opts, iter == 1, forces);

        lu_->factor(*matrix_, opts.pivot_floor);
        ++counters_.lu_factorizations;
        ++counters_.newton_iterations;
        solution_ = rhs_;
        lu_->solve(solution_);
        // NaN/Inf in the update vector would pass the tolerance test
        // below (every comparison with NaN is false) and be accepted as
        // "converged" — the solver-vector guard closes that hole.
        MPSRAM_ASSERT(util::all_finite(solution_),
                      "non-finite direct Newton update",
                      MPSRAM_VAL(ctx.time), MPSRAM_VAL(iter));

        // Damped update + convergence check.
        bool converged = true;
        for (std::size_t u = 0; u < unknown_nodes_.size(); ++u) {
            const auto node = static_cast<std::size_t>(unknown_nodes_[u]);
            double dv = solution_[u] - voltages[node];
            if (dv > opts.vstep_limit) dv = opts.vstep_limit;
            if (dv < -opts.vstep_limit) dv = -opts.vstep_limit;
            voltages[node] += dv;
            const double tol =
                opts.abstol + opts.reltol * std::fabs(voltages[node]);
            if (std::fabs(dv) > tol) converged = false;
        }
        for (std::size_t b = 0; b < branches_.size(); ++b) {
            branch_currents_[b] =
                solution_[unknown_nodes_.size() + b];
        }

        if (converged && iter > 1) return iter;
    }

    throw Convergence_error(
        "Newton did not converge in " + std::to_string(max_iter) +
        " iterations (t = " + std::to_string(ctx.time) + " s)");
}

bool Mna_system::factor_stale(const Eval_context& ctx,
                              const std::vector<double>& voltages,
                              const Newton_options& opts) const
{
    if (!factored_) return true;
    if (mode_at_factor_ != ctx.mode || method_at_factor_ != ctx.method) {
        return true;
    }
    if (gmin_at_factor_ != opts.gmin) return true;
    if (ctx.mode == Analysis_mode::transient) {
        if (dt_at_factor_ <= 0.0 || ctx.dt <= 0.0) return true;
        const double ratio = ctx.dt / dt_at_factor_;
        if (ratio > opts.bypass_dt_band ||
            ratio * opts.bypass_dt_band < 1.0) {
            return true;
        }
    } else if (ctx.dt != dt_at_factor_) {
        return true;
    }
    // Drift over the FULL node vector: driven nodes are not unknowns, but
    // a moving word line changes every linearization it gates.
    for (std::size_t n = 0; n < voltages.size(); ++n) {
        if (std::fabs(voltages[n] - v_at_factor_[n]) > opts.bypass_vtol) {
            return true;
        }
    }
    return false;
}

int Mna_system::solve_reuse(Eval_context ctx, std::vector<double>& voltages,
                            const Newton_options& opts,
                            std::span<const Forced_node> forces)
{
    // Delta-residual (chord) Newton.  The Jacobian and linearization RHS
    // are assembled every iteration — with quiet nonlinear devices keeping
    // their last stamp values (load) — and only the linear
    // solve runs on a possibly stale factorization:
    //
    //     r = rhs - J x      (assembled J and rhs, SpMV)
    //     LU delta = r       (LU possibly stale)
    //     x += clamp(delta)
    //
    // The fixed point satisfies r = 0 for the assembled system, so a
    // stale LU only slows convergence — it cannot change the answer.  This
    // is what makes bypass safe for the nonlinear MOSFET stamps, where
    // pairing a stale factorization with a fresh absolute RHS would
    // converge to the wrong point.  Device-level bypass does perturb the
    // fixed point, by at most g * device_bypass_vtol per quiet device;
    // the 0.5% agreement gate holds that end to end.
    const int max_iter = opts.max_iterations;
    const std::size_t n_node = unknown_nodes_.size();

    // Set when the loop converged under a stale operator: the next
    // iteration refreshes and recomputes a TRUE Newton step, so the
    // accepted point passes the same fresh-Jacobian tolerance test as
    // the direct tier (a small chord step under a slowly contracting
    // stale LU does not bound the true step).
    bool confirm = false;
    // Consecutive iterations served by the current factorization in this
    // solve: the stall trigger refreshes a factor that has worked this
    // long without converging, rather than abandoning reuse wholesale.
    int stale_iters = 0;

    for (int iter = 1; iter <= max_iter; ++iter) {
        ctx.voltages = voltages.data();
        load(ctx, voltages, opts, iter == 1, forces);
        ++counters_.newton_iterations;

        const bool refresh = !forces.empty() || confirm ||
                             stale_iters >= opts.bypass_stall_iters ||
                             factor_stale(ctx, voltages, opts);
        if (refresh) {
            lu_->factor(*matrix_, opts.pivot_floor);
            ++counters_.lu_factorizations;
            mode_at_factor_ = ctx.mode;
            method_at_factor_ = ctx.method;
            dt_at_factor_ = ctx.dt;
            gmin_at_factor_ = opts.gmin;
            v_at_factor_ = voltages;
            // Factors taken with forcing stamps in the matrix are never
            // valid for an unforced solve.
            factored_ = forces.empty();
            stale_iters = 0;
        } else {
            ++counters_.bypass_hits;
            ++stale_iters;
        }

        x_.resize(total_unknowns_);
        for (std::size_t u = 0; u < n_node; ++u) {
            x_[u] = voltages[static_cast<std::size_t>(unknown_nodes_[u])];
        }
        for (std::size_t b = 0; b < branches_.size(); ++b) {
            x_[n_node + b] = branch_currents_[b];
        }
        matrix_->residual(rhs_, x_, residual_);

        delta_ = residual_;
        lu_->solve(delta_);
        // The residual is assembled fresh each iteration, so a poisoned
        // delta means either a poisoned stamp slipped through or the
        // stale factorization produced garbage.
        MPSRAM_ASSERT(util::all_finite(delta_),
                      "non-finite reuse-tier Newton delta",
                      MPSRAM_VAL(ctx.time), MPSRAM_VAL(iter));

        bool converged = true;
        for (std::size_t u = 0; u < n_node; ++u) {
            const auto node = static_cast<std::size_t>(unknown_nodes_[u]);
            double dv = delta_[u];
            if (dv > opts.vstep_limit) dv = opts.vstep_limit;
            if (dv < -opts.vstep_limit) dv = -opts.vstep_limit;
            voltages[node] += dv;
            const double tol =
                opts.abstol + opts.reltol * std::fabs(voltages[node]);
            if (std::fabs(dv) > tol) converged = false;
        }
        for (std::size_t b = 0; b < branches_.size(); ++b) {
            branch_currents_[b] += delta_[n_node + b];
        }

        // Acceptance: the final sub-tolerance step must be measured
        // against an operator that is current for the accepted point —
        // either refreshed this iteration, or still inside the
        // (dt-exact, bypass_vtol) staleness envelope of the final
        // iterate.  That criterion is meaningful from iteration 1 on
        // (unlike the direct path's two-iteration minimum, which guards
        // an absolute-RHS solve, a sub-tolerance DELTA against a current
        // operator is already a converged Newton test — quiet waveform
        // stretches accept in one cache-replay iteration).  A solve that
        // converged outside the envelope gets one confirmation iteration
        // on a fresh factorization instead; device bypass keeps that
        // cheap, since every nonlinear device is quiet after a
        // sub-tolerance update.
        if (converged) {
            if (refresh || !factor_stale(ctx, voltages, opts)) {
                // Stale-LU acceptance contract: an accepted point was
                // measured against a current operator — refreshed this
                // iteration or still inside the (dt-band, bypass_vtol)
                // envelope of the final iterate.  `factored_` may only be
                // down when this solve carried forcing stamps, whose
                // factors are deliberately never kept.
                MPSRAM_ASSERT(factored_ || !forces.empty(),
                              "reuse-tier solve accepted without a live "
                              "factorization",
                              MPSRAM_VAL(ctx.time), MPSRAM_VAL(iter));
                return iter;
            }
            confirm = true;
        }
    }

    // A failed step is about to be rejected and retried smaller — do not
    // let its factorization leak into the retry.
    factored_ = false;
    throw Convergence_error(
        "Newton did not converge in " + std::to_string(max_iter) +
        " iterations (t = " + std::to_string(ctx.time) + " s)");
}

void Mna_system::reset_reuse_state()
{
    factored_ = false;
    static_res_stale_ = true;
    std::fill(driven_res_v_eval_.begin(), driven_res_v_eval_.end(),
              std::numeric_limits<double>::quiet_NaN());
    std::fill(mos_v_eval_.begin(), mos_v_eval_.end(),
              std::numeric_limits<double>::quiet_NaN());
    snapshot_capacitances();
}

void Mna_system::accept(const Eval_context& ctx)
{
    const double* v = ctx.voltages;
    const std::size_t count = cap_device_.size();
    if (ctx.mode == Analysis_mode::dc) {
        for (std::size_t k = 0; k < count; ++k) {
            cap_v_prev_[k] = v[cap_a_[k]] - v[cap_b_[k]];
            cap_i_prev_[k] = 0.0;
        }
        return;
    }
    util::expects(ctx.dt > 0.0, "companion model needs a positive step");
    const bool trap = ctx.method == Integration_method::trapezoidal;
    for (std::size_t k = 0; k < count; ++k) {
        const Companion c = companion(k, ctx.dt, trap);
        const double v_now = v[cap_a_[k]] - v[cap_b_[k]];
        cap_i_prev_[k] = c.g * v_now - c.hist;
        cap_v_prev_[k] = v_now;
    }
}

std::vector<double> Mna_system::breakpoints(double tstop) const
{
    std::vector<double> out;
    for (const Voltage_source& src : circuit_->voltage_sources()) {
        src.wave().breakpoints(tstop, out);
    }
    for (const Current_source& src : circuit_->current_sources()) {
        src.wave().breakpoints(tstop, out);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end(),
                          [](double a, double b) {
                              return std::fabs(a - b) < 1e-18;
                          }),
              out.end());
    return out;
}

} // namespace mpsram::spice
