#include "spice/system.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "spice/exceptions.h"
#include "util/check.h"
#include "util/contracts.h"

namespace mpsram::spice {

// --- binding ----------------------------------------------------------------

/// Compile-time recorder.  Pattern pass: collects the (row, col) matrix
/// positions devices touch.  Bind pass: appends one op per stamp call.
/// Verify pass (DC): checks that a device's DC calls route exactly like
/// its bound (transient) ops, and counts them.
class Mna_system::Binder final : public Stamper {
public:
    enum class Pass { pattern, bind, verify };

    Binder(Mna_system& sys, Pass pass) : sys_(&sys), pass_(pass) {}

    std::vector<std::pair<int, int>> entries;  ///< pattern pass output

    /// Start a device whose bound ops begin at `op` (verify pass).
    void begin(std::int32_t op, std::int32_t end)
    {
        op_ = op;
        end_ = end;
        calls_ = 0;
        matches_ = true;
    }
    std::int32_t calls() const { return calls_; }
    bool matches() const { return matches_; }

    void jacobian(Node eq, Node wrt, double) override
    {
        switch (pass_) {
        case Pass::pattern: {
            const int row = sys_->solve_index_[static_cast<std::size_t>(eq)];
            const int col =
                sys_->solve_index_[static_cast<std::size_t>(wrt)];
            if (row >= 0 && col >= 0) entries.push_back({row, col});
            break;
        }
        case Pass::bind:
            sys_->ops_.push_back(sys_->bind_jacobian(eq, wrt));
            break;
        case Pass::verify:
            verify(sys_->is_bound_jacobian(next(), eq, wrt));
            break;
        }
    }

    void rhs(Node eq, double) override
    {
        switch (pass_) {
        case Pass::pattern:
            break;
        case Pass::bind:
            sys_->ops_.push_back(sys_->bind_rhs(eq));
            break;
        case Pass::verify:
            verify(sys_->is_bound_rhs(next(), eq));
            break;
        }
    }

private:
    /// Verify pass: the bound op this call should match (drop past the
    /// device's end, which fails the count check instead).
    std::int32_t next()
    {
        ++calls_;
        return op_ < end_ ? sys_->ops_[static_cast<std::size_t>(op_++)]
                          : drop_op;
    }
    void verify(bool bound) { matches_ = matches_ && bound; }

    Mna_system* sys_;
    Pass pass_;
    std::int32_t op_ = 0;
    std::int32_t end_ = 0;
    std::int32_t calls_ = 0;
    bool matches_ = true;
};

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
        dirty_.push_back(target);
    }
}

/// Runtime stamper: replays a device's bound ops, storing each stamp
/// value into its slab entry.  Virtual for Device::stamp; the MOSFET bank
/// calls it through its final type, without dispatch.
class Mna_system::Value_writer final : public Stamper {
public:
    Value_writer(Mna_system& sys, const double* voltages)
        : sys_(&sys),
          ops_(sys.ops_.data()),
          op_value_(sys.op_value_.data()),
          voltages_(voltages)
    {
    }

    /// Start replaying the bound ops of `device`.
    void begin(std::int32_t device)
    {
        const auto d = static_cast<std::size_t>(device);
        op_ = sys_->device_op_[d];
        end_ = sys_->device_op_[d + 1];
    }
    /// True once every bound op of the device has been replayed.
    bool done() const { return op_ == end_; }

    void jacobian(Node eq, Node wrt, double g) final
    {
        // A NaN-poisoned stamp caught here names the exact (eq, wrt)
        // entry; downstream it would surface as an unrelated
        // Convergence_error (NaN never satisfies the pivot floor or the
        // tolerance test) long after the cause.
        MPSRAM_ASSERT(std::isfinite(g), "non-finite Jacobian stamp",
                      MPSRAM_VAL(g), MPSRAM_VAL(eq), MPSRAM_VAL(wrt));
        MPSRAM_ASSERT(op_ < end_ &&
                          sys_->is_bound_jacobian(ops_[op_], eq, wrt),
                      "stamp call does not match its bound op",
                      MPSRAM_VAL(eq), MPSRAM_VAL(wrt), MPSRAM_VAL(op_));
        const std::int32_t value = op_value_[op_];
        const std::int32_t op = ops_[op_++];
        if (op >= 0) {
            sys_->store(value, op, g);
        } else if (op != drop_op) {
            // Known voltage: move to the RHS.
            const Driven_op& d =
                sys_->driven_ops_[static_cast<std::size_t>(-2 - op)];
            sys_->store(value, d.target, -g * voltages_[d.node]);
        }
    }

    void rhs(Node eq, double value) final
    {
        MPSRAM_ASSERT(std::isfinite(value), "non-finite RHS stamp",
                      MPSRAM_VAL(value), MPSRAM_VAL(eq));
        MPSRAM_ASSERT(op_ < end_ && sys_->is_bound_rhs(ops_[op_], eq),
                      "stamp call does not match its bound op",
                      MPSRAM_VAL(eq), MPSRAM_VAL(op_));
        const std::int32_t op = ops_[op_];
        if (op >= 0) sys_->store(op_value_[op_], op, value);
        ++op_;
    }

    /// Store +0.0 into every value of `device` (open in this mode).
    void zero(std::int32_t device)
    {
        for (begin(device); op_ < end_; ++op_) {
            const std::int32_t op = ops_[op_];
            if (op != drop_op) {
                sys_->store(op_value_[op_], sys_->target_of(op), 0.0);
            }
        }
    }

private:
    Mna_system* sys_;
    const std::int32_t* ops_;
    const std::int32_t* op_value_;
    const double* voltages_;
    std::int32_t op_ = 0;
    std::int32_t end_ = 0;
};

// --- Mna_system ---------------------------------------------------------------

Mna_system::Mna_system(Circuit& circuit) : circuit_(&circuit)
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
    for (const Voltage_source* src : circuit_->voltage_sources()) {
        if (!src->grounded()) continue;
        const Node pos = src->pos();
        if (pos == ground_node) {
            throw Netlist_error("voltage source " + src->name() +
                                " shorts ground to ground");
        }
        if (solve_index_[static_cast<std::size_t>(pos)] == -1) {
            throw Netlist_error("node " + circuit_->node_name(pos) +
                                " driven by multiple voltage sources");
        }
        solve_index_[static_cast<std::size_t>(pos)] = -1;
        driven_.push_back({pos, src});
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
    for (const Voltage_source* src : circuit_->voltage_sources()) {
        if (src->grounded()) continue;
        branches_.push_back({src, next++});
    }

    total_unknowns_ =
        unknown_nodes_.size() + branches_.size();
    util::ensures(total_unknowns_ > 0, "circuit has no unknowns to solve");

    nonlinear_ = std::any_of(
        circuit_->devices().begin(), circuit_->devices().end(),
        [](const auto& d) { return d->is_nonlinear(); });

    branch_currents_.assign(branches_.size(), 0.0);
}

namespace {

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
/// stayed within vtol of v_eval[j], its voltage at the device's last
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

/// Binding context: stamps only need the call sequence, so voltages are
/// zero and the step is any positive value.
Eval_context binding_context(Analysis_mode mode,
                             const std::vector<double>& zeros)
{
    Eval_context ctx;
    ctx.mode = mode;
    ctx.method = Integration_method::backward_euler;
    ctx.time = 0.0;
    ctx.dt = mode == Analysis_mode::transient ? 1.0 : 0.0;
    ctx.voltages = zeros.data();
    return ctx;
}

/// Stamp `dev` against a binding pass.  A capacitor's stamp() is a no-op
/// (the bank evaluates it), so its six calls are issued here: conductance
/// g between a and b in Stamper::conductance order, then the history
/// source into a and out of b.
void bind_stamp(const Device& dev, Stamper& s, const Eval_context& ctx)
{
    if (dynamic_cast<const Capacitor*>(&dev) == nullptr) {
        dev.stamp(s, ctx);
        return;
    }
    const Node a = dev.nodes()[0];
    const Node b = dev.nodes()[1];
    s.conductance(a, b, 0.0);
    s.rhs(a, 0.0);
    s.rhs(b, 0.0);
}

} // namespace

void Mna_system::compile()
{
    const std::vector<double> zeros(circuit_->node_count(), 0.0);
    const Eval_context tran =
        binding_context(Analysis_mode::transient, zeros);

    // Pattern: device entries plus the floating-source branch rows.
    {
        Binder pattern(*this, Binder::Pass::pattern);
        for (const auto& dev : circuit_->devices()) {
            bind_stamp(*dev, pattern, tran);
        }
        for (const Branch& b : branches_) {
            for (const Node n : {b.source->pos(), b.source->neg()}) {
                const int row = solve_index_[static_cast<std::size_t>(n)];
                if (row < 0) continue;
                pattern.entries.push_back({row, b.index});
                pattern.entries.push_back({b.index, row});
            }
        }
        matrix_ = std::make_unique<Sparse_matrix>(total_unknowns_,
                                                  pattern.entries);
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

    bind_ops();
    build_fold_index();
    schedule();
    bind_capacitors();
    bind_mosfets();
}

std::int32_t Mna_system::bind_jacobian(Node eq, Node wrt)
{
    const int row = solve_index_[static_cast<std::size_t>(eq)];
    const int col = solve_index_[static_cast<std::size_t>(wrt)];
    // Ground or driven equation: dropped.  Ground column: -g * 0 would add
    // a signed zero to a sum that starts at +0.0, an exact identity.
    if (row < 0 || (col < 0 && wrt == ground_node)) return drop_op;
    if (col >= 0) return matrix_->slot(row, col);
    driven_ops_.push_back(
        {static_cast<std::int32_t>(matrix_->nonzeros()) + row, wrt});
    return -1 - static_cast<std::int32_t>(driven_ops_.size());
}

std::int32_t Mna_system::bind_rhs(Node eq) const
{
    const int row = solve_index_[static_cast<std::size_t>(eq)];
    if (row < 0) return drop_op;
    return static_cast<std::int32_t>(matrix_->nonzeros()) + row;
}

bool Mna_system::is_bound_jacobian(std::int32_t op, Node eq, Node wrt) const
{
    const int row = solve_index_[static_cast<std::size_t>(eq)];
    const int col = solve_index_[static_cast<std::size_t>(wrt)];
    if (row < 0 || (col < 0 && wrt == ground_node)) return op == drop_op;
    if (col >= 0) {
        const auto r = static_cast<std::size_t>(row);
        return op >= matrix_->row_ptr()[r] &&
               op < matrix_->row_ptr()[r + 1] &&
               matrix_->cols()[static_cast<std::size_t>(op)] == col;
    }
    if (op >= drop_op) return false;
    const Driven_op& d = driven_ops_[static_cast<std::size_t>(-2 - op)];
    return d.node == wrt &&
           d.target == static_cast<std::int32_t>(matrix_->nonzeros()) + row;
}

bool Mna_system::is_bound_rhs(std::int32_t op, Node eq) const
{
    return op == bind_rhs(eq);
}

std::int32_t Mna_system::target_of(std::int32_t op) const
{
    if (op >= drop_op) return op;
    return driven_ops_[static_cast<std::size_t>(-2 - op)].target;
}

void Mna_system::bind_ops()
{
    const auto& devices = circuit_->devices();
    const std::vector<double> zeros(circuit_->node_count(), 0.0);
    const Eval_context tran =
        binding_context(Analysis_mode::transient, zeros);

    Binder binder(*this, Binder::Pass::bind);
    device_op_.assign(devices.size() + 1, 0);
    for (std::size_t i = 0; i < devices.size(); ++i) {
        bind_stamp(*devices[i], binder, tran);
        device_op_[i + 1] = static_cast<std::int32_t>(ops_.size());
    }
    ops_.shrink_to_fit();
    driven_ops_.shrink_to_fit();
}

void Mna_system::build_fold_index()
{
    // Counting sort of the non-drop ops by target: ops are laid out in
    // device order, so each target's run of the slab comes out in device
    // order.
    const std::size_t targets = matrix_->nonzeros() + total_unknowns_;
    fold_ptr_.assign(targets + 1, 0);
    for (const std::int32_t op : ops_) {
        if (op == drop_op) continue;
        ++fold_ptr_[static_cast<std::size_t>(target_of(op)) + 1];
    }
    for (std::size_t t = 0; t < targets; ++t) {
        fold_ptr_[t + 1] += fold_ptr_[t];
    }
    std::vector<std::int32_t> fill(fold_ptr_.begin(), fold_ptr_.end() - 1);
    op_value_.resize(ops_.size());
    for (std::size_t k = 0; k < ops_.size(); ++k) {
        op_value_[k] =
            ops_[k] == drop_op
                ? -1
                : fill[static_cast<std::size_t>(target_of(ops_[k]))]++;
    }
    values_.assign(static_cast<std::size_t>(fold_ptr_.back()), 0.0);

    target_flags_.assign(targets, 0);
    for (const int s : diag_slot_) {
        target_flags_[static_cast<std::size_t>(s)] |= gmin_flag;
    }
    dirty_.reserve(targets);
}

void Mna_system::schedule()
{
    const auto& devices = circuit_->devices();
    const std::vector<double> zeros(circuit_->node_count(), 0.0);
    const Eval_context dc = binding_context(Analysis_mode::dc, zeros);

    Binder verify(*this, Binder::Pass::verify);
    std::vector<std::int32_t> step_open, always_open;
    counted_.assign(devices.size(), 0);
    check_ptr_.assign(1, 0);
    for (std::size_t i = 0; i < devices.size(); ++i) {
        const Device& dev = *devices[i];
        const auto id = static_cast<std::int32_t>(i);
        const std::int32_t first = device_op_[i];
        const std::int32_t end = device_op_[i + 1];
        counted_[i] = dev.is_nonlinear();
        // Capacitors and MOSFETs belong to their banks (bind_capacitors,
        // bind_mosfets).
        if (dynamic_cast<const Capacitor*>(&dev) != nullptr ||
            dynamic_cast<const Mosfet*>(&dev) != nullptr) {
            continue;
        }

        // The DC call sequence must be the transient one or empty.  A
        // voltage-only stamp does not depend on the mode, so only the
        // other devices are stamped in DC here (checked builds still
        // verify every replayed call).
        const bool vo = dev.stamp_voltage_only();
        bool dc_open = false;
        if (!vo) {
            verify.begin(first, end);
            dev.stamp(verify, dc);
            dc_open = verify.calls() == 0 && end > first;
            if (!dc_open &&
                !(verify.calls() == end - first && verify.matches())) {
                throw util::Invariant_error(
                    "device " + dev.name() +
                    " stamps a different call sequence in DC than in "
                    "transient");
            }
        }
        bool driven = false;
        for (std::int32_t k = first; k < end; ++k) {
            driven = driven || ops_[static_cast<std::size_t>(k)] < drop_op;
        }

        if (end == first) continue;  // stamps nothing (voltage sources)
        if (!dev.is_nonlinear() && vo && !driven) {
            static_devices_.push_back(id);
        } else if (vo) {
            checked_devices_.push_back(id);
            for (const Node n : dev.nodes()) check_nodes_.push_back(n);
            check_ptr_.push_back(
                static_cast<std::int32_t>(check_nodes_.size()));
        } else if (!dev.is_nonlinear()) {
            (dc_open ? step_open : step_devices_).push_back(id);
        } else {
            (dc_open ? always_open : always_devices_).push_back(id);
        }
    }
    step_dc_end_ = step_devices_.size();
    step_devices_.insert(step_devices_.end(), step_open.begin(),
                         step_open.end());
    always_dc_end_ = always_devices_.size();
    always_devices_.insert(always_devices_.end(), always_open.begin(),
                           always_open.end());
    v_eval_.assign(check_nodes_.size(),
                   std::numeric_limits<double>::quiet_NaN());
}

void Mna_system::bind_capacitors()
{
    const auto& devices = circuit_->devices();
    // Bank order: grounded capacitors, then the rest, each in device
    // order.
    std::vector<std::size_t> order, general;
    for (std::size_t i = 0; i < devices.size(); ++i) {
        if (dynamic_cast<const Capacitor*>(devices[i].get()) == nullptr) {
            continue;
        }
        // [slot, drop, drop, drop, rhs, drop]: a is an unknown, b ground.
        const std::int32_t* op =
            &ops_[static_cast<std::size_t>(device_op_[i])];
        const bool grounded = op[0] >= 0 && op[1] == drop_op &&
                              op[2] == drop_op && op[3] == drop_op &&
                              op[4] >= 0 && op[5] == drop_op;
        (grounded ? order : general).push_back(i);
    }
    grounded_caps_ = order.size();
    order.insert(order.end(), general.begin(), general.end());

    const auto bind_op = [&](std::size_t k) {
        const std::int32_t op = ops_[k];
        Cap_op c{op_value_[k], op, ground_node};
        if (op < drop_op) {
            const Driven_op& d =
                driven_ops_[static_cast<std::size_t>(-2 - op)];
            c.target = d.target;
            c.driven = d.node;
        }
        cap_ops_.push_back(c);
    };
    for (std::size_t n = 0; n < order.size(); ++n) {
        const std::size_t i = order[n];
        const auto* cap = static_cast<const Capacitor*>(devices[i].get());
        cap_device_.push_back(cap);
        cap_a_.push_back(cap->nodes()[0]);
        cap_b_.push_back(cap->nodes()[1]);
        const auto first = static_cast<std::size_t>(device_op_[i]);
        if (n < grounded_caps_) {
            bind_op(first);
            bind_op(first + 4);
        } else {
            for (std::size_t j = 0; j < 6; ++j) bind_op(first + j);
        }
    }
    const std::size_t count = cap_device_.size();
    cap_farads_.assign(count, 0.0);
    cap_v_prev_.assign(count, 0.0);
    cap_i_prev_.assign(count, 0.0);
    snapshot_capacitances();
}

void Mna_system::bind_mosfets()
{
    const auto& devices = circuit_->devices();
    for (std::size_t i = 0; i < devices.size(); ++i) {
        const auto* mos = dynamic_cast<const Mosfet*>(devices[i].get());
        if (mos == nullptr) continue;
        const Mos_model model{mos->params(), mos->multiplicity()};
        auto it = std::find_if(
            mos_models_.begin(), mos_models_.end(), [&](const Mos_model& m) {
                return same_model(m.params, m.m, model.params, model.m);
            });
        if (it == mos_models_.end()) it = mos_models_.insert(it, model);
        mos_model_.push_back(
            static_cast<std::int32_t>(it - mos_models_.begin()));
        mos_device_.push_back(static_cast<std::int32_t>(i));
        mos_nodes_.insert(mos_nodes_.end(),
                          {mos->drain(), mos->gate(), mos->source()});
    }
    mos_model_.shrink_to_fit();
    mos_device_.shrink_to_fit();
    mos_nodes_.shrink_to_fit();
    mos_v_eval_.assign(mos_nodes_.size(),
                       std::numeric_limits<double>::quiet_NaN());
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

void Mna_system::evaluate(std::int32_t device, Value_writer& writer,
                          const Eval_context& ctx)
{
    const auto d = static_cast<std::size_t>(device);
    writer.begin(device);
    circuit_->devices()[d]->stamp(writer, ctx);
    MPSRAM_ASSERT(writer.done(),
                  "device made fewer stamp calls than its bound program",
                  MPSRAM_VAL(device));
    counters_.device_evaluations += counted_[d];
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
        const Cap_op* op = &cap_ops_[2 * k];
        store(op[0].value, op[0].target, c.g);
        store(op[1].value, op[1].target, c.hist);
    }
    const Cap_op* op = cap_ops_.data() + 2 * grounded_caps_;
    for (std::size_t k = grounded_caps_; k < count; ++k, op += 6) {
        const Companion c = companion(k, ctx.dt, trap);
        MPSRAM_ASSERT(std::isfinite(c.hist), "non-finite capacitor history",
                      MPSRAM_VAL(k), MPSRAM_VAL(c.hist));
        const double stamp[6] = {c.g, c.g, -c.g, -c.g, c.hist, -c.hist};
        for (int j = 0; j < 6; ++j) {
            if (op[j].value < 0) continue;
            // A driven column moves to the RHS as -g * v(column).
            store(op[j].value, op[j].target,
                  op[j].driven == ground_node
                      ? stamp[j]
                      : -stamp[j] * ctx.voltages[op[j].driven]);
        }
    }
    counters_.device_evaluations += static_cast<long long>(count);
}

void Mna_system::zero_capacitors()
{
    for (const Cap_op& op : cap_ops_) {
        if (op.value >= 0) store(op.value, op.target, 0.0);
    }
}

/// One assembly: evaluate what the schedule says changed, then fold.
void Mna_system::load(const Eval_context& ctx,
                      const std::vector<double>& voltages,
                      const Newton_options& opts, bool new_step,
                      std::span<const Forced_node> forces)
{
    Value_writer writer(*this, voltages.data());
    const bool dc = ctx.mode == Analysis_mode::dc;
    if (dc && (!assembled_ || !assembled_dc_)) {
        // Entering DC: devices open in DC contribute nothing.
        zero_capacitors();
        for (std::size_t k = step_dc_end_; k < step_devices_.size(); ++k) {
            writer.zero(step_devices_[k]);
        }
        for (std::size_t k = always_dc_end_; k < always_devices_.size();
             ++k) {
            writer.zero(always_devices_[k]);
        }
    }
    assembled_dc_ = dc;

    if (statics_stale_) {
        for (const std::int32_t d : static_devices_) evaluate(d, writer, ctx);
        statics_stale_ = false;
    }
    if (new_step) {
        const std::size_t end = dc ? step_dc_end_ : step_devices_.size();
        for (std::size_t k = 0; k < end; ++k) {
            evaluate(step_devices_[k], writer, ctx);
        }
        if (!dc) evaluate_capacitors(ctx);
    }
    const std::size_t always_end =
        dc ? always_dc_end_ : always_devices_.size();
    for (std::size_t k = 0; k < always_end; ++k) {
        evaluate(always_devices_[k], writer, ctx);
    }

    // Checked devices and the MOSFET bank.  On the bypass tier a device
    // whose terminals — driven ones included — all stayed within
    // device_bypass_vtol of its last recorded evaluation keeps its values;
    // the direct tier (and vtol <= 0) re-evaluates every iteration and
    // records nothing.
    const double vtol = opts.device_bypass_vtol;
    const bool bypass = opts.solver == Solver_policy::bypass && vtol > 0.0;
    for (std::size_t k = 0; k < checked_devices_.size(); ++k) {
        const auto first = static_cast<std::size_t>(check_ptr_[k]);
        const std::size_t count =
            static_cast<std::size_t>(check_ptr_[k + 1]) - first;
        const Node* nodes = &check_nodes_[first];
        if (bypass &&
            quiet(voltages.data(), nodes, &v_eval_[first], count, vtol)) {
            continue;
        }
        evaluate(checked_devices_[k], writer, ctx);
        record(voltages.data(), nodes, &v_eval_[first], count, bypass);
    }
    evaluate_mosfets(writer, voltages.data(), bypass, vtol);

    fold(ctx, voltages, opts, forces);
}

/// The MOSFET bank's iteration: the drift check, then the EKV kernel and
/// the stamp-call sequence of stamp_mosfet straight into the writer.
void Mna_system::evaluate_mosfets(Value_writer& writer,
                                  const double* voltages, bool bypass,
                                  double vtol)
{
    for (std::size_t k = 0; k < mos_model_.size(); ++k) {
        const Node* nodes = &mos_nodes_[3 * k];
        double* v_eval = &mos_v_eval_[3 * k];
        if (bypass && quiet(voltages, nodes, v_eval, 3, vtol)) continue;
        const Mos_model& model =
            mos_models_[static_cast<std::size_t>(mos_model_[k])];
        writer.begin(mos_device_[k]);
        stamp_mosfet(writer, nodes[0], nodes[1], nodes[2], model.params,
                     model.m, voltages);
        MPSRAM_ASSERT(writer.done(),
                      "MOSFET made fewer stamp calls than its bound program",
                      MPSRAM_VAL(mos_device_[k]));
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
        for (const std::int32_t t : dirty_) store(t);
    }
    dirty_.clear();

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
    statics_stale_ = true;
    std::fill(v_eval_.begin(), v_eval_.end(),
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
    for (const auto& dev : circuit_->devices()) {
        dev->add_breakpoints(tstop, out);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end(),
                          [](double a, double b) {
                              return std::fabs(a - b) < 1e-18;
                          }),
              out.end());
    return out;
}

double Mna_system::branch_current(std::size_t i) const
{
    util::expects(i < branch_currents_.size(), "branch index out of range");
    return branch_currents_[i];
}

} // namespace mpsram::spice
