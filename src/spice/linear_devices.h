// Linear circuit elements: resistor, capacitor, independent sources.
#ifndef MPSRAM_SPICE_LINEAR_DEVICES_H
#define MPSRAM_SPICE_LINEAR_DEVICES_H

#include "spice/device.h"
#include "spice/waveform.h"
#include "util/contracts.h"

namespace mpsram::spice {

class Resistor final : public Device {
public:
    Resistor(std::string name, Node a, Node b, double ohms);

    double resistance() const { return ohms_; }

    /// Re-point the element at a new value (sweep reuse).  Values do not
    /// affect the MNA sparsity pattern, so a compiled system stays valid.
    void set_resistance(double ohms);

    bool stamp_voltage_only() const override { return true; }
    void stamp(Stamper& s, const Eval_context& ctx) const override;

private:
    double ohms_;
};

/// Capacitor with trapezoidal / backward-Euler companion models.  Holds
/// its own history (voltage and current at the last accepted time point).
class Capacitor final : public Device {
public:
    Capacitor(std::string name, Node a, Node b, double farads);

    double capacitance() const { return farads_; }

    /// Re-point the element at a new value (sweep reuse).  Clears the
    /// companion-model history; the next DC operating point re-latches it.
    void set_capacitance(double farads);

    /// Transient companion model at `ctx`: the branch current a->b at the
    /// new point is i = g * v - hist.  The one formula stamp() and
    /// accept_step() both use.
    struct Companion {
        double g;     ///< equivalent conductance [S]
        double hist;  ///< history current source [A]
    };
    Companion companion(const Eval_context& ctx) const
    {
        util::expects(ctx.dt > 0.0, "companion model needs a positive step");
        // BE:   g = C/dt,  hist = g * v_prev
        // TRAP: g = 2C/dt, hist = g * v_prev + i_prev
        const bool trap = ctx.method == Integration_method::trapezoidal;
        const double g = trap ? 2.0 * farads_ / ctx.dt : farads_ / ctx.dt;
        double hist = g * v_prev_;
        if (trap) hist += i_prev_;
        return {g, hist};
    }

    /// stamp() for any stamper type: the MNA stamp program calls this
    /// directly on its own (final) stamper, without virtual dispatch.
    template <class S>
    void stamp_into(S& s, const Eval_context& ctx) const
    {
        if (ctx.mode == Analysis_mode::dc) return;  // open in DC
        const Companion c = companion(ctx);
        const Node a = nodes()[0];
        const Node b = nodes()[1];
        // Conductance g between a and b (Stamper::conductance order).
        s.jacobian(a, a, c.g);
        s.jacobian(b, b, c.g);
        s.jacobian(a, b, -c.g);
        s.jacobian(b, a, -c.g);
        // i = g*v - hist flows a->b; the "hist" part is an equivalent
        // source pushing current into a (and out of b).
        s.rhs(a, c.hist);
        s.rhs(b, -c.hist);
    }

    bool keeps_history() const override { return true; }
    void stamp(Stamper& s, const Eval_context& ctx) const override
    {
        stamp_into(s, ctx);
    }
    void accept_step(const Eval_context& ctx) override;

private:
    double farads_;
    double v_prev_ = 0.0;  ///< branch voltage v(a) - v(b) at last accepted point
    double i_prev_ = 0.0;  ///< branch current a->b at last accepted point
};

/// Independent current source: `value(t)` amps flow from `from` to `to`
/// through the source (i.e. injected into `to`).
class Current_source final : public Device {
public:
    Current_source(std::string name, Node from, Node to, Waveform w);

    void stamp(Stamper& s, const Eval_context& ctx) const override;
    void add_breakpoints(double tstop, std::vector<double>& out) const override;

    double value(double t) const { return wave_.value(t); }
    const Waveform& wave() const { return wave_; }

private:
    Waveform wave_;
};

/// Ideal independent voltage source, v(pos) - v(neg) = value(t).
///
/// The MNA system special-cases these: a source whose `neg` is ground
/// turns `pos` into a driven node (no extra unknown); a floating source
/// gets a branch-current unknown.  stamp() is therefore a no-op.
class Voltage_source final : public Device {
public:
    Voltage_source(std::string name, Node pos, Node neg, Waveform w);

    Node pos() const { return nodes()[0]; }
    Node neg() const { return nodes()[1]; }
    bool grounded() const { return neg() == ground_node; }

    void stamp(Stamper& s, const Eval_context& ctx) const override;
    void add_breakpoints(double tstop, std::vector<double>& out) const override;

    double value(double t) const { return wave_.value(t); }
    const Waveform& wave() const { return wave_; }

private:
    Waveform wave_;
};

} // namespace mpsram::spice

#endif // MPSRAM_SPICE_LINEAR_DEVICES_H
