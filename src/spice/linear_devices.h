// Linear circuit elements: resistor, capacitor, independent sources.
#ifndef MPSRAM_SPICE_LINEAR_DEVICES_H
#define MPSRAM_SPICE_LINEAR_DEVICES_H

#include "spice/device.h"
#include "spice/waveform.h"

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

/// Capacitor.  The MNA system special-cases these like voltage sources:
/// it owns every capacitor's companion model (trapezoidal / backward-
/// Euler) and its history in a flat bank (spice/system.h), so stamp() is
/// a no-op and the device only names its terminals and value.
class Capacitor final : public Device {
public:
    Capacitor(std::string name, Node a, Node b, double farads);

    double capacitance() const { return farads_; }

    /// Re-point the element at a new value (sweep reuse).  Values do not
    /// affect the MNA sparsity pattern, so a compiled system stays valid;
    /// the new value takes effect at the next analysis run, when
    /// Mna_system::reset_reuse_state() snapshots the capacitances.
    void set_capacitance(double farads);

    void stamp(Stamper& s, const Eval_context& ctx) const override;

private:
    double farads_;
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
