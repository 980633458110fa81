// Linear element records: resistor, capacitor, independent sources.  The
// MNA system (spice/system.h) reads their terminals and values; it owns
// every stamp.
#ifndef MPSRAM_SPICE_LINEAR_DEVICES_H
#define MPSRAM_SPICE_LINEAR_DEVICES_H

#include <string>

#include "spice/device.h"
#include "spice/waveform.h"

namespace mpsram::spice {

class Resistor {
public:
    Resistor(std::string name, Node a, Node b, double ohms);

    const std::string& name() const { return name_; }
    Node a() const { return a_; }
    Node b() const { return b_; }
    double resistance() const { return ohms_; }

    /// Re-point the element at a new value (sweep reuse).  Values do not
    /// affect the MNA sparsity pattern, so a compiled system stays valid;
    /// the new value takes effect at the next analysis run, when
    /// Mna_system::reset_reuse_state() re-stamps the resistors.
    void set_resistance(double ohms);

private:
    std::string name_;
    Node a_;
    Node b_;
    double ohms_;
};

/// Capacitor.  The MNA system owns every capacitor's companion model
/// (trapezoidal / backward-Euler) and its history in a flat bank.
class Capacitor {
public:
    Capacitor(std::string name, Node a, Node b, double farads);

    const std::string& name() const { return name_; }
    Node a() const { return a_; }
    Node b() const { return b_; }
    double capacitance() const { return farads_; }

    /// Re-point the element at a new value (sweep reuse).  Values do not
    /// affect the MNA sparsity pattern, so a compiled system stays valid;
    /// the new value takes effect at the next analysis run, when
    /// Mna_system::reset_reuse_state() snapshots the capacitances.
    void set_capacitance(double farads);

private:
    std::string name_;
    Node a_;
    Node b_;
    double farads_;
};

/// Independent current source: `value(t)` amps flow from `from` to `to`
/// through the source (i.e. injected into `to`).
class Current_source {
public:
    Current_source(std::string name, Node from, Node to, Waveform w);

    const std::string& name() const { return name_; }
    Node from() const { return from_; }
    Node to() const { return to_; }
    double value(double t) const { return wave_.value(t); }
    const Waveform& wave() const { return wave_; }

private:
    std::string name_;
    Node from_;
    Node to_;
    Waveform wave_;
};

/// Ideal independent voltage source, v(pos) - v(neg) = value(t).  A source
/// whose `neg` is ground makes `pos` a driven node (no extra unknown); a
/// floating source gets a branch-current unknown.
class Voltage_source {
public:
    Voltage_source(std::string name, Node pos, Node neg, Waveform w);

    const std::string& name() const { return name_; }
    Node pos() const { return pos_; }
    Node neg() const { return neg_; }
    bool grounded() const { return neg_ == ground_node; }
    double value(double t) const { return wave_.value(t); }
    const Waveform& wave() const { return wave_; }

private:
    std::string name_;
    Node pos_;
    Node neg_;
    Waveform wave_;
};

} // namespace mpsram::spice

#endif // MPSRAM_SPICE_LINEAR_DEVICES_H
