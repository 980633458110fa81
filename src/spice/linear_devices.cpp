#include "spice/linear_devices.h"

#include "util/contracts.h"

namespace mpsram::spice {

// --- Resistor ---------------------------------------------------------------

Resistor::Resistor(std::string name, Node a, Node b, double ohms)
    : Device(std::move(name), {a, b}), ohms_(ohms)
{
    util::expects(ohms > 0.0, "resistance must be positive");
}

void Resistor::set_resistance(double ohms)
{
    util::expects(ohms > 0.0, "resistance must be positive");
    ohms_ = ohms;
}

void Resistor::stamp(Stamper& s, const Eval_context&) const
{
    s.conductance(nodes()[0], nodes()[1], 1.0 / ohms_);
}

// --- Capacitor --------------------------------------------------------------

Capacitor::Capacitor(std::string name, Node a, Node b, double farads)
    : Device(std::move(name), {a, b}), farads_(farads)
{
    util::expects(farads > 0.0, "capacitance must be positive");
}

void Capacitor::set_capacitance(double farads)
{
    util::expects(farads > 0.0, "capacitance must be positive");
    farads_ = farads;
}

void Capacitor::stamp(Stamper&, const Eval_context&) const
{
    // Handled structurally by the MNA system (its capacitor bank).
}

// --- Current_source ----------------------------------------------------------

Current_source::Current_source(std::string name, Node from, Node to,
                               Waveform w)
    : Device(std::move(name), {from, to}), wave_(std::move(w))
{
}

void Current_source::stamp(Stamper& s, const Eval_context& ctx) const
{
    const double i = wave_.value(ctx.time);
    s.current_into(nodes()[1], i);
    s.current_into(nodes()[0], -i);
}

void Current_source::add_breakpoints(double tstop,
                                     std::vector<double>& out) const
{
    wave_.breakpoints(tstop, out);
}

// --- Voltage_source ----------------------------------------------------------

Voltage_source::Voltage_source(std::string name, Node pos, Node neg,
                               Waveform w)
    : Device(std::move(name), {pos, neg}), wave_(std::move(w))
{
    util::expects(pos != neg, "voltage source terminals must differ");
}

void Voltage_source::stamp(Stamper&, const Eval_context&) const
{
    // Handled structurally by the MNA system (driven node or branch row).
}

void Voltage_source::add_breakpoints(double tstop,
                                     std::vector<double>& out) const
{
    wave_.breakpoints(tstop, out);
}

} // namespace mpsram::spice
