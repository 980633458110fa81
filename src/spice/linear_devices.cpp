#include "spice/linear_devices.h"

#include "util/contracts.h"

namespace mpsram::spice {

Resistor::Resistor(std::string name, Node a, Node b, double ohms)
    : name_(std::move(name)), a_(a), b_(b), ohms_(ohms)
{
    util::expects(ohms > 0.0, "resistance must be positive");
}

void Resistor::set_resistance(double ohms)
{
    util::expects(ohms > 0.0, "resistance must be positive");
    ohms_ = ohms;
}

Capacitor::Capacitor(std::string name, Node a, Node b, double farads)
    : name_(std::move(name)), a_(a), b_(b), farads_(farads)
{
    util::expects(farads > 0.0, "capacitance must be positive");
}

void Capacitor::set_capacitance(double farads)
{
    util::expects(farads > 0.0, "capacitance must be positive");
    farads_ = farads;
}

Current_source::Current_source(std::string name, Node from, Node to,
                               Waveform w)
    : name_(std::move(name)), from_(from), to_(to), wave_(std::move(w))
{
}

Voltage_source::Voltage_source(std::string name, Node pos, Node neg,
                               Waveform w)
    : name_(std::move(name)), pos_(pos), neg_(neg), wave_(std::move(w))
{
    util::expects(pos != neg, "voltage source terminals must differ");
}

} // namespace mpsram::spice
