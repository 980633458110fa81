#include "spice/netlist_io.h"

#include <ostream>
#include <sstream>

namespace mpsram::spice {

namespace {

void write_waveform(std::ostream& out, const Waveform& w)
{
    if (w.is_dc()) {
        out << "DC " << w.corner_values().front();
        return;
    }
    out << "PWL(";
    const auto& ts = w.corner_times();
    const auto& vs = w.corner_values();
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (i > 0) out << ' ';
        out << ts[i] << ' ' << vs[i];
    }
    out << ')';
}

} // namespace

void write_spice(const Circuit& circuit, std::ostream& out,
                 const std::string& title)
{
    out << "* " << title << '\n';
    out << "* nodes: " << circuit.node_count()
        << ", devices: " << circuit.device_count() << '\n';

    const auto node = [&](Node n) -> const std::string& {
        return circuit.node_name(n);
    };

    for (const Element& e : circuit.elements()) {
        const auto i = static_cast<std::size_t>(e.index);
        switch (e.kind) {
        case Element_kind::resistor: {
            const Resistor& r = circuit.resistors()[i];
            out << r.name() << ' ' << node(r.a()) << ' ' << node(r.b())
                << ' ' << r.resistance() << '\n';
            break;
        }
        case Element_kind::capacitor: {
            const Capacitor& c = circuit.capacitors()[i];
            out << c.name() << ' ' << node(c.a()) << ' ' << node(c.b())
                << ' ' << c.capacitance() << '\n';
            break;
        }
        case Element_kind::voltage_source: {
            const Voltage_source& v = circuit.voltage_sources()[i];
            out << v.name() << ' ' << node(v.pos()) << ' ' << node(v.neg())
                << ' ';
            write_waveform(out, v.wave());
            out << '\n';
            break;
        }
        case Element_kind::current_source: {
            const Current_source& s = circuit.current_sources()[i];
            out << s.name() << ' ' << node(s.from()) << ' ' << node(s.to())
                << ' ';
            write_waveform(out, s.wave());
            out << '\n';
            break;
        }
        case Element_kind::mosfet: {
            const Mosfet& m = circuit.mosfets()[i];
            const char* model = m.params().type == Mosfet_type::nmos
                                    ? "nmos_ekv"
                                    : "pmos_ekv";
            out << m.name() << ' ' << node(m.drain()) << ' '
                << node(m.gate()) << ' ' << node(m.source()) << ' '
                << node(ground_node) << ' ' << model
                << " m=" << m.multiplicity() << '\n';
            break;
        }
        }
    }

    out << ".end\n";
}

std::string to_spice(const Circuit& circuit, const std::string& title)
{
    std::ostringstream out;
    write_spice(circuit, out, title);
    return out.str();
}

} // namespace mpsram::spice
