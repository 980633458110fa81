#include "spice/circuit.h"

#include "spice/exceptions.h"
#include "util/contracts.h"

namespace mpsram::spice {

Circuit::Circuit()
{
    node_names_.push_back("0");
    node_index_["0"] = ground_node;
    node_index_["gnd"] = ground_node;
}

Node Circuit::node(const std::string& name)
{
    util::expects(!name.empty(), "node name must be non-empty");
    const auto it = node_index_.find(name);
    if (it != node_index_.end()) return it->second;
    const Node n = static_cast<Node>(node_names_.size());
    node_names_.push_back(name);
    node_index_[name] = n;
    return n;
}

Node Circuit::find_node(const std::string& name) const
{
    const auto it = node_index_.find(name);
    if (it == node_index_.end()) {
        throw Netlist_error("unknown node: " + name);
    }
    return it->second;
}

const std::string& Circuit::node_name(Node n) const
{
    util::expects(n >= 0 && static_cast<std::size_t>(n) < node_names_.size(),
                  "node id out of range");
    return node_names_[static_cast<std::size_t>(n)];
}

void Circuit::check_node(Node n) const
{
    util::expects(n >= 0 && static_cast<std::size_t>(n) < node_names_.size(),
                  "device references an unknown node");
}

template <typename T, typename... Args>
T& Circuit::add(std::deque<T>& records, Element_kind kind, std::string name,
                Args&&... args)
{
    util::expects(!name.empty(), "device name must be non-empty");
    if (!element_names_.insert(name).second) {
        throw Netlist_error("duplicate device name: " + name);
    }
    T& record =
        records.emplace_back(std::move(name), std::forward<Args>(args)...);
    elements_.push_back({kind, static_cast<std::int32_t>(records.size() - 1)});
    return record;
}

Resistor& Circuit::add_resistor(std::string name, Node a, Node b, double ohms)
{
    check_node(a);
    check_node(b);
    return add(resistors_, Element_kind::resistor, std::move(name), a, b,
               ohms);
}

Capacitor& Circuit::add_capacitor(std::string name, Node a, Node b,
                                  double farads)
{
    check_node(a);
    check_node(b);
    return add(capacitors_, Element_kind::capacitor, std::move(name), a, b,
               farads);
}

Current_source& Circuit::add_current_source(std::string name, Node from,
                                            Node to, Waveform w)
{
    check_node(from);
    check_node(to);
    return add(current_sources_, Element_kind::current_source,
               std::move(name), from, to, std::move(w));
}

Voltage_source& Circuit::add_voltage_source(std::string name, Node pos,
                                            Node neg, Waveform w)
{
    check_node(pos);
    check_node(neg);
    return add(voltage_sources_, Element_kind::voltage_source,
               std::move(name), pos, neg, std::move(w));
}

Mosfet& Circuit::add_mosfet(std::string name, Node drain, Node gate,
                            Node source, Mosfet_params params,
                            double multiplicity)
{
    check_node(drain);
    check_node(gate);
    check_node(source);
    return add(mosfets_, Element_kind::mosfet, std::move(name), drain, gate,
               source, params, multiplicity);
}

double Circuit::node_capacitance(Node n) const
{
    double total = 0.0;
    for (const Capacitor& cap : capacitors_) {
        if (cap.a() == n) total += cap.capacitance();
        if (cap.b() == n) total += cap.capacitance();
    }
    return total;
}

} // namespace mpsram::spice
