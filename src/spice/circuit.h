// Circuit database: named nodes plus typed records of the closed element
// set (spice/device.h), one list per kind and one list of every element in
// insertion order.  Record addresses stay stable as elements are added, so
// callers may keep the references add_* returns for value edits.
#ifndef MPSRAM_SPICE_CIRCUIT_H
#define MPSRAM_SPICE_CIRCUIT_H

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "spice/device.h"
#include "spice/linear_devices.h"
#include "spice/mosfet.h"

namespace mpsram::spice {

enum class Element_kind : std::uint8_t {
    resistor,
    capacitor,
    current_source,
    voltage_source,
    mosfet,
};

/// One element in insertion order: its kind and its index in that kind's
/// record list.
struct Element {
    Element_kind kind;
    std::int32_t index;
};

class Circuit {
public:
    Circuit();

    Circuit(const Circuit&) = delete;
    Circuit& operator=(const Circuit&) = delete;
    Circuit(Circuit&&) = default;
    Circuit& operator=(Circuit&&) = default;

    /// Get-or-create a named node.  "0" and "gnd" are the ground node.
    Node node(const std::string& name);

    /// Look up an existing node; throws if absent.
    Node find_node(const std::string& name) const;

    const std::string& node_name(Node n) const;
    std::size_t node_count() const { return node_names_.size(); }

    // --- builder API --------------------------------------------------------
    Resistor& add_resistor(std::string name, Node a, Node b, double ohms);
    Capacitor& add_capacitor(std::string name, Node a, Node b, double farads);
    Current_source& add_current_source(std::string name, Node from, Node to,
                                       Waveform w);
    Voltage_source& add_voltage_source(std::string name, Node pos, Node neg,
                                       Waveform w);
    Mosfet& add_mosfet(std::string name, Node drain, Node gate, Node source,
                       Mosfet_params params, double multiplicity = 1.0);

    const std::vector<Element>& elements() const { return elements_; }
    std::size_t device_count() const { return elements_.size(); }

    const std::deque<Resistor>& resistors() const { return resistors_; }
    const std::deque<Capacitor>& capacitors() const { return capacitors_; }
    const std::deque<Current_source>& current_sources() const
    {
        return current_sources_;
    }
    const std::deque<Voltage_source>& voltage_sources() const
    {
        return voltage_sources_;
    }
    const std::deque<Mosfet>& mosfets() const { return mosfets_; }

    /// Total capacitance attached to a node (diagnostics/tests).
    double node_capacitance(Node n) const;

private:
    template <typename T, typename... Args>
    T& add(std::deque<T>& records, Element_kind kind, std::string name,
           Args&&... args);

    void check_node(Node n) const;

    std::vector<std::string> node_names_;
    std::unordered_map<std::string, Node> node_index_;
    std::unordered_set<std::string> element_names_;
    std::vector<Element> elements_;
    std::deque<Resistor> resistors_;
    std::deque<Capacitor> capacitors_;
    std::deque<Current_source> current_sources_;
    std::deque<Voltage_source> voltage_sources_;
    std::deque<Mosfet> mosfets_;
};

} // namespace mpsram::spice

#endif // MPSRAM_SPICE_CIRCUIT_H
