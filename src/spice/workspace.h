// Reusable solver scratch for repeated analyses on one circuit.
//
// Compiling a circuit into an Mna_system is the expensive, allocation-heavy
// part of an analysis: node classification, sparse-pattern assembly, the
// symbolic LU (fill-in) and the binding of every element's stamp entries
// all happen in the constructor.  A Transient_workspace keeps the compiled
// system plus the solution vectors of the time loop across calls, and
// rebuilds them only when the bound circuit's identity, node count or
// element count changes; a Circuit only ever grows, so equal counts mean
// the same elements.
//
// Element *value* edits (Resistor::set_resistance,
// Capacitor::set_capacitance) change neither the sparse pattern nor the
// bound entries, so a sweep that re-points a netlist at new extracted
// parasitics keeps the compiled system.  An edit takes effect at the next
// analysis run: run_transient and dc_operating_point start with
// Mna_system::reset_reuse_state(), which re-stamps the resistors and
// snapshots the capacitances into the system's capacitor bank.  An edit
// made while a run is in flight is not seen by that run.
//
// A workspace is single-threaded state: give each worker of a parallel
// sweep its own (see sram::Read_sim_context and the core:: batch APIs).
// Results are bitwise identical with and without reuse — every buffer is
// fully re-initialized by the analysis drivers before use.
#ifndef MPSRAM_SPICE_WORKSPACE_H
#define MPSRAM_SPICE_WORKSPACE_H

#include <cstddef>
#include <memory>
#include <vector>

#include "spice/system.h"

namespace mpsram::spice {

class Transient_workspace {
public:
    Transient_workspace() = default;

    Transient_workspace(const Transient_workspace&) = delete;
    Transient_workspace& operator=(const Transient_workspace&) = delete;
    Transient_workspace(Transient_workspace&&) = default;
    Transient_workspace& operator=(Transient_workspace&&) = default;

    /// Compiled system for `circuit`, rebuilt only when the circuit is not
    /// the one already bound or its node or element count changed.
    // lint:allow(raw-socket) -- binds a workspace, not a socket
    Mna_system& bind(const Circuit& circuit);

    /// Drop the bound system (next bind() rebuilds).  Call after replacing
    /// the circuit object itself.
    void invalidate();

    /// Number of Mna_system compilations this workspace has performed
    /// (tests assert reuse through this).
    std::size_t build_count() const { return builds_; }

    // Solution-vector scratch of the analysis drivers.  Contents are
    // overwritten by every run; only the capacity is carried across calls.
    std::vector<double>& voltages() { return voltages_; }
    std::vector<double>& prev_voltages() { return prev_voltages_; }
    std::vector<double>& attempt() { return attempt_; }

private:
    std::unique_ptr<Mna_system> system_;
    const Circuit* bound_ = nullptr;
    std::size_t bound_nodes_ = 0;
    std::size_t bound_devices_ = 0;
    std::size_t builds_ = 0;

    std::vector<double> voltages_;
    std::vector<double> prev_voltages_;
    std::vector<double> attempt_;
};

} // namespace mpsram::spice

#endif // MPSRAM_SPICE_WORKSPACE_H
