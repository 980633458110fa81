#include "spice/workspace.h"

namespace mpsram::spice {

Mna_system& Transient_workspace::bind(const Circuit& circuit)
{
    const bool reusable = system_ && bound_ == &circuit &&
                          bound_nodes_ == circuit.node_count() &&
                          bound_devices_ == circuit.device_count();
    if (!reusable) {
        system_ = std::make_unique<Mna_system>(circuit);
        bound_ = &circuit;
        bound_nodes_ = circuit.node_count();
        bound_devices_ = circuit.device_count();
        ++builds_;
    }
    return *system_;
}

void Transient_workspace::invalidate()
{
    system_.reset();
    bound_ = nullptr;
    bound_nodes_ = 0;
    bound_devices_ = 0;
}

} // namespace mpsram::spice
