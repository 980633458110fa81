// MOSFET element record: three terminals and the EKV-style compact model
// (spice/mosfet_model.h) it is evaluated with.  The MNA system evaluates
// every MOSFET from its own bank (spice/system.h).
#ifndef MPSRAM_SPICE_MOSFET_H
#define MPSRAM_SPICE_MOSFET_H

#include <string>

#include "spice/device.h"
#include "spice/mosfet_model.h"

namespace mpsram::spice {

/// Three-terminal MOSFET (drain, gate, source); the bulk is implicitly
/// tied to the rail appropriate for the type (model is bulk-referenced).
class Mosfet {
public:
    Mosfet(std::string name, Node drain, Node gate, Node source,
           Mosfet_params params, double multiplicity = 1.0);

    const std::string& name() const { return name_; }
    Node drain() const { return drain_; }
    Node gate() const { return gate_; }
    Node source() const { return source_; }
    const Mosfet_params& params() const { return params_; }
    double multiplicity() const { return m_; }

private:
    std::string name_;
    Node drain_;
    Node gate_;
    Node source_;
    Mosfet_params params_;
    double m_;
};

} // namespace mpsram::spice

#endif // MPSRAM_SPICE_MOSFET_H
