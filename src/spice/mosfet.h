// MOSFET circuit device wrapping the EKV-style compact model.
#ifndef MPSRAM_SPICE_MOSFET_H
#define MPSRAM_SPICE_MOSFET_H

#include "spice/device.h"
#include "spice/mosfet_model.h"

namespace mpsram::spice {

/// Three-terminal MOSFET (drain, gate, source); the bulk is implicitly
/// tied to the rail appropriate for the type (model is bulk-referenced).
class Mosfet final : public Device {
public:
    Mosfet(std::string name, Node drain, Node gate, Node source,
           Mosfet_params params, double multiplicity = 1.0);

    Node drain() const { return nodes()[0]; }
    Node gate() const { return nodes()[1]; }
    Node source() const { return nodes()[2]; }
    const Mosfet_params& params() const { return params_; }
    double multiplicity() const { return m_; }

    bool is_nonlinear() const override { return true; }
    /// The EKV stamp reads only the drain/gate/source voltages, so the
    /// reuse solver may keep its values across steps while the terminals
    /// are quiet.
    bool stamp_voltage_only() const override { return true; }

    void stamp(Stamper& s, const Eval_context& ctx) const override;

    /// Drain current at the given context's voltages (diagnostics).
    double current(const Eval_context& ctx) const;

private:
    Mosfet_params params_;
    double m_;
};

} // namespace mpsram::spice

#endif // MPSRAM_SPICE_MOSFET_H
