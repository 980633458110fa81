// MOSFET circuit device wrapping the EKV-style compact model.
//
// The MNA system evaluates MOSFETs from its own bank (spice/system.h), not
// through the virtual Device::stamp; both issue the one stamp-call
// sequence of stamp_mosfet below.
#ifndef MPSRAM_SPICE_MOSFET_H
#define MPSRAM_SPICE_MOSFET_H

#include "spice/device.h"
#include "spice/mosfet_model.h"

namespace mpsram::spice {

/// The MOSFET stamp-call sequence, written once for every sink: the
/// Stamper handed to Mosfet::stamp (which the MNA system binds) and the
/// system's runtime stamper, which its MOSFET bank calls without virtual
/// dispatch.  `v` is the full node-indexed voltage vector.
template <class Sink>
void stamp_mosfet(Sink& s, Node d, Node g, Node src, const Mosfet_params& p,
                  double m, const double* v)
{
    const double vd = v[d];
    const double vg = v[g];
    const double vs = v[src];

    const Mosfet_eval e = evaluate_mosfet(p, vd, vg, vs, m);

    // Newton companion: ids(v) ~ ids0 + gds*dvd + gm*dvg + gms*dvs.
    // ids flows d -> s inside the device, i.e. leaves node d and enters
    // node s.
    s.jacobian(d, d, e.gds);
    s.jacobian(d, g, e.gm);
    s.jacobian(d, src, e.gms);
    s.jacobian(src, d, -e.gds);
    s.jacobian(src, g, -e.gm);
    s.jacobian(src, src, -e.gms);

    const double i_const =
        e.ids - (e.gds * vd + e.gm * vg + e.gms * vs);
    s.rhs(d, -i_const);
    s.rhs(src, i_const);
}

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
