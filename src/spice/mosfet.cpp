#include "spice/mosfet.h"

#include "util/contracts.h"

namespace mpsram::spice {

Mosfet::Mosfet(std::string name, Node drain, Node gate, Node source,
               Mosfet_params params, double multiplicity)
    : Device(std::move(name), {drain, gate, source}),
      params_(params),
      m_(multiplicity)
{
    util::expects(multiplicity > 0.0, "multiplicity must be positive");
}

void Mosfet::stamp(Stamper& s, const Eval_context& ctx) const
{
    stamp_mosfet(s, drain(), gate(), source(), params_, m_, ctx.voltages);
}

double Mosfet::current(const Eval_context& ctx) const
{
    return evaluate_mosfet(params_, ctx.v(drain()), ctx.v(gate()),
                           ctx.v(source()), m_)
        .ids;
}

} // namespace mpsram::spice
