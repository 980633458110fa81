#include "spice/mosfet.h"

#include "util/contracts.h"

namespace mpsram::spice {

Mosfet::Mosfet(std::string name, Node drain, Node gate, Node source,
               Mosfet_params params, double multiplicity)
    : name_(std::move(name)),
      drain_(drain),
      gate_(gate),
      source_(source),
      params_(params),
      m_(multiplicity)
{
    util::expects(multiplicity > 0.0, "multiplicity must be positive");
}

} // namespace mpsram::spice
