// Shared vocabulary of the MNA engine: node handles, integration and
// analysis modes, and the per-solve evaluation context.
//
// The element set is closed: resistors, capacitors, independent current
// and voltage sources (spice/linear_devices.h) and MOSFETs
// (spice/mosfet.h).  spice::Circuit stores them as typed records in
// insertion order; no element stamps itself.  The MNA system
// (spice/system.h) binds each kind's fixed list of stamp entries once,
// then evaluates each kind in a loop of its own.
#ifndef MPSRAM_SPICE_DEVICE_H
#define MPSRAM_SPICE_DEVICE_H

#include "util/token_table.h"

namespace mpsram::spice {

/// Node handle: index into the circuit's node table; 0 is ground.
using Node = int;
inline constexpr Node ground_node = 0;

enum class Integration_method { backward_euler, trapezoidal };

inline constexpr auto integration_method_tokens =
    util::token_table<Integration_method>(
        "integration method",
        {{Integration_method::backward_euler, "backward_euler"},
         {Integration_method::trapezoidal, "trapezoidal"}});

enum class Analysis_mode { dc, transient };

/// Per-solve evaluation context.
struct Eval_context {
    Analysis_mode mode = Analysis_mode::dc;
    Integration_method method = Integration_method::trapezoidal;
    /// Target time of this solve [s] (0 in DC).
    double time = 0.0;
    /// Current step size [s] (0 in DC).
    double dt = 0.0;
    /// Full-length node voltage vector of the current iterate (indexed by
    /// Node, ground and driven nodes included and kept up to date).
    const double* voltages = nullptr;
};

} // namespace mpsram::spice

#endif // MPSRAM_SPICE_DEVICE_H
