// The parameterized LPE front door: per-wire RC in a realized array, and
// realized-vs-nominal variation factors (the Rvar / Cvar multipliers of the
// paper's Section III formula).
#ifndef MPSRAM_EXTRACT_EXTRACTOR_H
#define MPSRAM_EXTRACT_EXTRACTOR_H

#include <cstddef>

#include "extract/options.h"
#include "geom/wire_array.h"
#include "tech/technology.h"

namespace mpsram::extract {

/// Per-unit-length RC breakdown of one wire inside an array.
struct Wire_rc {
    double r = 0.0;              ///< [ohm/m]
    double c_plate = 0.0;        ///< [F/m] area cap to planes
    double c_fringe = 0.0;       ///< [F/m] shielded fringe to planes
    double c_couple_below = 0.0; ///< [F/m] to the neighbor below
    double c_couple_above = 0.0; ///< [F/m] to the neighbor above

    double c_ground() const { return c_plate + c_fringe; }
    double c_total() const
    {
        return c_plate + c_fringe + c_couple_below + c_couple_above;
    }
};

/// Absolute rolled-up RC of a wire (per-length values times wire length).
struct Net_rc {
    double resistance = 0.0;   ///< [ohm]
    double capacitance = 0.0;  ///< [F]
};

/// Variation factors of a victim wire: realized / nominal, the quantities
/// the analytic formula consumes (Rvar, Cvar ~ "1 + x%").
struct Rc_variation {
    double r_factor = 1.0;
    double c_factor = 1.0;

    double r_percent() const { return (r_factor - 1.0) * 100.0; }
    double c_percent() const { return (c_factor - 1.0) * 100.0; }
};

/// Analytical parallel-wire extractor for one BEOL layer.
class Extractor {
public:
    explicit Extractor(tech::Beol_layer layer,
                       Extraction_options opts = Extraction_options{});

    const tech::Beol_layer& layer() const { return layer_; }
    const Extraction_options& options() const { return opts_; }

    /// Per-unit-length RC of wire `i` in the array.  Edge wires get
    /// unshielded fringe and no coupling on the open side.
    Wire_rc wire_rc(const geom::Wire_array& arr, std::size_t i) const;

    /// Absolute RC of wire `i` (uses the wire's own length).
    Net_rc net_rc(const geom::Wire_array& arr, std::size_t i) const;

    /// Resistance per length of an isolated wire of given drawn width.
    double wire_resistance_per_length(double drawn_width) const;

    /// RC variation of the same victim wire between a nominal and a
    /// realized array (arrays must be structurally identical).
    Rc_variation variation(const geom::Wire_array& nominal,
                           const geom::Wire_array& realized,
                           std::size_t victim) const;

    /// The same factors against the nominal victim's per-length RC
    /// (wire_rc(nominal, victim)), so a loop over realizations of one
    /// array extracts the nominal once; `victim` indexes `realized`.
    /// Bitwise equal to the overload above.
    Rc_variation variation(const Wire_rc& nominal_rc,
                           const geom::Wire_array& realized,
                           std::size_t victim) const;

private:
    tech::Beol_layer layer_;
    Extraction_options opts_;
};

} // namespace mpsram::extract

#endif // MPSRAM_EXTRACT_EXTRACTOR_H
