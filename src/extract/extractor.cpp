#include "extract/extractor.h"

#include <optional>

#include "extract/capacitance.h"
#include "extract/resistance.h"
#include "util/contracts.h"

namespace mpsram::extract {

Extractor::Extractor(tech::Beol_layer layer, Extraction_options opts)
    : layer_(std::move(layer)), opts_(opts)
{
    util::expects(layer_.pitch > 0.0 && layer_.thickness > 0.0,
                  "extractor needs a fully specified layer");
}

Wire_rc Extractor::wire_rc(const geom::Wire_array& arr, std::size_t i) const
{
    util::expects(i < arr.size(), "wire index out of range");
    const geom::Wire& w = arr[i];

    Wire_rc rc;
    rc.r = resistance_per_length(layer_, w.width, opts_);
    rc.c_plate = plate_per_length(layer_, w.width, opts_);

    std::optional<double> space_below;
    std::optional<double> space_above;
    if (i > 0) space_below = arr.spacing_below(i);
    if (i + 1 < arr.size()) space_above = arr.spacing_above(i);

    if (space_below) {
        rc.c_couple_below = coupling_per_length(layer_, *space_below, opts_);
    }
    if (space_above) {
        rc.c_couple_above = coupling_per_length(layer_, *space_above, opts_);
    }

    // Fringe: each side is shielded by its own neighbor's spacing; the
    // helper returns the two-plane total for one side.
    rc.c_fringe = fringe_per_length(layer_, space_below, opts_) +
                  fringe_per_length(layer_, space_above, opts_);

    return rc;
}

Net_rc Extractor::net_rc(const geom::Wire_array& arr, std::size_t i) const
{
    const Wire_rc rc = wire_rc(arr, i);
    const double len = arr[i].length;
    return Net_rc{rc.r * len, rc.c_total() * len};
}

double Extractor::wire_resistance_per_length(double drawn_width) const
{
    return resistance_per_length(layer_, drawn_width, opts_);
}

Rc_variation Extractor::variation(const geom::Wire_array& nominal,
                                  const geom::Wire_array& realized,
                                  std::size_t victim) const
{
    util::expects(nominal.size() == realized.size(),
                  "nominal and realized arrays must match in size");
    util::expects(victim < nominal.size(), "victim index out of range");
    util::expects(nominal[victim].net == realized[victim].net,
                  "victim wire identity mismatch between arrays");
    return variation(wire_rc(nominal, victim), realized, victim);
}

Rc_variation Extractor::variation(const Wire_rc& nominal_rc,
                                  const geom::Wire_array& realized,
                                  std::size_t victim) const
{
    const Wire_rc real = wire_rc(realized, victim);

    Rc_variation v;
    v.r_factor = real.r / nominal_rc.r;
    v.c_factor = real.c_total() / nominal_rc.c_total();
    util::ensures(v.r_factor > 0.0 && v.c_factor > 0.0,
                  "variation factors must be positive");
    return v;
}

} // namespace mpsram::extract
