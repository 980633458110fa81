#include "traced_sim.h"

namespace perfbench {

bool Spice_counts::operator==(const Spice_counts& o) const
{
    return steps.accepted == o.steps.accepted &&
           steps.lte_rejected == o.steps.lte_rejected &&
           steps.newton_rejected == o.steps.newton_rejected &&
           steps.newton_iterations == o.steps.newton_iterations &&
           steps.lu_factorizations == o.steps.lu_factorizations &&
           steps.bypass_hits == o.steps.bypass_hits &&
           transients == o.transients && compiles == o.compiles &&
           netlist_builds == o.netlist_builds;
}

void add_spice_metrics(Layer_metrics& m, const Spice_counts& c,
                       const std::map<std::string, trace::Totals>& totals,
                       double replays)
{
    const auto seconds = [&](const char* name) {
        return trace::totals_of(totals, name).total_s / replays;
    };
    const double iters = static_cast<double>(c.steps.newton_iterations);
    const double transient_s = seconds("spice.transient");
    m["spice.transients"] = static_cast<double>(c.transients);
    m["spice.accepted_steps"] = c.steps.accepted;
    m["spice.lte_rejected"] = c.steps.lte_rejected;
    m["spice.newton_rejected"] = c.steps.newton_rejected;
    m["spice.newton_iterations"] = iters;
    m["spice.lu_factorizations"] =
        static_cast<double>(c.steps.lu_factorizations);
    m["spice.bypass_hits"] = static_cast<double>(c.steps.bypass_hits);
    m["spice.compiles"] = static_cast<double>(c.compiles);
    m["spice.bypass_ratio"] =
        iters > 0 ? static_cast<double>(c.steps.bypass_hits) / iters : 0.0;
    m["spice.transient_s"] = transient_s;
    m["spice.compile_s"] = seconds("spice.compile");
    m["spice.us_per_newton_iter"] = iters > 0 ? 1e6 * transient_s / iters : 0.0;
    m["sram.netlist_builds"] = static_cast<double>(c.netlist_builds);
    m["sram.netlist_build_s"] =
        seconds("sram.netlist_build") + seconds("sram.netlist_update");
}

} // namespace perfbench
