// Ablation: VSS-rail return-path modeling versus the SADP sim-vs-formula
// divergence (Table III, Section III-A).
//
// The paper explains the SADP divergence at n > 64 by the VSS-rail
// resistance rising when Rbl falls (mandrel/gap anti-correlation).  How
// much of that shows up in simulation depends on how the rail is returned
// to the grid.  This bench sweeps the return-path model at 10x256 and
// reports the simulated and formula tdp for SADP.
#include <iostream>

#include "core/session.h"
#include "util/table.h"

int main()
{
    using namespace mpsram;

    struct Variant {
        const char* name;
        int strap_interval;
        double sharing;
    };
    const Variant variants[] = {
        {"end-tapped, sharing 8 (default)", 0, 8.0},
        {"end-tapped, sharing 4 (weaker return)", 0, 4.0},
        {"strapped every 32 cells", 32, 8.0},
        {"strapped every 96 cells", 96, 8.0},
    };

    constexpr int n = 256;
    std::cout << "Ablation: VSS return path vs SADP tdp divergence "
                 "(10x" << n << ")\n\n";

    util::Table table({"VSS return model", "SADP tdp sim", "SADP tdp formula",
                       "divergence"});

    for (const Variant& v : variants) {
        core::Study_options so;
        so.netlist.vss_strap_interval = v.strap_interval;
        so.netlist.vss_rail_sharing = v.sharing;
        const core::Study_session session(tech::n10(), so);

        const auto row =
            session
                .run(core::Query(core::Metric::worst_case_tdp)
                         .with_case({tech::Patterning_option::sadp, n}))
                .as<core::Tdp_row>(0);
        table.add_row({v.name, util::fmt_fixed(row.tdp_simulation, 2) + "%",
                       util::fmt_fixed(row.tdp_formula, 2) + "%",
                       util::fmt_fixed(
                           row.tdp_simulation - row.tdp_formula, 2) +
                           " pts"});
    }

    std::cout << table.render() << '\n'
              << "Expected: the divergence grows as the rail return gets\n"
                 "weaker (more rail resistance in the discharge path) and\n"
                 "collapses when the rail is strapped densely — the formula\n"
                 "has no RVSS term, so dense strapping makes it accurate.\n";
    return 0;
}
