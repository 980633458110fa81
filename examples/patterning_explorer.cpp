// Patterning explorer: visualize the worst-case metal1 layout distortion
// (the paper's Fig. 2) as an ASCII cross-section, per option, and check it
// against the design rules.
//
//   $ ./patterning_explorer
#include <iostream>
#include <string>

#include "core/session.h"
#include "geom/drc.h"
#include "util/units.h"

namespace {

using namespace mpsram;

/// Render the track stack around the victim: one row per wire, drawn to
/// scale in 2 nm character cells.
void render(const geom::Wire_array& arr, std::size_t victim, int radius)
{
    const double scale = 2.0 * units::nm;
    const double origin =
        arr[victim - static_cast<std::size_t>(radius)].y_center -
        20.0 * units::nm;

    for (std::size_t i = victim - static_cast<std::size_t>(radius);
         i <= victim + static_cast<std::size_t>(radius); ++i) {
        const geom::Wire& w = arr[i];
        const double lo = w.y_center - 0.5 * w.width;
        const auto pad = static_cast<int>((lo - origin) / scale);
        const auto bar = static_cast<int>(w.width / scale);
        std::cout << (i == victim ? "victim " : "       ")
                  << std::string(static_cast<std::size_t>(std::max(pad, 0)),
                                 ' ')
                  << std::string(static_cast<std::size_t>(std::max(bar, 1)),
                                 '#')
                  << "  " << w.net << " (w=" << w.width / units::nm
                  << " nm)\n";
    }
}

} // namespace

int main()
{
    const core::Study_session session;
    const auto& rules = session.technology().metal1.drc;
    constexpr int n = 64;

    for (const auto option : tech::patterning_option_tokens.values) {
        const auto wc = session.worst_case_full(option, n);
        const auto nominal = session.decomposed_array(option, n);
        const std::size_t victim =
            sram::find_victim_wires(nominal, session.options().array).bl;
        // The Table I row at the session's default array length.
        const auto table1 =
            session.run(core::Query(core::Metric::worst_case_rc)
                            .with_case({option, 0}));

        std::cout << "=== " << tech::to_string(option)
                  << " worst case ===\n";
        std::cout << "corner: "
                  << table1.as<core::Worst_case_row>(0).corner << "\n\n";
        std::cout << "nominal tracks:\n";
        render(nominal, victim, 2);
        std::cout << "\nworst-case tracks:\n";
        render(wc.realized, victim, 2);

        const auto violations = geom::check_drc(wc.realized, rules);
        if (violations.empty()) {
            std::cout << "\nDRC: clean — the corner is manufacturable.\n";
        } else {
            std::cout << "\nDRC: " << violations.size()
                      << " violation(s):\n";
            for (const auto& v : violations) {
                std::cout << "  " << v.describe() << '\n';
            }
        }
        std::cout << "\nvictim dCbl = "
                  << wc.variation.c_percent() << "%, dRbl = "
                  << wc.variation.r_percent() << "%\n\n";
    }
    return 0;
}
