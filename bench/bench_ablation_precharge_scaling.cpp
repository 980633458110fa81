// Ablation: sensitivity of the tdp(n) trend to the precharge scaling law
// Cpre(n).
//
// The paper notes Cpre "is a function of n according to the scaling
// formula that is used" and that the almost-constant a*RFE*Cpre term bends
// the tdp trend.  This bench evaluates the EUV and LE3 worst-case tdp via
// the formula under three scaling laws and reports where the EUV penalty
// crosses zero.
#include <functional>
#include <iostream>

#include "core/session.h"
#include "util/table.h"

int main()
{
    using namespace mpsram;

    const core::Study_session session;

    // Worst-case variation factors per option (n-independent).
    const auto wc_le3 =
        session.worst_case_full(tech::Patterning_option::le3, 64);
    const auto wc_euv =
        session.worst_case_full(tech::Patterning_option::euv, 64);

    const sram::Cell_electrical cell =
        sram::Cell_electrical::n10(session.technology().feol);
    const double cj = cell.c_junction;

    struct Law {
        const char* name;
        std::function<double(int)> c_pre;
    };
    const Law laws[] = {
        {"constant (3.5 junctions)", [cj](int) { return 3.5 * cj; }},
        {"banked (default)", [cell](int n) { return sram::precharge_cap(n, cell); }},
        {"linear in n", [cj](int n) { return cj * (2.0 + 1.5 * n / 16.0); }},
    };

    std::cout << "Ablation: precharge scaling law vs tdp(n) trend "
                 "(formula)\n\n";
    util::Table table({"Cpre law", "option", "tdp@16", "tdp@64", "tdp@256",
                       "tdp@1024"});

    for (const Law& law : laws) {
        for (const auto* wc : {&wc_le3, &wc_euv}) {
            const bool is_le3 = (wc == &wc_le3);
            std::vector<std::string> row{
                law.name, std::string(tech::to_string(
                              is_le3 ? tech::Patterning_option::le3
                                     : tech::Patterning_option::euv))};
            for (int n : {16, 64, 256, 1024}) {
                analytic::Td_params p = session.formula_params(n);
                p.c_pre = law.c_pre;
                row.push_back(util::fmt_fixed(
                    analytic::tdp_percent(p, n, wc->variation.r_factor,
                                          wc->variation.c_factor),
                    2));
            }
            table.add_row(std::move(row));
        }
    }

    std::cout << table.render() << '\n'
              << "Expected: a constant Cpre preserves the rise-then-fall\n"
                 "trend; a Cpre that grows linearly with n keeps diluting\n"
                 "the wire term and pushes the EUV zero-crossing out.\n";
    return 0;
}
