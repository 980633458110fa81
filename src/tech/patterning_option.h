// The three metal1 patterning options compared by the paper (Section I):
// triple litho-etch (LELELE), self-aligned double patterning, and
// single-patterning EUV.
#ifndef MPSRAM_TECH_PATTERNING_OPTION_H
#define MPSRAM_TECH_PATTERNING_OPTION_H

#include <string_view>

#include "util/token_table.h"

namespace mpsram::tech {

enum class Patterning_option {
    le3,   ///< triple litho-etch (LELELE)
    sadp,  ///< self-aligned double patterning
    euv,   ///< single-patterning extreme-UV
};

/// Paper-style labels; `values` lists the options in the order the paper
/// tabulates them.
inline constexpr auto patterning_option_tokens =
    util::token_table<Patterning_option>(
        "patterning option", {{Patterning_option::le3, "LELELE"},
                              {Patterning_option::sadp, "SADP"},
                              {Patterning_option::euv, "EUV"}});

inline std::string_view to_string(Patterning_option option)
{
    return patterning_option_tokens.name(option);
}

} // namespace mpsram::tech

#endif // MPSRAM_TECH_PATTERNING_OPTION_H
