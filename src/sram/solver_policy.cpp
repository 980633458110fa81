#include "sram/solver_policy.h"

#include <cstdlib>

#include "util/contracts.h"

namespace mpsram::sram {

spice::Solver_policy parse_solver_policy(std::string_view text)
{
    // Same loud-failure rule as MPSRAM_SIM_ACCURACY: a typo'd pin must
    // not silently run the wrong solver, and the message must show what
    // was seen and what would have worked.
    return solver_policy_tokens.parse_or_throw(
        text, "invalid MPSRAM_SOLVER_POLICY value");
}

spice::Solver_policy default_solver_policy()
{
    static const spice::Solver_policy value = [] {
        const char* env = std::getenv("MPSRAM_SOLVER_POLICY");
        return env == nullptr ? spice::Solver_policy::bypass
                              : parse_solver_policy(env);
    }();
    return value;
}

spice::Solver_policy resolve_solver_policy(
    Sim_accuracy accuracy, std::optional<spice::Solver_policy> requested)
{
    if (accuracy == Sim_accuracy::reference) {
        util::expects(
            !requested.has_value() ||
                *requested == spice::Solver_policy::direct,
            "Sim_accuracy::reference is the bitwise oracle and only runs "
            "the direct solver; drop the explicit solver request or use "
            "Sim_accuracy::fast");
        return spice::Solver_policy::direct;
    }
    return requested.value_or(default_solver_policy());
}

void apply_solver_policy(spice::Transient_options& topts,
                         spice::Solver_policy policy)
{
    topts.newton.solver = policy;
}

} // namespace mpsram::sram
