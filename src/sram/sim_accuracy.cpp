#include "sram/sim_accuracy.h"

#include <cstdlib>

namespace mpsram::sram {

Sim_accuracy parse_sim_accuracy(std::string_view text)
{
    // A typo must not silently run the wrong engine: someone pinning the
    // oracle for a validation run needs the pin to fail loudly, and the
    // message must show what was seen and what would have worked.
    return sim_accuracy_tokens.parse_or_throw(
        text, "invalid MPSRAM_SIM_ACCURACY value");
}

Sim_accuracy default_sim_accuracy()
{
    static const Sim_accuracy value = [] {
        const char* env = std::getenv("MPSRAM_SIM_ACCURACY");
        return env == nullptr ? Sim_accuracy::fast : parse_sim_accuracy(env);
    }();
    return value;
}

void apply_sim_accuracy(spice::Transient_options& topts,
                        Sim_accuracy accuracy)
{
    if (accuracy == Sim_accuracy::reference) {
        topts.adaptive = false;
        return;
    }
    topts.adaptive = true;
    topts.lte_rel = fast_lte_rel;
    topts.lte_abs = fast_lte_abs;
    topts.lte_max_growth = fast_lte_max_growth;
}

} // namespace mpsram::sram
