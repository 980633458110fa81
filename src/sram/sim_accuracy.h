// Accuracy policy for the SPICE-driven measurement paths.
//
// Every figure of the paper is dominated by transient cost, and almost all
// of that cost is spent resolving waveforms that are quiet for most of the
// window.  The policy picks the integration engine for a measurement:
//
//   reference  fixed nominal-step integration — the validation oracle.
//              Bitwise identical to the pre-policy behaviour; tests and
//              calibration runs pin this engine.
//   fast       adaptive-LTE stepping with the calibrated tolerances below —
//              the production default for sweeps, batch APIs, and the
//              MC / corner-search drivers.
//
// Calibration methodology (bench_perf_spice re-checks it on every run and
// fails if the budget is exceeded): the fast tolerances were chosen by
// sweeping lte_rel/lte_abs/lte_max_growth
// over the full Fig. 4 word-line set {16, 64, 256, 1024}
// for all three patterning options (EUV, SADP, LE3) and keeping the
// loosest setting whose adaptive td and tdp stay within 0.5% of the
// fixed-step reference on every row of Fig. 4 / Table II / Table III,
// while cutting the implicit-solve count by >= 2x on the 10x1024 rows.
// Step selection is input-deterministic (no timers, no thread state), so
// the determinism contract of the batch APIs is unchanged: results are
// bitwise identical at any thread count under either policy.
#ifndef MPSRAM_SRAM_SIM_ACCURACY_H
#define MPSRAM_SRAM_SIM_ACCURACY_H

#include <string_view>

#include "spice/analysis.h"
#include "util/token_table.h"

namespace mpsram::sram {

enum class Sim_accuracy {
    reference,  ///< fixed-step oracle
    fast,       ///< calibrated adaptive-LTE stepping (default)
};

inline constexpr auto sim_accuracy_tokens = util::token_table<Sim_accuracy>(
    "sim accuracy", {{Sim_accuracy::reference, "reference"},
                     {Sim_accuracy::fast, "fast"}});

inline std::string_view to_string(Sim_accuracy accuracy)
{
    return sim_accuracy_tokens.name(accuracy);
}

/// Calibrated adaptive tolerances of the fast policy (methodology above).
inline constexpr double fast_lte_rel = 1e-3;
inline constexpr double fast_lte_abs = 1e-4;
inline constexpr double fast_lte_max_growth = 16.0;

/// Parse a policy token ('reference' or 'fast').  Any other value throws
/// util::Precondition_error naming the offending value and the accepted
/// set — a typo'd MPSRAM_SIM_ACCURACY pin must not silently run the wrong
/// engine.  Exposed separately from default_sim_accuracy() so the
/// rejection path is unit-testable (the default is memoized per process).
Sim_accuracy parse_sim_accuracy(std::string_view text);

/// Process-wide default policy: Sim_accuracy::fast, overridable once per
/// process with MPSRAM_SIM_ACCURACY=reference|fast so test and CI legs can
/// pin the reference engine without code changes.  Invalid values throw
/// via parse_sim_accuracy.
Sim_accuracy default_sim_accuracy();

/// Configure `topts` for the policy: `reference` forces fixed stepping,
/// `fast` enables adaptive LTE control with the calibrated tolerances.
void apply_sim_accuracy(spice::Transient_options& topts,
                        Sim_accuracy accuracy);

} // namespace mpsram::sram

#endif // MPSRAM_SRAM_SIM_ACCURACY_H
