// Linear-solver policy for the SPICE-driven measurement paths.
//
// The second execution-policy axis next to Sim_accuracy: the accuracy
// tier decides WHICH time points are solved, the solver tier decides HOW
// each Newton linear system is solved (spice::Solver_policy — direct /
// bypass; full semantics in spice/analysis.h).
//
// Resolution contract (enforced in resolve_solver_policy, checked on all
// three workload paths — read, write, disturb):
//
//   * Sim_accuracy::reference is the bitwise oracle tier.  An EXPLICIT
//     request for the reuse tier (bypass) under reference is a contract
//     violation and throws — the caller asked for two incompatible
//     guarantees.  Reference always runs `direct`.
//   * A defaulted request (std::nullopt) resolves to `direct` under
//     reference and to default_solver_policy() under fast, so an
//     environment pin like MPSRAM_SOLVER_POLICY=bypass never breaks
//     the reference side of an agreement run.
//
// The bypass tier evolves its factorization state deterministically
// from the solve inputs (no timers, no thread state), so the bitwise
// thread-count determinism contract holds per policy.
#ifndef MPSRAM_SRAM_SOLVER_POLICY_H
#define MPSRAM_SRAM_SOLVER_POLICY_H

#include <array>
#include <optional>
#include <string>
#include <string_view>

#include "spice/analysis.h"
#include "sram/sim_accuracy.h"

namespace mpsram::sram {

/// Parse a solver-tier token (to_string of one of solver_policies).  Any
/// other value throws util::Precondition_error naming the offending value
/// and the accepted set.  Exposed separately from default_solver_policy()
/// so the rejection path is unit-testable (the default is memoized per
/// process).
spice::Solver_policy parse_solver_policy(std::string_view text);

/// Process-wide default solver tier under fast accuracy:
/// spice::Solver_policy::bypass, overridable once per process with
/// MPSRAM_SOLVER_POLICY=direct|bypass.  Invalid values throw via
/// parse_solver_policy.
spice::Solver_policy default_solver_policy();

/// Resolve a possibly-defaulted solver request against the accuracy tier
/// (contract above).  Throws util::Precondition_error on an explicit
/// reuse-tier request under Sim_accuracy::reference.
spice::Solver_policy resolve_solver_policy(
    Sim_accuracy accuracy, std::optional<spice::Solver_policy> requested);

/// Configure `topts` for the resolved policy (transient Newton only; the
/// DC operating point keeps its own options and stays direct).
void apply_solver_policy(spice::Transient_options& topts,
                         spice::Solver_policy policy);

/// Every solver tier, the direct oracle first.  The token parsers
/// (parse_solver_policy, core's query decoder) iterate this list through
/// to_string, so it is the one place the tier set is named.
inline constexpr std::array solver_policies = {spice::Solver_policy::direct,
                                               spice::Solver_policy::bypass};

const char* to_string(spice::Solver_policy policy);

/// The accepted tokens for error messages: "'direct', 'bypass'".
std::string solver_policy_tokens();

} // namespace mpsram::sram

#endif // MPSRAM_SRAM_SOLVER_POLICY_H
