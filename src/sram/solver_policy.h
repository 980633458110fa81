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

#include <optional>
#include <string_view>

#include "spice/analysis.h"
#include "sram/sim_accuracy.h"
#include "util/token_table.h"

namespace mpsram::sram {

/// Every solver tier, the direct oracle first: the one place the tier set
/// is named.  parse_solver_policy, the query decoder and the shard CLI all
/// read it, and its accepted() text is what their errors list.
inline constexpr auto solver_policy_tokens =
    util::token_table<spice::Solver_policy>(
        "solver policy", {{spice::Solver_policy::direct, "direct"},
                          {spice::Solver_policy::bypass, "bypass"}});

inline std::string_view to_string(spice::Solver_policy policy)
{
    return solver_policy_tokens.name(policy);
}

/// Parse a solver-tier token (one of solver_policy_tokens).  Any other
/// value throws util::Precondition_error naming the offending value
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

} // namespace mpsram::sram

#endif // MPSRAM_SRAM_SOLVER_POLICY_H
