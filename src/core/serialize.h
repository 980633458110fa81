// Canonical, versioned JSON serialization of the query layer — the
// persistence contract behind core::Result_cache and the shard driver
// (tools/mpsram_shard).
//
// Two serialization surfaces live here:
//
//   * Transport round-trips (json_of_* / *_of_json): Query, Result_table,
//     mc::Worst_case_result and analytic::Yield_surfaces to and from
//     util::Json.  Every double goes through util::json_of_double, so
//     NaN-poisoned rows (a non-flipping write sample) and -0.0 round-trip
//     bitwise; a parsed table compares bitwise-equal to the one that was
//     dumped.
//
//   * Canonical cache keys.  A cache entry is addressed by the FNV-1a
//     hash of a canonical JSON encoding.  The canonical-hash contract —
//     what participates in a key:
//
//       - the serialization format version (serialization_version below:
//         bump it whenever any encoding changes and every old entry is
//         invalidated wholesale),
//       - the configuration fingerprint: every field of the technology
//         and of Study_options that influences a result (geometry,
//         materials, variability assumptions, timings, netlist structure,
//         measurement windows, surrogate calibration policy) — but NOT
//         the cache options themselves,
//       - the query's value axes with session defaults RESOLVED
//         (word_lines <= 0 becomes the session's array default, negative
//         overlay budgets normalize to -1), so `{16}` and `{0}` on a
//         16-row session share one entry,
//       - the RESOLVED execution policies: effective Sim_accuracy and
//         resolved Solver_policy per measurement path (query override,
//         else session option, through the sram/solver_policy.h
//         resolution contract) — results differ between engines, so keys
//         must too,
//       - the engine tiers (tdp_engine / twp_engine) and the Monte-Carlo
//         spec (samples, seed, truncation, sampling scheme, stored mode).
//
//     What deliberately does NOT participate: Runner_options anywhere
//     (thread counts are execution policy; results are bitwise identical
//     at any thread count — that determinism contract is exactly what
//     makes results cacheable), and the cache mode/directory (a cached
//     and an uncached run must agree on the key of everything else).
//
// Where the spellings live:
//
//   * Enum tokens: one util::Token_table per enum, declared next to the
//     enum (core::metric_tokens in query.h, tech::patterning_option_tokens,
//     sram::sim_accuracy_tokens, geom::mask_color_tokens, ...).  Encoders,
//     decoders, environment parsers and the shard CLI all read it, and
//     every decode error lists its accepted set.
//   * Record keys: serialize.cpp keeps one field list per round-tripped
//     record (query, case, MC spec, sample summary, the row types, the
//     worst-case result and its wires, the surrogate surfaces), and the
//     encoder and the decoder walk the same list.
//   * Fingerprint fields: json_of_technology / json_of_study_options stay
//     hand-kept lists.  Only the encoder reads them, so there is no second
//     copy to merge; what they need is a completeness check (a changed
//     field that does not move the fingerprint), which is still open.
//
// tests/test_golden_results.cpp (GoldenKeys) pins the fingerprint, the
// keys and the dumps: a change that moves one of them orphans the stored
// entries and must bump serialization_version.
#ifndef MPSRAM_CORE_SERIALIZE_H
#define MPSRAM_CORE_SERIALIZE_H

#include <cstdint>
#include <string_view>

#include "analytic/response_surface.h"
#include "core/query.h"
#include "core/session.h"
#include "mc/worst_case.h"
#include "util/json.h"

namespace mpsram::core {

/// Version of every encoding in this header.  Participates in each cache
/// key and in the cache directory layout, so bumping it orphans all
/// previously stored entries at once (they are never misread).
inline constexpr std::uint64_t serialization_version = 1;

// --- transport round-trips ---------------------------------------------------

/// Query as JSON (metric, cases, policies, MC spec, engine tiers; the
/// runner is execution policy and is not serialized).
util::Json json_of_query(const Query& q);
Query query_of_json(const util::Json& j);

/// Result_table as JSON: metric, resolved case axes, and one typed row
/// object per case.  Bitwise round-trip, NaN rows included.
util::Json json_of_result_table(const Result_table& t);
Result_table result_table_of_json(const util::Json& j);

/// Worst-case search result (corner sample + metric, victim variation,
/// VSS factor, and the full realized geometry).
util::Json json_of_worst_case(const mc::Worst_case_result& wc);
mc::Worst_case_result worst_case_of_json(const util::Json& j);

/// Calibrated surrogate surfaces (scales + coefficients per surface plus
/// the fit diagnostics the gates report).
util::Json json_of_surfaces(const analytic::Yield_surfaces& s);
analytic::Yield_surfaces surfaces_of_json(const util::Json& j);

// --- canonical cache keys ----------------------------------------------------

/// FNV-1a digest over every result-influencing field of the technology
/// and the study options (field-name-salted canonical JSON).  The cache
/// options themselves are excluded — see the contract above.
std::uint64_t config_fingerprint(const tech::Technology& tech,
                                 const Study_options& opts);

/// The canonical (resolved, versioned, fingerprinted) encoding of a query
/// on a session — the preimage of query_key, exposed for tests and the
/// shard driver.
util::Json canonical_query_json(const Study_session& session,
                                const Query& q);

/// Cache key of a full query result on a session.
std::uint64_t query_key(const Study_session& session, const Query& q);

/// Sub-artifact keys (the session's memo granularity).  `fingerprint` is
/// config_fingerprint; negative overlay budgets normalize to -1.
std::uint64_t corner_key(std::uint64_t fingerprint,
                         tech::Patterning_option option, int word_lines,
                         double ol_3sigma);
/// `kind` is "nominal_td", "nominal_tw" or "nominal_disturb".
std::uint64_t nominal_key(std::uint64_t fingerprint, std::string_view kind,
                          int word_lines, sram::Sim_accuracy accuracy,
                          spice::Solver_policy solver);
std::uint64_t surface_key(std::uint64_t fingerprint, Metric metric,
                          tech::Patterning_option option, int word_lines,
                          double ol_3sigma, sram::Sim_accuracy accuracy,
                          spice::Solver_policy solver);

} // namespace mpsram::core

#endif // MPSRAM_CORE_SERIALIZE_H
