// Metric-centric query layer (PR 5): one declarative request type for
// every study artifact instead of one method per figure.
//
// A `Query` names a `Metric` (what to measure) and composes the study's
// axes — patterning options x word-line counts x overlay budgets, plus the
// accuracy policy and, for distribution-valued metrics, the Monte-Carlo
// spec.  `Study_session::run(query)` (session.h) executes any query
// through one generic fan-out on `Run_plan` and returns a `Result_table`
// with typed row accessors:
//
//     Study_session session;
//     auto table = session.run(Query(Metric::read_td)
//                                  .over_word_lines(option, sizes)
//                                  .on(Runner_options::parallel()));
//     double tdp = table.as<Read_row>(0).tdp_percent;
//
// Adding a workload is registering a metric descriptor (session.cpp), not
// growing the study surface: the half-select read-disturb metric
// (Metric::disturb) exists purely through the registry.
#ifndef MPSRAM_CORE_QUERY_H
#define MPSRAM_CORE_QUERY_H

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/runner.h"
#include "mc/distribution.h"
#include "sram/sim_accuracy.h"
#include "tech/patterning_option.h"
#include "util/token_table.h"

namespace mpsram::core {

/// The measurable quantities of the study.  Each value keys a descriptor
/// in the metric registry (session.cpp) bundling its simulation-context
/// traits, nominal memo, and measurement functor.
enum class Metric {
    worst_case_rc,   ///< Table I row: worst corner + victim R/C impact
    read_td,         ///< Fig. 4 row: nominal td, worst-corner td, tdp
    nominal_td,      ///< Table II row: nominal td, SPICE vs formula
    worst_case_tdp,  ///< Table III row: worst-case tdp, SPICE vs formula
    mc_tdp,          ///< Fig. 5 / Table IV: Monte-Carlo tdp distribution
    write_tw,        ///< write analogue of Fig. 4: tw nominal/varied/twp
    nominal_tw,      ///< nominal tw, SPICE vs formula
    mc_twp,          ///< Monte-Carlo twp distribution
    disturb,         ///< half-select read-disturb bump, nominal vs corner
};

inline constexpr auto metric_tokens = util::token_table<Metric>(
    "metric", {{Metric::worst_case_rc, "worst_case_rc"},
               {Metric::read_td, "read_td"},
               {Metric::nominal_td, "nominal_td"},
               {Metric::worst_case_tdp, "worst_case_tdp"},
               {Metric::mc_tdp, "mc_tdp"},
               {Metric::write_tw, "write_tw"},
               {Metric::nominal_tw, "nominal_tw"},
               {Metric::mc_twp, "mc_twp"},
               {Metric::disturb, "disturb"}});

inline std::string_view to_string(Metric metric)
{
    return metric_tokens.name(metric);
}

/// One case (result row request) of a query: a point on the study's axes.
/// Metrics that do not depend on an axis ignore it — `nominal_td` /
/// `nominal_tw` ignore `option` and `ol_3sigma`; single-mask options
/// ignore `ol_3sigma` everywhere.
struct Query_case {
    tech::Patterning_option option = tech::Patterning_option::euv;
    int word_lines = 0;       ///< <= 0: the session's array default
    double ol_3sigma = -1.0;  ///< < 0: technology default (LE3 only)

    bool operator==(const Query_case&) const = default;
};

// --- engine tiers ------------------------------------------------------------
// The distribution-valued metrics (mc_tdp, mc_twp) choose how each sample
// is evaluated.  Three tiers, trading exactness for throughput:
//
//   tier       per-sample work                    cost      fidelity
//   ---------  ---------------------------------  --------  -------------------
//   spice      realize geometry, extract RC,      ~10 ms    exact (the paper's
//              run a SPICE transient                        own method)
//   formula    realize geometry, extract RC,      ~10 us    analytic model
//              evaluate the closed-form td/tw               (eq. 4 / write
//              model on the extracted factors               analogue)
//   surrogate  evaluate a calibrated quadratic    ~1 us     held-out-gated fit
//              response surface, no geometry                of the SPICE
//              (analytic/response_surface.h)                response
//
// The surrogate tier is auto-calibrated per (option, word_lines,
// ol_3sigma) on first use — a small SPICE design set fitted and validated
// behind Study_session's calibration memo — and refuses to serve a fit
// that misses Surrogate_options::budget_rel on held-out points.  All
// tiers draw identical process samples for a given seed, so same-seed
// cross-tier comparisons expose pure model error.

/// Sample-metric engine of the `mc_tdp` metric: `formula` (the paper's
/// Monte-Carlo method and the historical default) extracts each sample's
/// parasitics and evaluates the analytic td model; `spice` runs a read
/// transient per sample on a per-worker context; `surrogate` samples the
/// calibrated response surface — the million-sample yield tier.
enum class Tdp_engine { formula, spice, surrogate };

/// Sample-metric engine of the `mc_twp` metric: `spice` rolls up every
/// sample's geometry and runs a write transient on a per-worker context
/// (exact, expensive — keep sample counts modest); `formula` evaluates
/// the analytic tw model (analytic/tw_formula.h) so 10k-sample write
/// distributions cost what the read MC does; `surrogate` samples the
/// calibrated response surface (see the tier table above).
enum class Twp_engine { spice, formula, surrogate };

inline constexpr auto tdp_engine_tokens = util::token_table<Tdp_engine>(
    "tdp engine", {{Tdp_engine::formula, "formula"},
                   {Tdp_engine::spice, "spice"},
                   {Tdp_engine::surrogate, "surrogate"}});
inline constexpr auto twp_engine_tokens = util::token_table<Twp_engine>(
    "twp engine", {{Twp_engine::spice, "spice"},
                   {Twp_engine::formula, "formula"},
                   {Twp_engine::surrogate, "surrogate"}});

inline std::string_view to_string(Tdp_engine engine)
{
    return tdp_engine_tokens.name(engine);
}
inline std::string_view to_string(Twp_engine engine)
{
    return twp_engine_tokens.name(engine);
}

/// A declarative study request: metric + cases + execution policy.
/// Execution contract: results are indexed like `cases` and bitwise
/// identical at any thread count.
///
/// Persistence: a query serializes to canonical JSON and its result is
/// cacheable under a canonical hash (core/serialize.h).  The hash covers
/// everything that changes the VALUE of the answer — metric, resolved
/// cases, resolved accuracy/solver, engine tiers, MC spec, and the
/// session's configuration fingerprint — and deliberately excludes pure
/// execution policy (`runner`, `mc.runner`, cache options): the bitwise
/// thread-count determinism above is exactly what makes a thread-count-
/// free key sound.
struct Query {
    Query() = default;
    explicit Query(Metric m) : metric(m) {}

    Metric metric = Metric::read_td;
    std::vector<Query_case> cases;

    /// Backend for the per-case fan-out.  Distribution-valued metrics
    /// (mc_tdp, mc_twp) and worst_case_rc run their cases in plan order
    /// and parallelize inside each case instead (sample loops on
    /// `mc.runner`, corner enumerations on `runner`), so every case's
    /// result is independent of the sweep composition.
    Runner_options runner;

    /// Integration-engine override for every transient of this query;
    /// unset uses the session's Study_options policies.  The nominal
    /// memos are keyed per policy, so mixing accuracies on one session
    /// never crosses results between engines.
    std::optional<sram::Sim_accuracy> accuracy;

    /// Linear-solver tier override for every transient of this query;
    /// unset defers to the session options and ultimately the resolution
    /// contract of sram/solver_policy.h (reference accuracy always runs
    /// direct; an explicit reuse tier under reference throws).  Memos are
    /// keyed on the RESOLVED policy, so mixing solver tiers on one
    /// session never crosses results between them.
    std::optional<spice::Solver_policy> solver;

    /// Monte-Carlo spec (sample count, seed, sampling scheme, sample-loop
    /// runner) for the distribution-valued metrics; ignored otherwise.
    mc::Distribution_options mc;

    /// Sample engine for mc_tdp (see the tier table); ignored otherwise.
    Tdp_engine tdp_engine = Tdp_engine::formula;

    /// Sample engine for mc_twp (see Twp_engine); ignored otherwise.
    Twp_engine twp_engine = Twp_engine::spice;

    // --- fluent axis composition ---------------------------------------------
    Query& with_case(Query_case c)
    {
        cases.push_back(c);
        return *this;
    }
    /// One case per patterning option at a fixed array length.
    Query& over_options(std::span<const tech::Patterning_option> options,
                        int word_lines = 0, double ol_3sigma = -1.0)
    {
        for (const auto option : options) {
            cases.push_back({option, word_lines, ol_3sigma});
        }
        return *this;
    }
    /// One case per word-line count for a fixed option (a sweep).
    Query& over_word_lines(tech::Patterning_option option,
                           std::span<const int> word_lines,
                           double ol_3sigma = -1.0)
    {
        for (const int n : word_lines) {
            cases.push_back({option, n, ol_3sigma});
        }
        return *this;
    }
    /// One case per overlay budget for a fixed option and array length.
    Query& over_ol_budgets(tech::Patterning_option option, int word_lines,
                           std::span<const double> budgets)
    {
        for (const double ol : budgets) {
            cases.push_back({option, word_lines, ol});
        }
        return *this;
    }
    Query& on(const Runner_options& r)
    {
        runner = r;
        return *this;
    }
    Query& with_accuracy(sram::Sim_accuracy a)
    {
        accuracy = a;
        return *this;
    }
    Query& with_solver(spice::Solver_policy p)
    {
        solver = p;
        return *this;
    }
    Query& with_mc(const mc::Distribution_options& m)
    {
        mc = m;
        return *this;
    }
    Query& with_tdp_engine(Tdp_engine engine)
    {
        tdp_engine = engine;
        return *this;
    }
    Query& with_twp_engine(Twp_engine engine)
    {
        twp_engine = engine;
        return *this;
    }
};

// --- result row types --------------------------------------------------------
// One struct per metric family; `Result_table::as<Row>(i)` recovers the
// typed row.  All comparisons are bitwise (IEEE ==), matching the
// determinism contract the parity tests assert.

/// Table I row.
struct Worst_case_row {
    tech::Patterning_option option = tech::Patterning_option::euv;
    std::string corner;        ///< human-readable worst corner
    double cbl_percent = 0.0;  ///< victim Cbl change
    double rbl_percent = 0.0;  ///< victim Rbl change
    double vss_r_percent = 0.0;

    bool operator==(const Worst_case_row&) const = default;
};

/// Fig. 4 row.
struct Read_row {
    double td_nominal = 0.0;  ///< [s] SPICE, no variability
    double td_varied = 0.0;   ///< [s] SPICE at the worst corner
    double tdp_percent = 0.0;

    bool operator==(const Read_row&) const = default;
};

/// Table II row.
struct Nominal_td_row {
    double td_simulation = 0.0;  ///< [s]
    double td_formula = 0.0;     ///< [s]

    bool operator==(const Nominal_td_row&) const = default;
};

/// Table III row.
struct Tdp_row {
    double tdp_simulation = 0.0;  ///< [%]
    double tdp_formula = 0.0;     ///< [%]

    bool operator==(const Tdp_row&) const = default;
};

/// Write analogue of a Fig. 4 row.
struct Write_row {
    double tw_nominal = 0.0;  ///< [s] SPICE, no variability
    double tw_varied = 0.0;   ///< [s] SPICE at the worst corner
    double twp_percent = 0.0;

    bool operator==(const Write_row&) const = default;
};

/// Nominal write time, SPICE vs the analytic tw model.
struct Nominal_tw_row {
    double tw_simulation = 0.0;  ///< [s]
    double tw_formula = 0.0;     ///< [s]

    bool operator==(const Nominal_tw_row&) const = default;
};

/// Half-select read-disturb row: the storage-node bump of a 0-storing
/// cell whose word line fires while its column is held precharged (a
/// read of another column in the same row).
struct Disturb_row {
    double v_bump_nominal = 0.0;  ///< [V] peak q excursion, nominal wires
    double v_bump_varied = 0.0;   ///< [V] at the worst-case corner
    double disturb_percent = 0.0; ///< (varied / nominal - 1) * 100

    bool operator==(const Disturb_row&) const = default;
};

using Row_value =
    std::variant<Worst_case_row, Read_row, Nominal_td_row, Tdp_row,
                 Write_row, Nominal_tw_row, Disturb_row,
                 mc::Tdp_distribution>;

/// The answer to a query: one row per case, indexed like `Query::cases`.
/// Rows are typed — `as<Read_row>(i)` recovers the struct for the row's
/// metric and throws std::bad_variant_access on a metric mismatch, so a
/// driver reading the wrong row type fails loudly, not with garbage.
class Result_table {
public:
    Result_table() = default;
    Result_table(Metric metric, std::vector<Query_case> cases,
                 std::vector<Row_value> rows);

    Metric metric() const { return metric_; }
    std::size_t size() const { return rows_.size(); }
    bool empty() const { return rows_.empty(); }

    /// The axes the row answers (option / word_lines / ol_3sigma, with
    /// word_lines <= 0 resolved to the session default).
    const Query_case& axes(std::size_t i) const;

    /// Typed row access.
    template <class Row>
    const Row& as(std::size_t i) const
    {
        return std::get<Row>(raw(i));
    }

    /// Whole-table view as one row type (sweep consumers).
    template <class Row>
    std::vector<Row> column() const
    {
        std::vector<Row> out;
        out.reserve(rows_.size());
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            out.push_back(std::get<Row>(rows_[i]));
        }
        return out;
    }

    const Row_value& raw(std::size_t i) const;

    /// Bitwise row comparison (IEEE ==; the thread-determinism check of
    /// the benches and parity tests).
    bool operator==(const Result_table&) const = default;

private:
    Metric metric_ = Metric::read_td;
    std::vector<Query_case> cases_;
    std::vector<Row_value> rows_;
};

} // namespace mpsram::core

#endif // MPSRAM_CORE_QUERY_H
