// Study_session: the execution engine behind every study query (PR 5).
//
// A session binds a technology + Study_options and owns the shared state
// a study accumulates — the extractor, the promise-backed worst-case
// memo, and the per-metric nominal memos.  Every artifact of the paper
// (and every extension workload) is obtained the same way:
//
//     Study_session session;
//     Result_table t = session.run(query);
//
// run() executes ANY metric through one generic fan-out: normalize the
// query's cases, allocate one Worker_scratch (read/write/disturb
// simulation contexts) per worker, put one case per job on a Run_plan,
// and dispatch each job to the metric's registered evaluator.  The
// registry (session.cpp) is the extension seam: a new workload registers
// a Metric_descriptor — its context traits, nominal memo, and measurement
// functor — and inherits batching, memoization, accuracy policy, and the
// determinism contract without touching this class.  The half-select
// disturb metric is exactly such a registration.
//
// Determinism contract: one job per case, each writing only its own
// row; randomized metrics derive their streams from sample indices;
// results are bitwise identical at any thread count.
#ifndef MPSRAM_CORE_SESSION_H
#define MPSRAM_CORE_SESSION_H

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <tuple>

#include "analytic/params.h"
#include "analytic/response_surface.h"
#include "core/query.h"
#include "core/result_cache.h"
#include "core/runner.h"
#include "extract/extractor.h"
#include "mc/worst_case.h"
#include "pattern/engine.h"
#include "sram/disturb_sim.h"
#include "sram/read_sim.h"
#include "sram/write_sim.h"
#include "tech/technology.h"

namespace mpsram::core {

struct Study_options {
    sram::Array_config array;  ///< bl_pairs defaults to the paper's 10
    extract::Extraction_options extraction;
    sram::Read_timing timing;
    /// Read-measurement options, including the integration-engine policy:
    /// `read.accuracy` defaults to the calibrated adaptive-LTE engine
    /// (sram::Sim_accuracy::fast) and governs every read transient the
    /// session runs unless a query overrides it (Query::accuracy).  Pin
    /// sram::Sim_accuracy::reference for the fixed-step oracle.  Either
    /// way results are bitwise identical at any thread count.
    sram::Read_options read;
    sram::Netlist_options netlist;
    sram::Write_timing write_timing;
    /// Write-measurement options; `write.accuracy` governs the write-path
    /// transients exactly like `read.accuracy` does the read's.
    sram::Write_options write;
    /// Half-select measurement options; the disturb schedule itself is
    /// the read timing (`timing`) — the disturb is a read of another
    /// column in the same row.
    sram::Disturb_options disturb;
    /// Calibration policy of the surrogate engine tier: design-box span,
    /// held-out validation size, and the relative-error budget a fitted
    /// surface must meet before the session serves it.
    analytic::Surrogate_options surrogate;
    /// On-disk result cache policy (core/result_cache.h).  Unset fields
    /// fall back to the MPSRAM_CACHE / MPSRAM_CACHE_DIR pins; with no
    /// directory from either source the session runs uncached.  These
    /// options never enter the canonical cache keys — caching is
    /// execution policy, like thread counts.
    Cache_options cache;
};

class Study_session {
public:
    explicit Study_session(tech::Technology tech = tech::n10(),
                           Study_options opts = Study_options{});

    const tech::Technology& technology() const { return tech_; }
    const Study_options& options() const { return opts_; }

    /// Execute a query: one row per case, indexed like `query.cases`,
    /// bitwise identical at any `query.runner` thread count.  Cases with
    /// word_lines <= 0 resolve to `options().array.word_lines`.
    ///
    /// Safe for concurrent callers on one shared session — this is the
    /// entry point the query service daemon (core/service.h) multiplexes
    /// clients onto.  The shared state is either promise-backed (corner
    /// and surface memos: one compute per key, concurrent callers wait)
    /// or mutex-guarded (nominal memos), and the on-disk cache is atomic;
    /// every caller receives the same bitwise-identical rows.
    Result_table run(const Query& query) const;

    /// Queries executed through run() since construction (memoized or
    /// not) — the serve-traffic observable reported by the service
    /// daemon's `status` op.
    std::size_t query_run_count() const
    {
        return query_runs_.load(std::memory_order_relaxed);
    }

    // --- building blocks (exposed for examples, benches and tests) -----------
    /// Nominal metal1 array, decomposed for the option.
    geom::Wire_array decomposed_array(tech::Patterning_option option,
                                      int word_lines,
                                      double ol_3sigma = -1.0) const;

    const extract::Extractor& extractor() const { return *extractor_; }

    /// SPICE td with explicit wire electricals (session accuracy policy).
    double simulate_td(const sram::Bitline_electrical& wires,
                       int word_lines) const;

    /// Formula parameters at nominal wires for a given array length.
    analytic::Td_params formula_params(int word_lines) const;

    /// Write-formula parameters at nominal wires (analytic/tw_formula.h).
    analytic::Tw_params tw_formula_params(int word_lines) const;

    /// Worst-case search result with full geometry.  Memoized on
    /// (option, word_lines, ol_3sigma): the corner enumeration runs
    /// exactly once per key no matter how many callers — concurrent ones
    /// included — ask for it; every metric shares the same memo.
    /// `runner` only matters for the caller that performs the enumeration.
    mc::Worst_case_result worst_case_full(tech::Patterning_option option,
                                          int word_lines,
                                          double ol_3sigma = -1.0,
                                          const Runner_options& runner = {})
        const;

    /// Corner enumerations actually performed (not memo hits) since
    /// construction — the observable for the one-search-per-key contract.
    std::size_t corner_search_count() const
    {
        return corner_searches_.load(std::memory_order_relaxed);
    }

    /// Calibrated surrogate surfaces of a distribution metric (`mc_tdp`
    /// or `mc_twp`) at a study point: a small SPICE design set evaluated
    /// on `runner` (one job per design point — bitwise identical at any
    /// thread count), least-squares fitted, and validated on held-out
    /// Gaussian draws.  Throws if the held-out relative error misses
    /// `options().surrogate.budget_rel` — the gate that refuses to serve
    /// a bad fit.  Memoized on (metric, option, word_lines, ol_3sigma,
    /// accuracy, resolved solver policy) behind a promise-backed memo
    /// like the worst-case search: concurrent queries of one key fit
    /// exactly once.  `accuracy` defaults to the session's read/write
    /// policy for the metric; `solver` resolves against it
    /// (sram/solver_policy.h).
    std::shared_ptr<const analytic::Yield_surfaces> calibrated_surfaces(
        Metric metric, tech::Patterning_option option, int word_lines,
        double ol_3sigma = -1.0,
        std::optional<sram::Sim_accuracy> accuracy = std::nullopt,
        std::optional<spice::Solver_policy> solver = std::nullopt,
        const Runner_options& runner = {}) const;

    /// Surface calibrations actually performed (not memo hits) since
    /// construction — the observable for the one-fit-per-key contract.
    std::size_t surface_fit_count() const
    {
        return surface_fits_.load(std::memory_order_relaxed);
    }

    // --- on-disk result cache -------------------------------------------------
    // When Study_options::cache (or the MPSRAM_CACHE_DIR pin) names a
    // directory, the session persists its expensive artifacts across
    // processes: full query results in run(), worst-case corners, nominal
    // SPICE transients, and calibrated surrogate fits — each addressed by
    // the canonical-hash contract of core/serialize.h.  The keys cover
    // everything that influences a result (configuration fingerprint,
    // resolved axes, resolved execution policies, MC spec, engine tiers,
    // format version) and deliberately exclude everything that does not
    // (thread counts, cache mode/directory).  That is sound because of
    // the determinism contract above: a result is a pure function of its
    // key material, bitwise identical at any thread count, so an entry
    // written by any process — at any parallelism, in any shard — is THE
    // result.  A warm cache therefore skips the corresponding compute
    // entirely (corner_search_count() / surface_fit_count() stay flat on
    // hits) and returns bitwise-identical rows.

    /// Cache traffic of this session (entries served / missed / written).
    /// All zero when the session runs uncached.
    std::uint64_t cache_hit_count() const
    {
        return cache_ ? cache_->hit_count() : 0;
    }
    std::uint64_t cache_miss_count() const
    {
        return cache_ ? cache_->miss_count() : 0;
    }
    std::uint64_t cache_store_count() const
    {
        return cache_ ? cache_->store_count() : 0;
    }
    /// The resolved cache mode (off when no directory is configured).
    Cache_mode cache_mode() const
    {
        return cache_ ? cache_->mode() : Cache_mode::off;
    }

    /// FNV-1a fingerprint of the session's technology + study options
    /// (core/serialize.h) — the configuration component of every cache
    /// key, exposed for the shard driver and tests.
    std::uint64_t config_fingerprint() const { return fingerprint_; }

    /// Per-worker scratch of a query run: one simulation context per
    /// operation kind.  Contexts build their netlists lazily on first
    /// use, so a metric touching only one kind pays only for that one.
    struct Worker_scratch {
        sram::Read_sim_context read;
        sram::Write_sim_context write;
        sram::Disturb_sim_context disturb;
    };

private:
    // The metric evaluators live in session.cpp and are registered in the
    // descriptor table; they reach the memo helpers through friendship.
    friend struct Metric_evaluators;

    tech::Technology tech_with_ol(double ol_3sigma) const;
    /// Extracted per-cell electricals of the nominal (drawn) array.
    sram::Bitline_electrical nominal_wires(int word_lines) const;

    /// The shared derivation every geometry-sampling metric starts from:
    /// array config at the case's length, the option's patterning engine
    /// (under the case's overlay budget), the decomposed nominal array,
    /// and its victim wire indices.
    struct Case_geometry {
        sram::Array_config cfg;
        std::unique_ptr<pattern::Patterning_engine> engine;
        geom::Wire_array nominal;
        sram::Victim_wires victims;
    };
    Case_geometry case_geometry(tech::Patterning_option option,
                                int word_lines, double ol_3sigma) const;

    /// Effective accuracy of a query for one of the option sets: the
    /// query override when present, the session policy otherwise.
    sram::Sim_accuracy read_accuracy(const Query& q) const;
    sram::Sim_accuracy write_accuracy(const Query& q) const;
    sram::Sim_accuracy disturb_accuracy(const Query& q) const;

    /// Effective (resolved) solver tier of a query: the query override
    /// when present, else the session option, resolved against the
    /// path's effective accuracy (sram/solver_policy.h contract).
    spice::Solver_policy read_solver(const Query& q) const;
    spice::Solver_policy write_solver(const Query& q) const;
    spice::Solver_policy disturb_solver(const Query& q) const;

    /// The nominal-wire measurement of the operation `Sim` simulates (td
    /// of a read, tw of a write, the bump of a disturb), memoized in
    /// nominal_cache_ and on disk.  The transient runs on `sim`, or on a
    /// local context when null.
    template <class Sim>
    double nominal_spice(int word_lines, sram::Sim_accuracy accuracy,
                         spice::Solver_policy solver, Sim* sim) const;
    /// One measurement of the operation `sim` simulates (td / tw / bump).
    double simulate_on(const sram::Bitline_electrical& wires,
                       int word_lines, sram::Sim_accuracy accuracy,
                       spice::Solver_policy solver,
                       sram::Read_sim_context& sim) const;
    double simulate_on(const sram::Bitline_electrical& wires,
                       int word_lines, sram::Sim_accuracy accuracy,
                       spice::Solver_policy solver,
                       sram::Write_sim_context& sim) const;
    double simulate_on(const sram::Bitline_electrical& wires,
                       int word_lines, sram::Sim_accuracy accuracy,
                       spice::Solver_policy solver,
                       sram::Disturb_sim_context& sim) const;

    /// Worst-corner wire electricals of a case (memoized corner search +
    /// rollup of the realized geometry).
    sram::Bitline_electrical worst_case_wires(const Query_case& c) const;

    /// The worst-case memo entry for a key, computing it (exactly once,
    /// promise-backed) on a miss.
    std::shared_ptr<const mc::Worst_case_result> worst_case_cached(
        tech::Patterning_option option, int word_lines, double ol_3sigma,
        const Runner_options& runner) const;

    /// The uncached calibration: design + held-out SPICE evaluations,
    /// fit, and the held-out gate.  Called by calibrated_surfaces for the
    /// owning (first) caller of a memo key.
    std::shared_ptr<const analytic::Yield_surfaces> calibrate_surfaces(
        Metric metric, tech::Patterning_option option, int word_lines,
        double ol_3sigma, sram::Sim_accuracy accuracy,
        spice::Solver_policy solver, const Runner_options& runner) const;

    tech::Technology tech_;
    Study_options opts_;
    std::unique_ptr<extract::Extractor> extractor_;
    sram::Cell_electrical cell_;

    /// On-disk cache (null when off or no directory is configured) and
    /// the configuration fingerprint its keys embed.  The cache's own
    /// counters are atomic, so const query paths may use it freely.
    std::shared_ptr<Result_cache> cache_;
    std::uint64_t fingerprint_ = 0;

    // The nominal-measurement memo, keyed on (kind, word_lines, accuracy,
    // resolved solver policy).  The kind is the disk-cache kind of the
    // operation ("nominal_td" / "nominal_tw" / "nominal_disturb"; string
    // literals, so the views never dangle).  The policies are in the key so
    // queries overriding either one on a session never cross results
    // between engines or solver tiers.  Batch evaluators hit it from pool
    // workers, so all access goes through nominal_cache_mutex_; the values
    // are racy-but-deterministic (redundant computes beat serializing
    // behind a transient).
    using Nominal_key = std::tuple<std::string_view, int, sram::Sim_accuracy,
                                   spice::Solver_policy>;
    mutable std::mutex nominal_cache_mutex_;
    mutable std::map<Nominal_key, double> nominal_cache_;
    /// Nominal extraction memo: build_metal1_array + decomposition +
    /// roll-up per word-line count, shared by the formula parameters and
    /// every nominal transient (engine-independent, so keyed on n only).
    mutable std::map<int, sram::Bitline_electrical> nominal_wires_cache_;

    // Worst-case memo: option/word_lines/ol_3sigma (negative budgets
    // normalized to -1) -> shared future of the search result.  The first
    // caller of a key inserts the future and runs the enumeration outside
    // the lock; concurrent callers of the same key wait on the future
    // instead of duplicating the search.
    using Wc_key = std::tuple<tech::Patterning_option, int, double>;
    using Wc_entry =
        std::shared_future<std::shared_ptr<const mc::Worst_case_result>>;
    mutable std::mutex wc_cache_mutex_;
    mutable std::map<Wc_key, Wc_entry> wc_cache_;
    mutable std::atomic<std::size_t> corner_searches_{0};

    // Surrogate calibration memo, same promise-backed shape as the
    // worst-case memo (first caller fits outside the lock, concurrent
    // callers of the key wait on the shared future, a failed fit
    // un-publishes its slot).  Keyed per accuracy policy so mixed-engine
    // sessions never serve a fast-calibrated surface to a reference
    // query.
    using Surface_key = std::tuple<Metric, tech::Patterning_option, int,
                                   double, sram::Sim_accuracy,
                                   spice::Solver_policy>;
    using Surface_entry = std::shared_future<
        std::shared_ptr<const analytic::Yield_surfaces>>;
    mutable std::mutex surface_cache_mutex_;
    mutable std::map<Surface_key, Surface_entry> surface_cache_;
    mutable std::atomic<std::size_t> surface_fits_{0};

    /// run() invocations (query_run_count above).
    mutable std::atomic<std::size_t> query_runs_{0};
};

/// Registry entry of a metric: everything run() needs that differs
/// between metrics.  The evaluator computes one case's row on the
/// worker's scratch contexts; it must not depend on worker assignment.
struct Metric_descriptor {
    /// Case loop runs in plan order on one thread; the metric
    /// parallelizes inside each case instead (MC sample loops, corner
    /// enumerations).  Keeps every case's result independent of the
    /// sweep composition.
    bool serial_cases = false;
    Row_value (*eval)(const Study_session&, const Query&, const Query_case&,
                      Study_session::Worker_scratch&) = nullptr;
};

/// The descriptor registered for a metric (the extension seam: new
/// workloads add a row to the table in session.cpp, not a method here).
const Metric_descriptor& metric_descriptor(Metric metric);

} // namespace mpsram::core

#endif // MPSRAM_CORE_SESSION_H
