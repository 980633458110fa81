// The query layer: every metric's query must answer bitwise the
// same at 2 and 8 threads as at 1, each on a fresh Study_session, the
// disturb metric must run deterministically through the same generic
// run() path, and Result_table's typed access must round-trip.  The
// read_td / nominal_td / worst_case_tdp / nominal_tw thread checks live
// with their sweeps in test_core_sweep and test_core_write_sweep.
#include "core/query.h"

#include <cmath>
#include <stdexcept>
#include <variant>

#include <gtest/gtest.h>

#include "core/session.h"
#include "util/contracts.h"

namespace {

using namespace mpsram;
using core::Metric;
using core::Query;
using core::Query_case;

// Cheap-but-real sweep, same sizes as the read/write-sweep tests.
constexpr int kSizes[] = {8, 16, 24};

// The determinism contract asks for bitwise equality at 1/2/8 threads.
constexpr int kThreadCounts[] = {1, 2, 8};

// --- thread-count invariance -------------------------------------------------

/// Runs `at(threads)` at 1, 2 and 8 threads, each on a FRESH session (no
/// memo crosstalk), and asserts every table equals the serial one bitwise.
template <class Query_at>
void expect_thread_invariant(const Query_at& at)
{
    const core::Result_table serial = core::Study_session().run(at(1));
    ASSERT_FALSE(serial.empty());
    for (const int threads : {2, 8}) {
        EXPECT_EQ(core::Study_session().run(at(threads)), serial)
            << "threads=" << threads;
    }
}

TEST(QueryThreads, WorstCaseRcIdenticalAtAnyThreadCount)
{
    expect_thread_invariant([](int threads) {
        return Query(Metric::worst_case_rc)
            .over_options(tech::patterning_option_tokens.values)
            .on(core::Runner_options{threads});
    });
}

TEST(QueryThreads, McTdpIdenticalAtAnyThreadCount)
{
    expect_thread_invariant([](int threads) {
        mc::Distribution_options mo;
        mo.samples = 400;
        mo.seed = 42;
        mo.runner.threads = threads;
        return Query(Metric::mc_tdp)
            .with_case({tech::Patterning_option::le3, 16, 8e-9})
            .with_case({tech::Patterning_option::euv, 16})
            .with_mc(mo);
    });
}

TEST(QueryThreads, WriteTwIdenticalAtAnyThreadCount)
{
    expect_thread_invariant([](int threads) {
        return Query(Metric::write_tw)
            .over_word_lines(tech::Patterning_option::euv, kSizes)
            .on(core::Runner_options{threads});
    });
}

TEST(QueryThreads, McTwpSpiceEngineIdenticalAtAnyThreadCount)
{
    // Every sample is a SPICE transient: keep the counts small.
    expect_thread_invariant([](int threads) {
        mc::Distribution_options mo;
        mo.samples = 16;
        mo.seed = 7;
        mo.runner.threads = threads;
        return Query(Metric::mc_twp)
            .with_case({tech::Patterning_option::le3, 8})
            .with_mc(mo);
    });
}

// --- the formula twp engine --------------------------------------------------

TEST(QueryTwpFormula, DeterministicCheapAndOrdered)
{
    // The registered analytic tw model as the sample engine: read-MC
    // sample counts with no transient in the loop.
    mc::Distribution_options mo;
    mo.samples = 4000;
    mo.seed = 11;

    const core::Study_session session;
    core::Result_table serial;
    for (const int threads : kThreadCounts) {
        mc::Distribution_options threaded = mo;
        threaded.runner.threads = threads;
        const auto table = session.run(
            Query(Metric::mc_twp)
                .over_options(tech::patterning_option_tokens.values, 16)
                .with_mc(threaded)
                .with_twp_engine(core::Twp_engine::formula));
        if (threads == 1) {
            serial = table;
        } else {
            EXPECT_EQ(table, serial) << "threads=" << threads;
        }
    }

    // LE3 spreads twp wider than EUV, like the read penalty.
    const auto& le3 = serial.as<mc::Tdp_distribution>(0);
    const auto& euv = serial.as<mc::Tdp_distribution>(2);
    EXPECT_GT(le3.summary.stddev, euv.summary.stddev);
    EXPECT_GT(le3.summary.stddev, 0.0);
}

// --- the disturb metric ------------------------------------------------------

TEST(QueryDisturb, DeterministicAtAnyThreadCount)
{
    core::Result_table serial;
    for (const int threads : kThreadCounts) {
        const core::Study_session session;
        const auto table = session.run(
            Query(Metric::disturb)
                .over_word_lines(tech::Patterning_option::sadp, kSizes)
                .on(core::Runner_options{threads}));
        if (threads == 1) {
            serial = table;
        } else {
            EXPECT_EQ(table, serial) << "threads=" << threads;
        }
    }

    // The rows are physical: a real, non-destructive bump.
    const double vdd = tech::n10().feol.vdd;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const auto& row = serial.as<core::Disturb_row>(i);
        EXPECT_GT(row.v_bump_nominal, 0.02 * vdd);
        EXPECT_LT(row.v_bump_nominal, 0.4 * vdd);
        EXPECT_GT(row.v_bump_varied, 0.0);
        EXPECT_TRUE(std::isfinite(row.disturb_percent));
    }
}

TEST(QueryDisturb, SharesTheWorstCaseMemoWithReadAndWrite)
{
    // The disturb metric reuses the same promise-backed corner memo as
    // every other metric: one enumeration per (option, n, ol) key across
    // disturb, read and write queries.
    const core::Study_session session;
    EXPECT_EQ(session.corner_search_count(), 0u);

    const Query_case qc{tech::Patterning_option::sadp, 8};
    session.run(Query(Metric::disturb).with_case(qc));
    EXPECT_EQ(session.corner_search_count(), 1u);
    session.run(Query(Metric::read_td).with_case(qc));
    session.run(Query(Metric::write_tw).with_case(qc));
    EXPECT_EQ(session.corner_search_count(), 1u);
}

// --- accuracy override -------------------------------------------------------

TEST(QueryAccuracy, OverrideMatchesPinnedSessionAndKeepsMemosSeparate)
{
    const Query query = Query(Metric::read_td)
                            .over_word_lines(tech::Patterning_option::euv,
                                             std::vector<int>{8, 16});

    core::Study_options pinned;
    pinned.read.accuracy = sram::Sim_accuracy::reference;
    const core::Study_session reference_session(tech::n10(), pinned);
    const auto pinned_table = reference_session.run(query);

    // One mixed session pinned to the fast engine (explicitly — the
    // reference-policy ctest leg overrides the process default through
    // the environment): a reference-override query must equal the
    // pinned session bitwise, and the fast rows must be unaffected by
    // the reference rows sharing the nominal memo map.
    core::Study_options fast_opts;
    fast_opts.read.accuracy = sram::Sim_accuracy::fast;
    const core::Study_session mixed(tech::n10(), fast_opts);
    const auto fast_before = mixed.run(query);
    const auto overridden = mixed.run(
        Query(query).with_accuracy(sram::Sim_accuracy::reference));
    const auto fast_after = mixed.run(query);

    EXPECT_EQ(overridden, pinned_table);
    EXPECT_EQ(fast_before, fast_after);
    // The engines genuinely differ, so the memo keying is load-bearing.
    EXPECT_NE(overridden.as<core::Read_row>(0).td_nominal,
              fast_before.as<core::Read_row>(0).td_nominal);
}

// --- Result_table typed access -----------------------------------------------

TEST(ResultTable, TypedAccessRoundTripsAndMismatchThrows)
{
    const core::Study_session session;
    const auto table = session.run(
        Query(Metric::nominal_td)
            .over_word_lines(tech::Patterning_option::euv,
                             std::vector<int>{8, 16}));

    ASSERT_EQ(table.size(), 2u);
    EXPECT_EQ(table.metric(), Metric::nominal_td);

    // Axes round-trip, with the default word_lines resolved.
    EXPECT_EQ(table.axes(0).word_lines, 8);
    EXPECT_EQ(table.axes(1).word_lines, 16);

    // as<Row> == raw variant == column<Row> view.
    const auto& row = table.as<core::Nominal_td_row>(1);
    EXPECT_EQ(row, std::get<core::Nominal_td_row>(table.raw(1)));
    const auto rows = table.column<core::Nominal_td_row>();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[1], row);
    EXPECT_GT(rows[1].td_simulation, rows[0].td_simulation);

    // Wrong row type fails loudly, wrong index throws.
    EXPECT_THROW(table.as<core::Read_row>(0), std::bad_variant_access);
    EXPECT_THROW(table.raw(2), util::Precondition_error);
    EXPECT_THROW(table.axes(2), util::Precondition_error);
}

TEST(ResultTable, DefaultWordLinesResolveToSessionDefault)
{
    core::Study_options opts;
    opts.array.word_lines = 8;
    const core::Study_session session(tech::n10(), opts);
    const auto table = session.run(
        Query(Metric::nominal_td)
            .with_case({tech::Patterning_option::euv, 0}));
    EXPECT_EQ(table.axes(0).word_lines, 8);
}

TEST(ResultTable, EmptyQueryYieldsEmptyTable)
{
    const core::Study_session session;
    const auto table = session.run(Query(Metric::read_td));
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.size(), 0u);
}

// --- registry sanity ---------------------------------------------------------

TEST(MetricRegistry, DescriptorsMatchTheEnum)
{
    for (const Metric m : core::metric_tokens.values) {
        EXPECT_NE(core::metric_descriptor(m).eval, nullptr);
    }
    // The per-case-parallel metrics vs the internally-parallel ones.
    EXPECT_FALSE(core::metric_descriptor(Metric::read_td).serial_cases);
    EXPECT_TRUE(core::metric_descriptor(Metric::mc_tdp).serial_cases);
    EXPECT_TRUE(
        core::metric_descriptor(Metric::worst_case_rc).serial_cases);
}

} // namespace
