// Monte-Carlo engine throughput on the shared bench driver: threads vs
// wall time on the Fig. 5 workload (LE3 @ 8 nm 3-sigma OL, 10x64 array,
// 10k samples, analytic-formula sample engine).
//
// The driver runs the threads x {fast, reference} scaling grid with the
// bitwise determinism check (the parallel distributions must equal the
// serial ones, sample for sample) and emits BENCH_mc.json so the
// samples/sec trajectory can be tracked across revisions.  The formula
// engine runs no transients, so there is no adaptive-vs-reference gate
// and no step-counter table here — the surrogate/SPICE engine comparison
// lives in bench_ext_yield.
//
// Per-layer entries, each timed alone over the same sample count on the
// Fig. 5 geometry and written to BENCH_mc.json:
//   - the draw: per index (Rng::stream + one LE3 sample_gaussian,
//     rng_draw_ns) and as the Monte-Carlo loop draws it (mc::Sample_draws:
//     lockstep blocks from Rng::streams, rng_block_draw_ns);
//   - the formula-sample split: realize of the whole array
//     (realize_array_ns) vs. the victim window plus its pinch guard
//     (realize_window_ns), and Extractor::variation against the nominal
//     array (variation_ns) vs. against the nominal victim's hoisted
//     Wire_rc (variation_hoisted_ns).  The two variation paths must agree
//     bit for bit, or the bench fails.
//
//   $ ./bench_perf_mc [samples]
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_driver.h"
#include "cli_args.h"
#include "core/session.h"
#include "mc/distribution.h"
#include "pattern/engine.h"
#include "sram/layout.h"
#include "tech/technology.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace mpsram;
using Clock = std::chrono::steady_clock;

/// Mean ns of `body(i)` over i in [0, samples).
template <class Body>
double ns_per_sample(int samples, Body&& body)
{
    const auto t0 = Clock::now();
    for (int i = 0; i < samples; ++i) body(static_cast<std::size_t>(i));
    return 1e9 * bench::seconds_of(Clock::now() - t0) / samples;
}

struct Layer_entry {
    double rng_draw_ns = 0.0;
    double rng_block_draw_ns = 0.0;
    double realize_array_ns = 0.0;
    double realize_window_ns = 0.0;
    double variation_ns = 0.0;
    double variation_hoisted_ns = 0.0;
    bool variation_bitwise = true;
};

/// The per-layer entries of one formula-tier sample at the Fig. 5 point.
Layer_entry time_layers(int samples, int word_lines, double ol_3sigma)
{
    const core::Study_session session;
    tech::Technology t = session.technology();
    t.variability.le3_ol_3sigma = ol_3sigma;
    sram::Array_config cfg = session.options().array;
    cfg.word_lines = word_lines;
    const auto engine = pattern::make_engine(tech::Patterning_option::le3, t);
    const geom::Wire_array nominal =
        engine->decompose(sram::build_metal1_array(t, cfg));
    const std::size_t victim = sram::find_victim_wires(nominal, cfg).bl;
    const extract::Extractor& ex = session.extractor();

    mc::Distribution_options opts;
    opts.samples = samples;
    const std::uint64_t base =
        util::Rng(opts.seed).child(engine->name()).seed();

    Layer_entry e;
    pattern::Process_sample sample;
    e.rng_draw_ns = ns_per_sample(samples, [&](std::size_t i) {
        util::Rng rng = util::Rng::stream(base, i);
        engine->sample_gaussian_into(rng, opts.truncate_k, sample);
    });
    mc::Sample_draws draws(*engine, opts);
    std::vector<pattern::Process_sample> drawn(
        static_cast<std::size_t>(samples),
        pattern::Process_sample(engine->axes().size()));
    e.rng_block_draw_ns = ns_per_sample(samples, [&](std::size_t i) {
        drawn[i] = draws(i, core::Run_context{i, 0});
    });

    const mc::Victim_window win = mc::victim_window(nominal, victim);
    std::vector<geom::Wire_array> realized(drawn.size());
    geom::Wire_array scratch;
    e.realize_array_ns = ns_per_sample(samples, [&](std::size_t i) {
        engine->realize_into(nominal, drawn[i], scratch);
    });
    for (std::size_t i = 0; i < drawn.size(); ++i) {
        engine->realize_into(nominal, drawn[i], realized[i]);
    }
    geom::Wire_array guard;
    geom::Wire_array window;
    e.realize_window_ns = ns_per_sample(samples, [&](std::size_t i) {
        engine->realize_into(win.guard, drawn[i], guard);
        engine->realize_into(win.wires, drawn[i], window);
    });

    std::vector<extract::Rc_variation> full(drawn.size());
    e.variation_ns = ns_per_sample(samples, [&](std::size_t i) {
        full[i] = ex.variation(nominal, realized[i], victim);
    });
    std::vector<geom::Wire_array> windows(drawn.size());
    for (std::size_t i = 0; i < drawn.size(); ++i) {
        engine->realize_into(win.wires, drawn[i], windows[i]);
    }
    const extract::Wire_rc nominal_rc = ex.wire_rc(nominal, victim);
    std::vector<extract::Rc_variation> hoisted(drawn.size());
    e.variation_hoisted_ns = ns_per_sample(samples, [&](std::size_t i) {
        hoisted[i] = ex.variation(nominal_rc, windows[i], win.victim);
    });
    for (std::size_t i = 0; i < drawn.size(); ++i) {
        e.variation_bitwise =
            e.variation_bitwise &&
            util::bits_equal(full[i].r_factor, hoisted[i].r_factor) &&
            util::bits_equal(full[i].c_factor, hoisted[i].c_factor);
    }
    return e;
}

} // namespace

int main(int argc, char** argv)
{
    using namespace mpsram;

    const int samples =
        argc > 1 ? cli::number("samples", argv[1], 1, 1 << 30)
                 : 10000;
    constexpr int n = 64;
    constexpr double ol_8nm = 8e-9;

    std::cout << "MC throughput: LE3 @ 8 nm 3s OL, 10x" << n << ", "
              << samples << " samples\n\n";

    bench::Scaling_config cfg;
    cfg.bench_name = "bench_perf_mc";
    cfg.workload = "le3_8nm_ol_10x64_fig5";
    cfg.json_path = "BENCH_mc.json";
    cfg.sims_per_row = static_cast<double>(samples);
    cfg.run = [samples](int threads, sram::Sim_accuracy accuracy) {
        const core::Study_session session;
        core::Query q(core::Metric::mc_tdp);
        q.with_case({tech::Patterning_option::le3, n, ol_8nm})
            .with_accuracy(accuracy);
        q.mc.samples = samples;
        q.mc.runner = core::Runner_options{threads};
        return session.run(q);
    };
    const bench::Scaling_outcome outcome = bench::run_thread_scaling(cfg);

    const Layer_entry e = time_layers(samples, n, ol_8nm);
    std::cout << "\nper-sample layers (LE3, one thread, ns):\n"
              << "  draw, per index (Rng::stream)      " << e.rng_draw_ns
              << "\n  draw, lockstep block (Rng::streams) "
              << e.rng_block_draw_ns
              << "\n  realize, whole array               "
              << e.realize_array_ns
              << "\n  realize, victim window + guard     "
              << e.realize_window_ns
              << "\n  variation vs. nominal array        " << e.variation_ns
              << "\n  variation vs. hoisted nominal RC   "
              << e.variation_hoisted_ns << "\n"
              << "hoisted variation bitwise == array variation: "
              << (e.variation_bitwise ? "yes" : "NO") << "\n";

    const auto field = [](const char* key, double value) {
        return "\"" + std::string(key) + "\": " + std::to_string(value) + ",";
    };
    bench::write_bench_json(
        cfg, outcome, nullptr, nullptr, n,
        {"\"samples\": " + std::to_string(samples) + ",",
         field("rng_draw_ns", e.rng_draw_ns),
         field("rng_block_draw_ns", e.rng_block_draw_ns),
         field("realize_array_ns", e.realize_array_ns),
         field("realize_window_ns", e.realize_window_ns),
         field("variation_ns", e.variation_ns),
         field("variation_hoisted_ns", e.variation_hoisted_ns)});
    return outcome.all_identical && e.variation_bitwise ? 0 : 1;
}
