// Traced column-simulation contexts of the SPICE replays (fig4_read and
// write_sweep).
#ifndef PERFBENCH_TRACED_SIM_H
#define PERFBENCH_TRACED_SIM_H

#include <cstdint>
#include <utility>

#include "common.h"
#include "sram/read_sim.h"
#include "sram/write_sim.h"
#include "trace.h"

namespace perfbench {

/// SPICE / sram work of a replay: every count must repeat exactly when
/// the replay reruns on the same inputs.
struct Spice_counts {
    mpsram::spice::Step_stats steps;
    std::uint64_t transients = 0;
    std::uint64_t compiles = 0;
    std::uint64_t netlist_builds = 0;

    bool operator==(const Spice_counts& o) const;
};

/// Counters of the running replay (replays are single-threaded).
inline Spice_counts g_spice;

/// Column-context traits that wrap the sram/spice calls of a base trait
/// binding in spans.  Binding the workspace before the transient moves
/// the MNA compile into its own span; run_transient's own bind() is
/// then a no-op, so results are bitwise those of the base traits.
template <class Base>
struct Traced_traits {
    using Netlist = typename Base::Netlist;
    using Timing = typename Base::Timing;
    using Options = typename Base::Options;
    using Result = typename Base::Result;

    template <class... A>
    static Netlist build(A&&... args)
    {
        PB_SPAN(span, "sram.netlist_build");
        ++g_spice.netlist_builds;
        return Base::build(std::forward<A>(args)...);
    }
    template <class... A>
    static void update_wires(A&&... args)
    {
        PB_SPAN(span, "sram.netlist_update");
        Base::update_wires(std::forward<A>(args)...);
    }
    static Result simulate(Netlist& net, const Options& opts,
                           mpsram::spice::Transient_workspace& workspace)
    {
        {
            PB_SPAN(span, "spice.compile");
            const std::size_t before = workspace.build_count();
            // lint:allow(raw-socket) -- binds a workspace, not a socket
            workspace.bind(net.circuit);
            g_spice.compiles += workspace.build_count() - before;
        }
        PB_SPAN(span, "spice.transient");
        Result r = Base::simulate(net, opts, workspace);
        g_spice.steps += r.steps;
        ++g_spice.transients;
        return r;
    }
};

using Traced_read_context =
    mpsram::sram::Column_sim_context<Traced_traits<mpsram::sram::Read_sim_traits>>;
using Traced_write_context = mpsram::sram::Column_sim_context<
    Traced_traits<mpsram::sram::Write_sim_traits>>;

/// The spice.* / sram.* per-layer metrics of `c` (one replay's counts)
/// and the span totals of `replays` identical replays.
void add_spice_metrics(Layer_metrics& m, const Spice_counts& c,
                       const std::map<std::string, trace::Totals>& totals,
                       double replays);

} // namespace perfbench

#endif // PERFBENCH_TRACED_SIM_H
