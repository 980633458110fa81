// Device-model interface of the MNA engine.
//
// The engine hands each device a Stamper (matrix/RHS access with ground-
// and driven-node handling folded in) and an Eval_context (current
// iterate, time step, integration method).  No device keeps history
// state: the one dynamic element, the capacitor, is structural — the MNA
// system owns its companion model and history (spice/system.h), as it
// owns the voltage sources' driven nodes and branch rows.  MOSFETs, the
// devices evaluated every Newton iteration, are a bank in the system as
// well: it binds them through Mosfet::stamp, then evaluates them without
// virtual calls through stamp_mosfet (spice/mosfet.h), the one stamp-call
// sequence both paths share.
//
// Stamp-call contract.  Within one analysis mode, a device makes the same
// sequence of Stamper calls — the same (eq, wrt) pairs in the same order —
// on every stamp(), whatever the voltages, time, step or method; only the
// values vary.  In DC the sequence is either the transient one or empty
// (a device that is open in DC).  The MNA system binds each call to its
// matrix slot or RHS row once, at compile time (spice/system.h), and
// re-stamps a device only when its class says its values may have
// changed.  Checked builds (-DMPSRAM_CHECKED=ON) assert every replayed
// call's (eq, wrt) against its bound op and the call count per device;
// compilation rejects a DC sequence that is neither (checked for every
// device that is not stamp_voltage_only(), whose stamp cannot depend on
// the mode).
#ifndef MPSRAM_SPICE_DEVICE_H
#define MPSRAM_SPICE_DEVICE_H

#include <string>
#include <vector>

namespace mpsram::spice {

/// Node handle: index into the circuit's node table; 0 is ground.
using Node = int;
inline constexpr Node ground_node = 0;

enum class Integration_method { backward_euler, trapezoidal };

enum class Analysis_mode { dc, transient };

/// Per-iteration evaluation context.
struct Eval_context {
    Analysis_mode mode = Analysis_mode::dc;
    Integration_method method = Integration_method::trapezoidal;
    /// Target time of this solve [s] (0 in DC).
    double time = 0.0;
    /// Current step size [s] (0 in DC).
    double dt = 0.0;
    /// Full-length node voltage vector of the current iterate (indexed by
    /// Node, ground and driven nodes included and kept up to date).
    const double* voltages = nullptr;

    double v(Node n) const { return voltages[n]; }
};

/// Matrix/RHS access handed to devices.  Implementations route entries for
/// ground and driven (known-voltage) nodes automatically: stamping a
/// conductance toward a driven node lands on the RHS with the driven value.
class Stamper {
public:
    virtual ~Stamper() = default;

    /// J[eq][wrt] += g   (KCL equation of node `eq`, unknown `wrt`).
    virtual void jacobian(Node eq, Node wrt, double g) = 0;

    /// rhs[eq] += value.
    virtual void rhs(Node eq, double value) = 0;

    /// Two-terminal conductance g between nodes a and b.
    void conductance(Node a, Node b, double g)
    {
        jacobian(a, a, g);
        jacobian(b, b, g);
        jacobian(a, b, -g);
        jacobian(b, a, -g);
    }

    /// Independent current `i` flowing into node n.
    void current_into(Node n, double i) { rhs(n, i); }
};

class Device {
public:
    explicit Device(std::string name, std::vector<Node> nodes)
        : name_(std::move(name)), nodes_(std::move(nodes)) {}
    virtual ~Device() = default;

    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    const std::string& name() const { return name_; }
    const std::vector<Node>& nodes() const { return nodes_; }

    virtual bool is_nonlinear() const { return false; }

    /// True when stamp() depends only on the terminal voltages — no
    /// mode, time, dt, or waveform.  Linear ones are then stamped once
    /// per run; nonlinear ones keep their last stamp values across steps
    /// on the bypass solver tier while every terminal stays within the
    /// bypass tolerance.  Parameter edits between runs are covered by
    /// the per-run reuse reset.  Linear devices that keep the default are
    /// re-stamped once per Newton solve, where t and dt are fixed.
    virtual bool stamp_voltage_only() const { return false; }

    /// Contribute linearized equations at the current iterate, honouring
    /// the stamp-call contract in the file comment.
    virtual void stamp(Stamper& s, const Eval_context& ctx) const = 0;

    /// Report waveform corner times in (0, tstop) for breakpoint handling.
    virtual void add_breakpoints(double tstop,
                                 std::vector<double>& out) const
    {
        (void)tstop;
        (void)out;
    }

private:
    std::string name_;
    std::vector<Node> nodes_;
};

} // namespace mpsram::spice

#endif // MPSRAM_SPICE_DEVICE_H
