// Patterning-engine interface: how a mask-level process realization turns a
// nominal wire array into printed geometry.
//
// Each engine owns (a) the decomposition rule that assigns nominal wires to
// masks / SADP line classes, (b) the list of independent variation axes
// (per-mask CD bias, overlay, spacer thickness), and (c) the geometric
// realization of a sampled point on those axes.
#ifndef MPSRAM_PATTERN_ENGINE_H
#define MPSRAM_PATTERN_ENGINE_H

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "geom/wire_array.h"
#include "tech/technology.h"
#include "util/rng.h"

namespace mpsram::pattern {

/// One independent Gaussian variation source of a patterning process.
struct Variation_axis {
    std::string name;  ///< e.g. "cd_mask_b", "overlay_c", "spacer"
    double sigma = 0;  ///< 1-sigma magnitude [m]
};

/// A realization point: one deviation value [m] per engine axis, in the
/// order reported by Patterning_engine::axes().
using Process_sample = std::vector<double>;

class Patterning_engine {
public:
    virtual ~Patterning_engine() = default;

    Patterning_engine(const Patterning_engine&) = delete;
    Patterning_engine& operator=(const Patterning_engine&) = delete;

    virtual tech::Patterning_option option() const = 0;

    /// Paper-style label of the option ("LELELE", "SADP", "EUV").
    std::string_view name() const;

    /// The engine's independent variation axes.
    virtual const std::vector<Variation_axis>& axes() const = 0;

    /// Assign mask colors / SADP classes.  Must be called on the nominal
    /// array before realize(); idempotent.
    virtual geom::Wire_array decompose(geom::Wire_array nominal) const = 0;

    /// Print the decomposed nominal array under the given process sample.
    /// `sample` must have exactly axes().size() entries.
    virtual geom::Wire_array realize(const geom::Wire_array& decomposed,
                                     std::span<const double> sample) const = 0;

    /// realize() into caller-owned storage.  Precondition: `out` is either
    /// empty/size-mismatched (it is then reset to a copy of `decomposed`)
    /// or a previous realize_into target for the *same* decomposed array —
    /// the per-worker scratch pattern of the Monte-Carlo and corner-search
    /// hot loops.  A same-sized buffer from a *different* array is not
    /// detected and yields garbage (stale nets/lengths).  In the reuse
    /// case wires are updated in place — no allocation, no net-label
    /// copies.  Results are bitwise identical to realize().
    virtual void realize_into(const geom::Wire_array& decomposed,
                              std::span<const double> sample,
                              geom::Wire_array& out) const;

    /// The all-zeros (nominal) sample.
    Process_sample nominal_sample() const;

    /// Gaussian sample of every axis, truncated at +/- truncate_k sigma.
    Process_sample sample_gaussian(util::Rng& rng,
                                   double truncate_k = 4.0) const;

    /// sample_gaussian() into caller-owned storage: `out` is overwritten
    /// with the same draws, reusing its capacity.  The one per-axis draw
    /// loop of every sampler, so the exact and surrogate Monte-Carlo
    /// tiers draw identical samples from a substream.
    void sample_gaussian_into(util::Rng& rng, double truncate_k,
                              Process_sample& out) const;

protected:
    Patterning_engine() = default;

    /// Shared precondition helper for realize() implementations.
    void check_sample(std::span<const double> sample) const;
};

/// Factory keyed on the paper's three options.
std::unique_ptr<Patterning_engine> make_engine(tech::Patterning_option option,
                                               const tech::Technology& tech);

} // namespace mpsram::pattern

#endif // MPSRAM_PATTERN_ENGINE_H
