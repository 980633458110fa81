// Parallel-wire model of one routed BEOL layer.
//
// The paper's experiment operates on arrays of horizontal metal1 wires (bit
// lines and power rails); every patterning engine consumes a nominal
// Wire_array and produces a "realized" one with perturbed widths and track
// positions.  Wires run along x; `y_center` is the track position.
#ifndef MPSRAM_GEOM_WIRE_ARRAY_H
#define MPSRAM_GEOM_WIRE_ARRAY_H

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "util/token_table.h"

namespace mpsram::geom {

/// Mask color for multi-patterning decomposition.  `unassigned` is the
/// state before decomposition; single-patterning flows use `mask_a` only.
enum class Mask_color { unassigned, mask_a, mask_b, mask_c };

inline constexpr auto mask_color_tokens = util::token_table<Mask_color>(
    "mask color", {{Mask_color::unassigned, "unassigned"},
                   {Mask_color::mask_a, "mask_a"},
                   {Mask_color::mask_b, "mask_b"},
                   {Mask_color::mask_c, "mask_c"}});

/// SADP line class: printed mandrel line, or line formed in the gap
/// between the spacers of two adjacent mandrels.
enum class Sadp_class { none, mandrel, gap };

inline constexpr auto sadp_class_tokens = util::token_table<Sadp_class>(
    "sadp class", {{Sadp_class::none, "none"},
                   {Sadp_class::mandrel, "mandrel"},
                   {Sadp_class::gap, "gap"}});

/// One wire (full-length routing track segment) on a layer.
struct Wire {
    std::string net;      ///< net label, e.g. "BL3", "VSS", "VDD"
    double y_center = 0;  ///< track position [m]
    double width = 0;     ///< drawn or realized width [m]
    double length = 0;    ///< extent along the routing direction [m]
    Mask_color color = Mask_color::unassigned;
    Sadp_class sadp = Sadp_class::none;
};

/// Sorted (ascending y) array of parallel wires with neighbor queries.
///
/// Invariants: wires are strictly ordered by y_center and have positive
/// width and length.  Overlap is *not* an invariant — a patterning corner
/// may legitimately produce a short (see geom::check_drc), and the
/// extractor must be able to see that geometry to price it.
class Wire_array {
public:
    Wire_array() = default;

    /// Wires may be given in any order; they are sorted on construction.
    explicit Wire_array(std::vector<Wire> wires);

    void add(Wire w);

    std::size_t size() const { return wires_.size(); }
    bool empty() const { return wires_.empty(); }

    const Wire& operator[](std::size_t i) const;
    Wire& operator[](std::size_t i);

    const std::vector<Wire>& wires() const { return wires_; }

    /// Edge-to-edge spacing between wire i and wire i+1 (can be negative
    /// when a variation corner makes the wires touch or overlap).
    double spacing_above(std::size_t i) const;

    /// Edge-to-edge spacing between wire i and wire i-1.
    double spacing_below(std::size_t i) const;

    /// Index of the first wire whose net matches, searching from
    /// `start`; nullopt if absent.
    std::optional<std::size_t> find_net(const std::string& net,
                                        std::size_t start = 0) const;

    /// Indices of all wires whose net matches.
    std::vector<std::size_t> all_with_net(const std::string& net) const;

    /// Index of the wire nearest to the array's vertical midpoint with the
    /// given net — the "victim" selection rule used throughout the study
    /// (center wires are free of edge effects, cf. the paper's fixed
    /// 10-bit-line-pair arrangement).
    std::size_t center_wire_of_net(const std::string& net) const;

    /// True when i is an interior wire (has both neighbors).
    bool interior(std::size_t i) const;

private:
    void check(const Wire& w) const;

    std::vector<Wire> wires_;
};

} // namespace mpsram::geom

#endif // MPSRAM_GEOM_WIRE_ARRAY_H
