// Small numeric toolkit: interpolation, bracketing root search, and
// polynomial evaluation.  Shared by the waveform measurement code (threshold
// crossing times) and the analytical model.
#ifndef MPSRAM_UTIL_NUMERIC_H
#define MPSRAM_UTIL_NUMERIC_H

#include <functional>
#include <optional>
#include <vector>

namespace mpsram::util {

/// Linear interpolation between (x0, y0) and (x1, y1) at x.
double lerp(double x0, double y0, double x1, double y1, double x);

/// Crossing test of one segment (x0, y0) -> (x1, y1), x0 < x1, against
/// `level`: the first x >= from in this segment where y reaches `level`,
/// linearly interpolated, or nullopt.  A segment ending before `from` never
/// crosses.  A segment starting exactly at the level reports x0 when
/// x0 >= from; if x0 < from, a flat-at-level segment reports `from` itself
/// and a non-flat one nullopt (it leaves the level at once and, being
/// linear, cannot return to it inside the segment).  Scanning segments in
/// order with this test is Piecewise_linear::first_crossing; the transient
/// engine's differential stop rule applies it to each newly accepted
/// segment, so both agree on the crossing bit for bit.
std::optional<double> segment_crossing(double x0, double y0, double x1,
                                       double y1, double level, double from);

/// Piecewise-linear sampled waveform y(x) with strictly increasing x.
class Piecewise_linear {
public:
    Piecewise_linear() = default;
    Piecewise_linear(std::vector<double> xs, std::vector<double> ys);

    std::size_t size() const { return xs_.size(); }
    bool empty() const { return xs_.empty(); }
    const std::vector<double>& xs() const { return xs_; }
    const std::vector<double>& ys() const { return ys_; }

    void append(double x, double y);

    /// Interpolated value; clamps outside the sampled range.
    double at(double x) const;

    /// First x >= from where y crosses `level` (any direction), linearly
    /// interpolated inside the bracketing segment.  A sample sitting exactly
    /// at the level counts as a crossing; a flat-at-level segment spanning
    /// `from` reports `from` itself.  Returns negative if the waveform never
    /// crosses.
    double first_crossing(double level, double from = 0.0) const;

private:
    std::vector<double> xs_;
    std::vector<double> ys_;
};

/// Evaluate a polynomial with coefficients c[0] + c[1]*x + ... (Horner).
double polyval(const std::vector<double>& coeffs, double x);

/// Bisection root of f on [lo, hi]; requires a sign change.  `tol` is the
/// absolute x tolerance.
double bisect(const std::function<double(double)>& f, double lo, double hi,
              double tol = 1e-12, int max_iter = 200);

/// Relative difference |a - b| / max(|a|, |b|, floor).
double rel_diff(double a, double b, double floor = 1e-30);

/// Standard normal cumulative distribution function.
double normal_cdf(double z);

/// Inverse standard normal CDF (Acklam's rational approximation, refined
/// with one Newton step; |error| < 1e-13 where the refinement applies).
/// In the extreme tails (|z| beyond ~38, e.g. p ~ 1e-300) the normal pdf
/// underflows and the Newton step is skipped, leaving the ~1e-9-relative
/// rational approximation.
double normal_quantile(double p);

} // namespace mpsram::util

#endif // MPSRAM_UTIL_NUMERIC_H
