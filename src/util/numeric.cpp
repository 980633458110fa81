#include "util/numeric.h"

#include <algorithm>
#include <cmath>

#include "util/contracts.h"

namespace mpsram::util {

double lerp(double x0, double y0, double x1, double y1, double x)
{
    expects(x1 != x0, "lerp endpoints must differ in x");
    const double t = (x - x0) / (x1 - x0);
    return y0 + t * (y1 - y0);
}

Piecewise_linear::Piecewise_linear(std::vector<double> xs,
                                   std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys))
{
    expects(xs_.size() == ys_.size(),
            "Piecewise_linear needs equal x/y lengths");
    for (std::size_t i = 1; i < xs_.size(); ++i) {
        expects(xs_[i] > xs_[i - 1],
                "Piecewise_linear x samples must be strictly increasing");
    }
}

void Piecewise_linear::append(double x, double y)
{
    expects(xs_.empty() || x > xs_.back(),
            "Piecewise_linear::append x must increase");
    xs_.push_back(x);
    ys_.push_back(y);
}

double Piecewise_linear::at(double x) const
{
    expects(!xs_.empty(), "Piecewise_linear::at on empty waveform");
    if (x <= xs_.front()) return ys_.front();
    if (x >= xs_.back()) return ys_.back();
    const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
    const auto hi = static_cast<std::size_t>(it - xs_.begin());
    const auto lo = hi - 1;
    return lerp(xs_[lo], ys_[lo], xs_[hi], ys_[hi], x);
}

std::optional<double> segment_crossing(double x0, double y0, double x1,
                                       double y1, double level, double from)
{
    if (x1 < from) return std::nullopt;
    const double d0 = y0 - level;
    const double d1 = y1 - level;
    if (d0 == 0.0) {
        if (x0 >= from) return x0;
        // Segment starts exactly at the level but before `from`.  A
        // flat-at-level segment is at the level everywhere, so the first
        // qualifying point is `from` itself; a non-flat segment leaves the
        // level immediately and cannot cross again before x1 (linear).
        if (d1 == 0.0) return from;
        return std::nullopt;
    }
    if ((d0 < 0.0 && d1 >= 0.0) || (d0 > 0.0 && d1 <= 0.0)) {
        // Interpolate the crossing inside this segment.
        const double t = d0 / (d0 - d1);
        const double x = x0 + t * (x1 - x0);
        if (x >= from) return x;
    }
    return std::nullopt;
}

double Piecewise_linear::first_crossing(double level, double from) const
{
    if (xs_.size() == 1) {
        return (ys_[0] == level && xs_[0] >= from) ? xs_[0] : -1.0;
    }
    for (std::size_t i = 1; i < xs_.size(); ++i) {
        if (const std::optional<double> x = segment_crossing(
                xs_[i - 1], ys_[i - 1], xs_[i], ys_[i], level, from)) {
            return *x;
        }
    }
    return -1.0;
}

double polyval(const std::vector<double>& coeffs, double x)
{
    double acc = 0.0;
    for (auto it = coeffs.rbegin(); it != coeffs.rend(); ++it) {
        acc = acc * x + *it;
    }
    return acc;
}

double bisect(const std::function<double(double)>& f, double lo, double hi,
              double tol, int max_iter)
{
    expects(hi > lo, "bisect needs a non-empty interval");
    double flo = f(lo);
    double fhi = f(hi);
    if (flo == 0.0) return lo;
    if (fhi == 0.0) return hi;
    expects(std::signbit(flo) != std::signbit(fhi),
            "bisect requires a sign change on the interval");

    for (int i = 0; i < max_iter && (hi - lo) > tol; ++i) {
        const double mid = 0.5 * (lo + hi);
        const double fmid = f(mid);
        if (fmid == 0.0) return mid;
        if (std::signbit(fmid) == std::signbit(flo)) {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

double rel_diff(double a, double b, double floor)
{
    const double scale = std::max({std::fabs(a), std::fabs(b), floor});
    return std::fabs(a - b) / scale;
}

double normal_cdf(double z)
{
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double normal_quantile(double p)
{
    expects(p > 0.0 && p < 1.0, "normal_quantile needs p in (0,1)");

    // Acklam's rational approximation.
    static constexpr double a[] = {-3.969683028665376e+01,
                                   2.209460984245205e+02,
                                   -2.759285104469687e+02,
                                   1.383577518672690e+02,
                                   -3.066479806614716e+01,
                                   2.506628277459239e+00};
    static constexpr double b[] = {-5.447609879822406e+01,
                                   1.615858368580409e+02,
                                   -1.556989798598866e+02,
                                   6.680131188771972e+01,
                                   -1.328068155288572e+01};
    static constexpr double c[] = {-7.784894002430293e-03,
                                   -3.223964580411365e-01,
                                   -2.400758277161838e+00,
                                   -2.549732539343734e+00,
                                   4.374664141464968e+00,
                                   2.938163982698783e+00};
    static constexpr double d[] = {7.784695709041462e-03,
                                   3.224671290700398e-01,
                                   2.445134137142996e+00,
                                   3.754408661907416e+00};
    constexpr double p_low = 0.02425;

    double z = 0.0;
    if (p < p_low) {
        const double q = std::sqrt(-2.0 * std::log(p));
        z = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    } else if (p <= 1.0 - p_low) {
        const double q = p - 0.5;
        const double r = q * q;
        z = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
             a[5]) *
            q /
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
             1.0);
    } else {
        const double q = std::sqrt(-2.0 * std::log(1.0 - p));
        z = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
              c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }

    // One Newton refinement against the exact CDF.  In the extreme tails
    // (|z| beyond ~38) the pdf underflows to 0 and the correction would be
    // NaN/Inf; the rational approximation is already the best available
    // there, so skip the refinement when the pdf underflows.
    const double pdf =
        std::exp(-0.5 * z * z) / std::sqrt(2.0 * 3.14159265358979323846);
    if (pdf > 0.0) {
        const double e = normal_cdf(z) - p;
        z -= e / pdf;
    }
    return z;
}

} // namespace mpsram::util
