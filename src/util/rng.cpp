#include "util/rng.h"

#include <algorithm>
#include <functional>

#include "util/contracts.h"

namespace mpsram::util {

namespace {

/// splitmix64 finalizer: a cheap, well-distributed 64-bit mixer.
std::uint64_t mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Seed of substream `index` of the experiment whose root seed mixes to
/// `mixed_root` (= mix64(seed)).  Two rounds of the finalizer decorrelate
/// consecutive indices; the constant offsets index 0 away from the plain
/// `Rng(seed)` stream.
std::uint64_t substream_seed(std::uint64_t mixed_root, std::uint64_t index)
{
    return mix64(mixed_root ^ mix64(index + 0x6a09e667f3bcc909ULL));
}

} // namespace

Rng Rng::child(std::string_view name) const
{
    const std::uint64_t name_hash = std::hash<std::string_view>{}(name);
    return Rng(mix64(seed_ ^ mix64(name_hash)));
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t index)
{
    return Rng(substream_seed(mix64(seed), index));
}

void Rng::streams(std::uint64_t seed, std::uint64_t first, std::span<Rng> out)
{
    const std::uint64_t mixed_root = mix64(seed);
    constexpr std::size_t chain = 156 + prebuilt_draws;
    for (std::size_t j = 0; j < out.size(); j += stream_lanes) {
        const std::size_t lanes = std::min(stream_lanes, out.size() - j);
        Lazy_mt19937_64* engines[stream_lanes];
        std::uint64_t seeds[stream_lanes];
        for (std::size_t l = 0; l < lanes; ++l) {
            Rng& rng = out[j + l];
            rng.seed_ = substream_seed(mixed_root, first + j + l);
            rng.std_normal_.reset();
            engines[l] = &rng.engine_;
            seeds[l] = rng.seed_;
        }
        if (lanes == stream_lanes) {
            Lazy_mt19937_64::seed_lockstep<stream_lanes>(engines, seeds,
                                                         chain);
        } else {
            for (std::size_t l = 0; l < lanes; ++l) {
                Lazy_mt19937_64::seed_lockstep<1>(&engines[l], &seeds[l],
                                                  chain);
            }
        }
    }
}

double Rng::normal()
{
    return std_normal_(engine_);
}

double Rng::normal(double mean, double sigma)
{
    expects(sigma >= 0.0, "normal() sigma must be non-negative");
    return mean + sigma * std_normal_(engine_);
}

double Rng::truncated_normal(double mean, double sigma, double k)
{
    expects(sigma >= 0.0, "truncated_normal() sigma must be non-negative");
    expects(k > 0.0, "truncated_normal() needs a positive truncation width");
    if (sigma == 0.0) return mean;
    // Rejection sampling: for k >= 1 the acceptance rate is > 68%, so this
    // terminates quickly; guard with a generous iteration cap anyway.
    for (int i = 0; i < 10000; ++i) {
        const double z = std_normal_(engine_);
        if (z >= -k && z <= k) return mean + sigma * z;
    }
    // Statistically unreachable for any k >= 0.01.
    throw Invariant_error("truncated_normal rejection loop failed to accept");
}

double Rng::uniform(double lo, double hi)
{
    expects(hi > lo, "uniform() range must be non-empty");
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::uint64_t Rng::index(std::uint64_t n)
{
    expects(n > 0, "index() needs a non-empty range");
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(engine_);
}

} // namespace mpsram::util
