/**
 * @file
 * Helpers shared by the benchmark's workloads: the seeded generator,
 * timing, order statistics (median, the fixed tail percentile and the
 * "ten samples beyond" rule), the open-loop arrival schedule, the
 * completion-time rebuild for windowed frame chains, output hashing
 * and metric records. Everything here is deterministic given its
 * inputs, so the self-test can pin it down exactly.
 */

#ifndef PERFBENCH_UTIL_HH
#define PERFBENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/image.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * splitmix64: the benchmark's own generator, so workload inputs do not
 * change when the library's random helpers do.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : _state(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (_state += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double uniform() { return (next() >> 11) * 0x1.0p-53; }

    /** Uniform integer in [lo, hi]. */
    int
    range(int lo, int hi)
    {
        return lo + static_cast<int>(next() % static_cast<std::uint64_t>(
                                                   hi - lo + 1));
    }

    /** Standard normal (Box-Muller). */
    double
    normal()
    {
        const double u1 = std::max(uniform(), 1e-300);
        const double u2 = uniform();
        return std::sqrt(-2.0 * std::log(u1)) *
               std::cos(6.283185307179586 * u2);
    }

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[next() % i]);
    }

  private:
    std::uint64_t _state;
};

/** Derive an independent stream seed from (seed, stream tag). */
inline std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t tag)
{
    Rng r(seed ^ (tag * 0xD1B54A32D192ED03ull));
    return r.next();
}

/** Median (mean of the middle two for even counts); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * 1-based nearest rank of the @p pct percentile among @p n > 0 samples:
 * ceil(pct / 100 x n), clamped to [1, n]. The small slack keeps exact
 * products (99.9% of 10000) from rounding up a rank.
 */
inline std::size_t
nearestRank(std::size_t n, double pct)
{
    const double r = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
    return std::min(std::max<std::size_t>(static_cast<std::size_t>(
                                               std::max(r, 0.0)),
                                           1),
                    n);
}

/**
 * Nearest-rank percentile: the smallest sample with at least p% of
 * the samples at or below it. @p pct in (0, 100].
 */
inline double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[nearestRank(v.size(), pct) - 1];
}

/** Samples strictly beyond the nearest-rank @p pct percentile. */
inline std::size_t
samplesBeyond(std::size_t n, double pct)
{
    return n == 0 ? 0 : n - nearestRank(n, pct);
}

/** Minimum number of samples a reported tail must leave beyond it. */
constexpr std::size_t kTailMinBeyond = 10;

/**
 * The highest percentile of the ladder {99.9, 99, 95, 90, 85, 80, 75,
 * 66, 60, 50} that leaves at least kTailMinBeyond of @p n samples beyond
 * it; 0 when even the median does not. Each workload's fixed tail
 * percentile was chosen with it; runs report it next to their tails.
 */
inline double
highestTailPercentile(std::size_t n)
{
    static const double ladder[] = {99.9, 99, 95, 90, 85, 80,
                                    75,   66, 60, 50};
    for (double p : ladder)
        if (samplesBeyond(n, p) >= kTailMinBeyond)
            return p;
    return 0.0;
}

/**
 * Open-loop arrival times in seconds over [0, horizonS): a Poisson
 * process of rate @p ratePerS conditioned on its count in each
 * one-second bin. The round(rate x horizon) arrivals are dealt to the
 * bins as evenly as counts allow, and each bin's arrivals fall at
 * i.i.d. uniform times inside it (which is exactly how a Poisson
 * process places a given count). The conditioning keeps the offered
 * load equal across seeds and across the run, while each seed still
 * gets its own random gaps and bursts within a bin.
 */
inline std::vector<double>
poissonSchedule(std::uint64_t seed, double ratePerS, double horizonS)
{
    Rng rng(streamSeed(seed, 0xA11));
    const std::size_t n = static_cast<std::size_t>(
        std::llround(std::max(0.0, ratePerS * horizonS)));
    const std::size_t bins = static_cast<std::size_t>(
        std::max<long long>(1, std::llround(horizonS)));
    const double binS = horizonS / static_cast<double>(bins);
    std::vector<double> t(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t b = i * bins / n;
        t[i] = (static_cast<double>(b) + rng.uniform()) * binS;
    }
    std::sort(t.begin(), t.end());
    return t;
}

/**
 * @p n values dealt in shuffled blocks of @p block: each consecutive
 * run of block.size() outputs is a permutation of @p block (the last,
 * partial run a prefix of one). Deals a mix in fixed proportions at
 * every scale of the sequence, not just on average.
 */
template <typename T>
std::vector<T>
dealBlocks(Rng &rng, std::size_t n, const std::vector<T> &block)
{
    std::vector<T> out;
    out.reserve(n);
    while (out.size() < n) {
        std::vector<T> b = block;
        rng.shuffle(b);
        for (std::size_t i = 0; i < b.size() && out.size() < n; ++i)
            out.push_back(b[i]);
    }
    return out;
}

/**
 * Rebuild a windowed frame chain's completion times from its
 * eligibility latencies: frame f becomes eligible at @p admitS when
 * f < window, else when frame f - window completes, and completes
 * latency[f] seconds after it became eligible.
 */
inline std::vector<double>
rebuildCompletions(double admitS, const std::vector<double> &latencyS,
                   int window)
{
    window = std::max(1, window);
    std::vector<double> done(latencyS.size());
    for (std::size_t f = 0; f < latencyS.size(); ++f) {
        const double eligible =
            f < static_cast<std::size_t>(window) ? admitS
                                                 : done[f - window];
        done[f] = eligible + latencyS[f];
    }
    return done;
}

/** Length of the union of the intervals [lo, hi): the time they cover. */
inline double
unionLength(std::vector<std::pair<double, double>> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = intervals.empty() ? 0.0 : intervals.front().first;
    for (const auto &iv : intervals) {
        const double lo = std::max(iv.first, reach);
        if (iv.second > lo) {
            covered += iv.second - lo;
            reach = iv.second;
        }
    }
    return covered;
}

/**
 * FNV-1a style hash over raw bytes, eight bytes per step (a bit-identity
 * key, not a cryptographic hash), chained through @p h.
 */
inline std::uint64_t
hashBytes(const void *data, std::size_t bytes,
          std::uint64_t h = 0xCBF29CE484222325ull)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::size_t i = 0;
    for (; i + 8 <= bytes; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, p + i, 8);
        h = (h ^ w) * 0x100000001B3ull;
    }
    for (; i < bytes; ++i)
        h = (h ^ p[i]) * 0x100000001B3ull;
    return h;
}

/** Hash of an image's and depth map's exact bits (bit-identity key). */
inline std::uint64_t
frameHash(const cicero::Image &image, const cicero::DepthMap &depth)
{
    std::uint64_t h = hashBytes(image.pixels().data(),
                                image.pixelCount() * sizeof(cicero::Vec3));
    const int w = depth.width();
    const int hgt = depth.height();
    std::vector<float> row(static_cast<std::size_t>(std::max(w, 0)));
    for (int y = 0; y < hgt; ++y) {
        for (int x = 0; x < w; ++x)
            row[x] = depth.at(x, y);
        h = hashBytes(row.data(), row.size() * sizeof(float), h);
    }
    const int dims[2] = {w, hgt};
    return hashBytes(dims, sizeof dims, h);
}

/** Process peak resident set size in MB (getrusage). */
double peakRssMb();

/** Worker count the benchmark pins the pool to: the CPUs it may use. */
int benchThreads();

} // namespace perfbench

#endif // PERFBENCH_UTIL_HH
