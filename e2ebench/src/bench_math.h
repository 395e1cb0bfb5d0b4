/**
 * @file
 * Metric arithmetic of the end-to-end benchmark, kept free of any
 * OSCAR include so its self-tests (tests/test_bench_math.cpp) pin the
 * rules on their own:
 *
 *  - medians and nearest-rank percentiles, with the "at least ten
 *    samples beyond" rule for tail latencies;
 *  - span self time: a span's duration minus the part of its interval
 *    that its child spans cover (overlapping children count once);
 *  - the ratio bases of the per-layer table.
 */
#ifndef OSCAR_E2EBENCH_BENCH_MATH_H
#define OSCAR_E2EBENCH_BENCH_MATH_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/** Median of `values` (mean of the middle two for even counts). */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * Nearest-rank percentile `q` (0 < q <= 1) of `values`: the smallest
 * sample with at least q*n samples at or below it. Returns nullopt
 * unless at least `min_beyond` samples lie strictly beyond that rank,
 * so a reported tail always rests on enough observations (p99 needs
 * n >= 1000 for ten samples beyond it).
 */
inline std::optional<double>
percentileWithTail(std::vector<double> values, double q,
                   std::size_t min_beyond = 10)
{
    const std::size_t n = values.size();
    if (n == 0 || q <= 0.0 || q > 1.0)
        return std::nullopt;
    // Round before ceil so 0.99 * 1000 (= 990.0000000000001) ranks 990.
    const double scaled = std::round(q * static_cast<double>(n) * 1e9) / 1e9;
    const std::size_t rank =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(scaled)));
    if (n - rank < min_beyond)
        return std::nullopt;
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return values[rank - 1];
}

/** One span recorded by the benchmark: [t0, t1) with a parent link. */
struct Span
{
    std::string name;
    std::uint64_t t0Ns = 0;
    std::uint64_t t1Ns = 0;
    /** Index of the parent span in the same log, or -1 for a root. */
    long parent = -1;
};

/** Length of the union of [lo, hi) intervals clipped to [lo0, hi0). */
inline std::uint64_t
coveredNs(std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals,
          std::uint64_t lo0, std::uint64_t hi0)
{
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = lo0;
    for (auto [lo, hi] : intervals) {
        lo = std::max(lo, reach);
        hi = std::min(hi, hi0);
        if (hi > lo) {
            covered += hi - lo;
            reach = hi;
        }
    }
    return covered;
}

/**
 * Self time per span: duration minus the part of its interval covered
 * by its direct children. Indexed like `spans`.
 */
inline std::vector<std::uint64_t>
selfTimesNs(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        children(spans.size());
    for (const Span& s : spans) {
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].push_back(
                {s.t0Ns, s.t1Ns});
    }
    std::vector<std::uint64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const std::uint64_t dur = s.t1Ns > s.t0Ns ? s.t1Ns - s.t0Ns : 0;
        self[i] = dur - coveredNs(children[i], s.t0Ns, s.t1Ns);
    }
    return self;
}

/** Summed self time per span name, in seconds. */
inline std::map<std::string, double>
selfSecondsByName(const std::vector<Span>& spans)
{
    const std::vector<std::uint64_t> self = selfTimesNs(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += static_cast<double>(self[i]) * 1e-9;
    return out;
}

/** Fleet speed-up over the serial engine on the same samples. */
inline double
speedup(double serial_s, double parallel_s)
{
    return parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
}

/** Parallel efficiency: speed-up divided by the workers that earned it. */
inline double
efficiency(double speedup_value, int workers)
{
    return workers > 0 ? speedup_value / workers : 0.0;
}

/** Raw payload bytes over the bytes the container occupies on disk. */
inline double
compressionRatio(std::size_t raw_bytes, std::size_t container_bytes)
{
    return container_bytes > 0 ? static_cast<double>(raw_bytes) /
                                     static_cast<double>(container_bytes)
                               : 0.0;
}

} // namespace e2e

#endif // OSCAR_E2EBENCH_BENCH_MATH_H
