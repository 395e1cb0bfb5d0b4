/**
 * @file
 * Self-tests of the benchmark's metric arithmetic: the tail-percentile
 * rule, span self time, and the ratio bases of the per-layer table.
 */
#include <gtest/gtest.h>

#include "bench_math.h"

namespace e2e {
namespace {

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i)
        v.push_back(static_cast<double>(i));
    return v;
}

TEST(Percentile, P99NeedsTenSamplesBeyondIt)
{
    // 1000 samples: rank 990, ten beyond it.
    const auto p99 = percentileWithTail(oneTo(1000), 0.99);
    ASSERT_TRUE(p99.has_value());
    EXPECT_EQ(*p99, 990.0);
    // 999 samples: rank ceil(989.01) = 990, only nine beyond.
    EXPECT_FALSE(percentileWithTail(oneTo(999), 0.99).has_value());
    // The rule is a parameter: p90 of 100 samples has ten beyond it.
    EXPECT_EQ(percentileWithTail(oneTo(100), 0.90).value(), 90.0);
    EXPECT_FALSE(percentileWithTail(oneTo(100), 0.91).has_value());
    EXPECT_EQ(percentileWithTail(oneTo(100), 0.91, 9).value(), 91.0);
}

TEST(Percentile, MedianAndDegenerateInputs)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
    EXPECT_FALSE(percentileWithTail({}, 0.5).has_value());
    EXPECT_FALSE(percentileWithTail(oneTo(50), 0.0).has_value());
}

TEST(SelfTime, SpanMinusTheIntervalsItsChildrenCover)
{
    // root [0,100) with children [10,30) and [20,50) (overlapping: the
    // union covers 40) and a grandchild [25,28) under the second child.
    const std::vector<Span> spans = {
        {"root", 0, 100, -1},
        {"a", 10, 30, 0},
        {"b", 20, 50, 0},
        {"c", 25, 28, 2},
    };
    const std::vector<std::uint64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[0], 60u); // 100 - |[10,50)|
    EXPECT_EQ(self[1], 20u); // leaf
    EXPECT_EQ(self[2], 27u); // 30 - 3
    EXPECT_EQ(self[3], 3u);
}

TEST(SelfTime, ChildrenAreClippedToTheParentAndNamesSum)
{
    // A child that outlives its parent only covers the parent's part.
    const std::vector<Span> spans = {
        {"p", 100, 200, -1},
        {"k", 150, 260, 0},
        {"p", 300, 310, -1},
    };
    const std::vector<std::uint64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[0], 50u);
    const auto by_name = selfSecondsByName(spans);
    EXPECT_DOUBLE_EQ(by_name.at("p"), 60e-9);
    EXPECT_DOUBLE_EQ(by_name.at("k"), 110e-9);
}

TEST(SelfTime, LayerSelfTimesAddUpToTheRoot)
{
    const std::vector<Span> spans = {
        {"core.reconstruct", 0, 1000, -1},
        {"landscape.sample", 5, 15, 0},
        {"backend.exec", 15, 400, 0},
        {"cs.solve", 400, 990, 0},
    };
    std::uint64_t total = 0;
    for (std::uint64_t s : selfTimesNs(spans))
        total += s;
    EXPECT_EQ(total, 1000u);
}

TEST(Ratios, BasesAreTheDocumentedOnes)
{
    // dist.speedup_vs_1t = serial / fleet; dist.efficiency = speedup / workers.
    EXPECT_DOUBLE_EQ(speedup(2.8, 0.7), 4.0);
    EXPECT_DOUBLE_EQ(efficiency(speedup(2.8, 0.7), 4), 1.0);
    EXPECT_DOUBLE_EQ(efficiency(3.0, 4), 0.75);
    // store.compression_ratio = raw payload bytes / container bytes.
    EXPECT_DOUBLE_EQ(compressionRatio(4000, 1000), 4.0);
    // Undefined bases read 0, never inf or NaN.
    EXPECT_EQ(speedup(1.0, 0.0), 0.0);
    EXPECT_EQ(efficiency(2.0, 0), 0.0);
    EXPECT_EQ(compressionRatio(10, 0), 0.0);
}

} // namespace
} // namespace e2e
