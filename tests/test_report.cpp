/**
 * @file
 * Tests for the reporting module: heat-map rendering properties and
 * row-map save/load round-trips (the auto-tuned configuration reuse
 * path).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "accel/report.hpp"
#include "common/rng.hpp"

using namespace awb;

TEST(Heatmap, BalancedLoadIsUniformMidRamp)
{
    std::vector<Count> even(32, 100);
    auto s = utilizationHeatmap(even, 32);
    ASSERT_EQ(s.size(), 34u);  // brackets + 32 cells
    char first = s[1];
    for (std::size_t i = 1; i + 1 < s.size(); ++i) EXPECT_EQ(s[i], first);
    // 1.0x mean sits mid-ramp, neither idle nor saturated.
    EXPECT_NE(first, ' ');
    EXPECT_NE(first, '@');
}

TEST(Heatmap, HotspotSaturates)
{
    std::vector<Count> load(16, 10);
    load[7] = 1000;
    auto s = utilizationHeatmap(load, 16);
    EXPECT_EQ(s[8], '@');   // the hotspot cell (offset by '[')
    EXPECT_NE(s[1], '@');
}

TEST(Heatmap, IdlePesRenderBlank)
{
    std::vector<Count> load = {0, 0, 100, 100};
    auto s = utilizationHeatmap(load, 4);
    EXPECT_EQ(s[1], ' ');
    EXPECT_EQ(s[2], ' ');
}

TEST(Heatmap, BucketsDownLongArrays)
{
    std::vector<Count> load(1024, 5);
    auto s = utilizationHeatmap(load, 64);
    EXPECT_EQ(s.size(), 66u);
}

TEST(Heatmap, EmptyInput)
{
    EXPECT_EQ(utilizationHeatmap({}), "");
}

TEST(RowMapPersistence, RoundTripPreservesOwnership)
{
    Rng rng(4);
    RowPartition part(100, 8);
    // Scramble it the way remote switching would.
    for (int i = 0; i < 50; ++i)
        part.moveRow(rng.nextIndex(100), static_cast<int>(rng.nextIndex(8)));
    ASSERT_TRUE(part.consistent());

    std::stringstream ss;
    savePartition(ss, part);
    RowPartition back = loadPartition(ss);

    ASSERT_EQ(back.rows(), part.rows());
    ASSERT_EQ(back.numPes(), part.numPes());
    for (Index r = 0; r < 100; ++r)
        EXPECT_EQ(back.owner(r), part.owner(r));
    EXPECT_TRUE(back.consistent());
}

TEST(RowMapPersistence, RejectsBadHeader)
{
    std::stringstream ss;
    ss << "not-a-rowmap 10 4\n";
    EXPECT_DEATH(loadPartition(ss), "");
}

TEST(RowMapPersistence, RejectsTruncated)
{
    RowPartition part(10, 2);
    std::stringstream ss;
    savePartition(ss, part);
    std::string text = ss.str();
    std::stringstream cut(text.substr(0, text.size() / 2));
    EXPECT_DEATH(loadPartition(cut), "");
}

TEST(RowMapPersistence, RejectsOutOfRangeOwner)
{
    // A well-formed header and the full entry count, but one owner names
    // PE 2 of a 2-PE map; a negative owner is just as corrupt.
    std::stringstream high("awbgcn-rowmap-v1 4 2\n0 1 2 1\n");
    EXPECT_DEATH(loadPartition(high), "truncated or corrupt");
    std::stringstream negative("awbgcn-rowmap-v1 4 2\n0 -1 1 1\n");
    EXPECT_DEATH(loadPartition(negative), "truncated or corrupt");
}
