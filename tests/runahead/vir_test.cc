/**
 * @file
 * Tests for the Vector Issue Register pacing model (paper §4.2.2).
 */

#include <gtest/gtest.h>

#include "runahead/vir.hh"

namespace vrsim
{
namespace
{

RunaheadConfig
cfg()
{
    return RunaheadConfig{};   // 16 x 8 lanes
}

TEST(VirTest, ScalarInstructionTakesOneSlot)
{
    VectorIssueRegister vir(cfg());
    vir.start(100);
    LaneMask m;
    for (int i = 0; i < 128; i++)
        m.set(i);
    Cycle t = vir.issue(m, false);
    EXPECT_EQ(t, 100u);
    EXPECT_EQ(vir.now(), 101u);
}

TEST(VirTest, FullVectorTakesSixteenCopies)
{
    VectorIssueRegister vir(cfg());
    vir.start(0);
    LaneMask m;
    for (int i = 0; i < 128; i++)
        m.set(i);
    Cycle t = vir.issue(m, true);
    EXPECT_EQ(t, 0u);
    EXPECT_EQ(vir.now(), 16u);   // 128 lanes / 8 per copy
    EXPECT_EQ(vir.issuedCopies(), 16u);
}

TEST(VirTest, PartialMaskRoundsUp)
{
    VectorIssueRegister vir(cfg());
    vir.start(0);
    LaneMask m;
    for (int i = 0; i < 20; i++)
        m.set(i);
    vir.issue(m, true);
    EXPECT_EQ(vir.now(), 3u);   // ceil(20 / 8)
}

/** Rank of @p lane in @p mask: the active lanes before it. */
uint32_t
rankIn(const LaneMask &mask, uint32_t lane)
{
    return uint32_t((mask << (MAX_LANES - lane)).count());
}

TEST(VirTest, CopyOfMapsLanesToCopies)
{
    // Under a full mask a lane's rank is its index.
    VectorIssueRegister vir(cfg());
    EXPECT_EQ(vir.copyOf(0), 0u);
    EXPECT_EQ(vir.copyOf(7), 0u);
    EXPECT_EQ(vir.copyOf(8), 1u);
    EXPECT_EQ(vir.copyOf(127), 15u);
}

TEST(VirTest, CopyOfCountsOnlyActiveLanes)
{
    VectorIssueRegister vir(cfg());
    LaneMask m;
    // Only even lanes active: lane 16 is the 9th active lane.
    for (int i = 0; i < 128; i += 2)
        m.set(i);
    EXPECT_EQ(rankIn(m, 16), 8u);
    EXPECT_EQ(vir.copyOf(rankIn(m, 16)), 1u);
    EXPECT_EQ(vir.copyOf(rankIn(m, 14)), 0u);
}

TEST(VirTest, WaitUntilOnlyMovesForward)
{
    VectorIssueRegister vir(cfg());
    vir.start(50);
    vir.waitUntil(40);
    EXPECT_EQ(vir.now(), 50u);
    vir.waitUntil(70);
    EXPECT_EQ(vir.now(), 70u);
}

TEST(VirTest, EmptyMaskStillAdvancesOneSlot)
{
    VectorIssueRegister vir(cfg());
    vir.start(0);
    LaneMask empty;
    vir.issue(empty, true);
    EXPECT_EQ(vir.now(), 1u);
}

} // namespace
} // namespace vrsim
