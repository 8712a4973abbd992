/**
 * @file
 * Unit tests for the tag-only cache array and the MSHR bank.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"

namespace vrsim
{
namespace
{

CacheConfig
smallCache()
{
    // 4 sets x 2 ways x 64B lines = 512 B.
    CacheConfig cfg;
    cfg.size_bytes = 512;
    cfg.assoc = 2;
    cfg.line_bytes = 64;
    cfg.latency = 4;
    return cfg;
}

TEST(CacheArrayTest, MissThenHit)
{
    CacheArray c("t", smallCache());
    EXPECT_EQ(c.lookup(1, 0), nullptr);
    c.insert(1, 0, 10, Requester::Demand);
    auto *l = c.lookup(1, 5);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->fill_time, 10u);
}

TEST(CacheArrayTest, LruEvictsLeastRecentlyUsed)
{
    CacheArray c("t", smallCache());
    // Lines 0, 4, 8 map to set 0 (4 sets).
    c.insert(0, 1, 1, Requester::Demand);
    c.insert(4, 2, 2, Requester::Demand);
    c.lookup(0, 3);   // touch 0: 4 is now LRU
    auto ev = c.insert(8, 4, 4, Requester::Demand);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->tag, 4u);
    EXPECT_NE(c.peek(0), nullptr);
    EXPECT_EQ(c.peek(4), nullptr);
    EXPECT_NE(c.peek(8), nullptr);
}

TEST(CacheArrayTest, ReinsertKeepsEarliestFill)
{
    CacheArray c("t", smallCache());
    c.insert(7, 0, 100, Requester::Demand);
    auto ev = c.insert(7, 1, 50, Requester::Demand);
    EXPECT_FALSE(ev.has_value());
    EXPECT_EQ(c.peek(7)->fill_time, 50u);
}

TEST(CacheArrayTest, InvalidateRemovesLine)
{
    CacheArray c("t", smallCache());
    c.insert(3, 0, 0, Requester::Demand);
    c.invalidate(3);
    EXPECT_EQ(c.peek(3), nullptr);
    c.invalidate(3);   // idempotent
}

TEST(CacheArrayTest, PeekDoesNotTouchLru)
{
    CacheArray c("t", smallCache());
    c.insert(0, 1, 1, Requester::Demand);
    c.insert(4, 2, 2, Requester::Demand);
    c.peek(0);   // must NOT refresh 0
    auto ev = c.insert(8, 3, 3, Requester::Demand);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->tag, 0u);   // 0 was still LRU
}

TEST(CacheArrayTest, OriginAndUsedTracking)
{
    CacheArray c("t", smallCache());
    c.insert(2, 0, 0, Requester::Runahead);
    auto *l = c.lookup(2, 1);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->origin, Requester::Runahead);
    EXPECT_FALSE(l->used_since_fill);
}

TEST(CacheArrayTest, LineAddrMapping)
{
    CacheArray c("t", smallCache());
    EXPECT_EQ(c.lineAddr(0), 0u);
    EXPECT_EQ(c.lineAddr(63), 0u);
    EXPECT_EQ(c.lineAddr(64), 1u);
    EXPECT_EQ(c.lineBytes(), 64u);
}

TEST(CacheArrayTest, BadGeometryPanics)
{
    CacheConfig cfg = smallCache();
    cfg.size_bytes = 64;
    cfg.assoc = 4;   // smaller than one set
    EXPECT_THROW(CacheArray("bad", cfg), PanicError);
}

TEST(CacheArrayTest, NonPowerOfTwoLineSizePanics)
{
    // lineAddr() is a shift, so the array itself must refuse a line
    // size that is not a power of two.
    CacheConfig cfg = smallCache();
    cfg.line_bytes = 48;
    cfg.size_bytes = 48 * 8;
    EXPECT_THROW(CacheArray("bad", cfg), PanicError);
}

TEST(MshrBankTest, ImmediateAllocationWhenFree)
{
    MshrBank bank(4);
    Cycle fill = 0;
    Cycle issue = bank.allocate(100, 200, fill);
    EXPECT_EQ(issue, 100u);
    EXPECT_EQ(fill, 300u);
    EXPECT_EQ(bank.allocations(), 1u);
    EXPECT_EQ(bank.stalls(), 0u);
}

TEST(MshrBankTest, SaturationDelaysAllocation)
{
    MshrBank bank(2);
    Cycle fill = 0;
    bank.allocate(0, 100, fill);
    bank.allocate(0, 100, fill);
    // Third concurrent miss must wait for a register.
    Cycle issue = bank.allocate(0, 100, fill);
    EXPECT_GT(issue, 0u);
    EXPECT_GE(bank.stalls(), 1u);
}

TEST(MshrBankTest, NonChronologicalAllocationsDoNotBlockPast)
{
    // The regression that motivated IntervalResource: a reservation
    // far in the future must not delay an earlier one.
    MshrBank bank(2);
    Cycle fill = 0;
    bank.allocate(100000, 200, fill);
    Cycle issue = bank.allocate(10, 200, fill);
    EXPECT_EQ(issue, 10u);
}

TEST(MshrBankTest, BusyIntegralAccumulates)
{
    MshrBank bank(8);
    Cycle fill = 0;
    bank.allocate(0, 100, fill);
    bank.allocate(0, 50, fill);
    EXPECT_EQ(bank.busyIntegral(), 150u);
    bank.reset();
    EXPECT_EQ(bank.busyIntegral(), 0u);
}

TEST(MshrBankTest, BusyAtReflectsOutstanding)
{
    MshrBank bank(8);
    Cycle fill = 0;
    bank.allocate(0, 100, fill);
    bank.allocate(0, 100, fill);
    EXPECT_EQ(bank.busyAt(50), 2u);
    EXPECT_EQ(bank.busyAt(1000), 0u);
}

TEST(CacheReplTest, FifoIgnoresHits)
{
    CacheConfig cfg = smallCache();
    cfg.repl = ReplPolicy::Fifo;
    CacheArray c("t", cfg);
    c.insert(0, 1, 1, Requester::Demand);
    c.insert(4, 2, 2, Requester::Demand);
    c.lookup(0, 3);   // FIFO: must NOT refresh line 0
    auto ev = c.insert(8, 4, 4, Requester::Demand);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->tag, 0u);   // oldest insertion evicted despite hit
}

TEST(CacheReplTest, RandomEvictsSomeValidWay)
{
    CacheConfig cfg = smallCache();
    cfg.repl = ReplPolicy::Random;
    CacheArray c("t", cfg);
    c.insert(0, 1, 1, Requester::Demand);
    c.insert(4, 2, 2, Requester::Demand);
    auto ev = c.insert(8, 3, 3, Requester::Demand);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->tag == 0u || ev->tag == 4u);
    // The new line is resident either way.
    EXPECT_NE(c.peek(8), nullptr);
}

/** 4 sets x 4 ways; lines 0, 4, 8, 12, 16 all map to set 0. */
CacheConfig
fourWayCache(ReplPolicy p)
{
    CacheConfig cfg = smallCache();
    cfg.size_bytes = 1024;
    cfg.assoc = 4;
    cfg.repl = p;
    return cfg;
}

TEST(CacheReplTest, TiedLastUseEvictsLowestWay)
{
    for (ReplPolicy p : {ReplPolicy::Lru, ReplPolicy::Fifo}) {
        CacheArray c("t", fourWayCache(p));
        // Ways 0..3 in insertion order, last_use 7, 3, 3, 9: ways 1
        // and 2 tie for the oldest, and the lower one goes first.
        c.insert(0, 7, 7, Requester::Demand);
        c.insert(4, 3, 3, Requester::Demand);
        c.insert(8, 3, 3, Requester::Demand);
        c.insert(12, 9, 9, Requester::Demand);
        auto ev = c.insert(16, 10, 10, Requester::Demand);
        ASSERT_TRUE(ev.has_value());
        EXPECT_EQ(ev->tag, 4u);
        ev = c.insert(20, 11, 11, Requester::Demand);
        ASSERT_TRUE(ev.has_value());
        EXPECT_EQ(ev->tag, 8u);
    }
}

TEST(CacheReplTest, FirstInvalidWayBeatsOlderValidWays)
{
    for (ReplPolicy p : {ReplPolicy::Lru, ReplPolicy::Fifo,
                         ReplPolicy::Random}) {
        CacheArray c("t", fourWayCache(p));
        c.insert(0, 1, 1, Requester::Demand);
        c.insert(4, 2, 2, Requester::Demand);
        c.insert(8, 3, 3, Requester::Demand);
        c.insert(12, 4, 4, Requester::Demand);
        c.invalidate(8);    // way 2
        c.invalidate(4);    // way 1
        // Both holes are refilled before any valid line is evicted,
        // although line 0 is older than all of them.
        EXPECT_FALSE(c.insert(16, 5, 5, Requester::Demand).has_value());
        EXPECT_FALSE(c.insert(20, 6, 6, Requester::Demand).has_value());
        auto ev = c.insert(24, 7, 7, Requester::Demand);
        ASSERT_TRUE(ev.has_value());
        if (p != ReplPolicy::Random) {
            EXPECT_EQ(ev->tag, 0u);
        }
    }
}

TEST(CacheReplTest, PoliciesFillInvalidWaysFirst)
{
    for (ReplPolicy p : {ReplPolicy::Lru, ReplPolicy::Fifo,
                         ReplPolicy::Random}) {
        CacheConfig cfg = smallCache();
        cfg.repl = p;
        CacheArray c("t", cfg);
        EXPECT_FALSE(c.insert(0, 1, 1, Requester::Demand).has_value());
        EXPECT_FALSE(c.insert(4, 2, 2, Requester::Demand).has_value());
    }
}

} // namespace
} // namespace vrsim
