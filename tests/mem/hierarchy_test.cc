/**
 * @file
 * Tests for the memory hierarchy: level latencies, inclusive
 * behaviour, MSHR merging, stride prefetching, runahead timeliness
 * accounting and DRAM attribution.
 */

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"

namespace vrsim
{
namespace
{

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest() : cfg(makeCfg()), hier(cfg, image) {}

    static SystemConfig
    makeCfg()
    {
        SystemConfig c = SystemConfig::paper();
        c.stride_pf.enabled = false;   // enable explicitly per test
        return c;
    }

    MemoryImage image;
    SystemConfig cfg;
    MemoryHierarchy hier;

    AccessResult
    load(uint64_t addr, Cycle cycle, Requester who = Requester::Demand,
         uint64_t pc = 0)
    {
        return hier.access(addr, pc, cycle, false, who);
    }
};

TEST_F(HierarchyTest, ColdMissPaysFullPath)
{
    AccessResult r = load(0x10000, 0);
    EXPECT_EQ(r.level, HitLevel::Memory);
    // l1 + l2 + l3 + dram = 4 + 8 + 30 + 200.
    EXPECT_EQ(r.latency, 242u);
}

TEST_F(HierarchyTest, SecondAccessHitsL1)
{
    load(0x10000, 0);
    AccessResult r = load(0x10000, 1000);
    EXPECT_EQ(r.level, HitLevel::L1);
    EXPECT_EQ(r.latency, cfg.l1d.latency);
}

TEST_F(HierarchyTest, SameLineDifferentWordHits)
{
    load(0x10000, 0);
    AccessResult r = load(0x10038, 1000);   // same 64B line
    EXPECT_EQ(r.level, HitLevel::L1);
}

TEST_F(HierarchyTest, InFlightAccessMergesWithFill)
{
    load(0x10000, 0);
    AccessResult r = load(0x10000, 10);   // before fill at 242
    EXPECT_EQ(r.level, HitLevel::L1);
    EXPECT_TRUE(r.mshr_merged);
    EXPECT_EQ(r.latency, 242u - 10u);
}

TEST_F(HierarchyTest, L1EvictionLeavesL2Copy)
{
    // Fill enough distinct lines mapping everywhere to overflow the
    // 32 KB L1 (512 lines) but not the 256 KB L2.
    for (uint64_t i = 0; i < 1024; i++)
        load(0x100000 + i * 64, 10000 + i * 300);
    // The first line is gone from L1 but should hit in L2.
    AccessResult r = load(0x100000, 10000000);
    EXPECT_EQ(r.level, HitLevel::L2);
    EXPECT_EQ(r.latency, cfg.l1d.latency + cfg.l2.latency);
}

TEST_F(HierarchyTest, DemandStatsByLevel)
{
    load(0x20000, 0);
    load(0x20000, 1000);
    const MemStats &s = hier.stats();
    EXPECT_EQ(s.demand_accesses, 2u);
    EXPECT_EQ(s.demand_mem, 1u);
    EXPECT_EQ(s.demand_l1_hits, 1u);
}

TEST_F(HierarchyTest, DramAttributionByRequester)
{
    load(0x30000, 0, Requester::Demand);
    load(0x40000, 0, Requester::Runahead);
    load(0x50000, 0, Requester::StridePf);
    const MemStats &s = hier.stats();
    EXPECT_EQ(s.dram_by_requester[size_t(Requester::Demand)], 1u);
    EXPECT_EQ(s.dram_by_requester[size_t(Requester::Runahead)], 1u);
    EXPECT_EQ(s.dram_by_requester[size_t(Requester::StridePf)], 1u);
    EXPECT_EQ(s.dramTotal(), 3u);
}

TEST_F(HierarchyTest, RunaheadPrefetchTimelinessL1)
{
    // Prefetch a line, let it land, then demand-access it.
    load(0x60000, 0, Requester::Runahead);
    load(0x60000, 100000, Requester::Demand);
    const MemStats &s = hier.stats();
    EXPECT_EQ(s.pf_lines_filled, 1u);
    EXPECT_EQ(s.pf_used_l1, 1u);
    EXPECT_EQ(s.pf_used_inflight, 0u);
}

TEST_F(HierarchyTest, RunaheadPrefetchStillInFlightCountsOffChip)
{
    load(0x70000, 0, Requester::Runahead);
    load(0x70000, 50, Requester::Demand);   // fill is at 242
    const MemStats &s = hier.stats();
    EXPECT_EQ(s.pf_used_inflight, 1u);
    EXPECT_EQ(s.pf_used_l1, 0u);
}

TEST_F(HierarchyTest, PrefetchUseCountedOnlyOnce)
{
    load(0x80000, 0, Requester::Runahead);
    load(0x80000, 100000, Requester::Demand);
    load(0x80000, 100100, Requester::Demand);
    EXPECT_EQ(hier.stats().pf_used_l1, 1u);
}

TEST_F(HierarchyTest, MlpIntegratesMshrOccupancy)
{
    // Two overlapping misses of ~242 cycles each.
    load(0x90000, 0);
    load(0xA0000, 0);
    double mlp = double(hier.l1Mshrs().busyIntegral()) / 500.0;
    EXPECT_NEAR(mlp, 2.0 * 238.0 / 500.0, 0.2);
}

TEST_F(HierarchyTest, MshrSaturationDelaysFills)
{
    // Issue many more concurrent misses than the 24 MSHRs.
    Cycle max_lat = 0;
    for (uint64_t i = 0; i < 64; i++) {
        AccessResult r = load(0x200000 + i * 64, 0);
        max_lat = std::max(max_lat, r.latency);
    }
    // The last ones must wait for MSHR turnover (~2 generations).
    EXPECT_GT(max_lat, 400u);
}

TEST(HierarchyStridePfTest, StreamGetsPrefetched)
{
    MemoryImage image;
    SystemConfig cfg = SystemConfig::paper();
    cfg.stride_pf.enabled = true;
    MemoryHierarchy hier(cfg, image);

    // Walk an array with a fixed PC; after training, lines ahead
    // should already be present.
    uint64_t pc = 0x99;
    Cycle t = 0;
    uint64_t misses_late = 0;
    for (int i = 0; i < 256; i++) {
        AccessResult r = hier.access(0x500000 + uint64_t(i) * 8, pc, t,
                                     false, Requester::Demand);
        if (i > 64 && r.level == HitLevel::Memory)
            ++misses_late;
        t += 300;   // generous spacing: prefetches have time to land
    }
    EXPECT_EQ(misses_late, 0u);
    EXPECT_GT(hier.stats()
                  .dram_by_requester[size_t(Requester::StridePf)],
              0u);
}

} // namespace
} // namespace vrsim
