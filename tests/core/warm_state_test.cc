/**
 * @file
 * Tests of warming fast-forward, the functional mode that keeps tags
 * and predictors warm between the detailed windows of interval
 * sampling (docs/sampling.md): it must commit the same architectural
 * stream as plain fast-forward and leave every statistic untouched.
 */

#include <gtest/gtest.h>

#include "core/ooo_core.hh"

namespace vrsim
{
namespace
{

/**
 * A load/store loop over hashed addresses in a 256 KiB region: big
 * enough to spill L1D, with a data-dependent branch so the BP/BTB
 * warm state matters too.
 */
Program
chaseProgram()
{
    ProgramBuilder b("chase");
    b.movi(1, 0);               // i
    b.movi(2, 0x100000);        // data region base
    b.movi(4, 1'000'000'000);   // bound (budget stops us first)
    auto top = b.here();
    b.hash(5, 1, 17);
    b.andi(5, 5, (1 << 18) - 8);  // 8-aligned offset in 256 KiB
    b.add(5, 5, 2);
    b.ld(6, 5);
    b.add(7, 7, 6);
    b.st(7, 5);
    b.andi(8, 6, 1);            // data-dependent branch
    auto skip = b.makeLabel();
    b.brz(8, skip);
    b.addi(7, 7, 3);
    b.bind(skip);
    b.addi(1, 1, 1);
    b.cmpltu(8, 1, 4);
    b.br(8, top);
    b.halt();
    return b.build();
}

struct Rig
{
    Program prog = chaseProgram();
    MemoryImage img;
    SystemConfig cfg = SystemConfig::paper();
    MemoryHierarchy hier;
    OooCore core;

    Rig() : hier(cfg, img), core(cfg, prog, img, hier) {}
};

TEST(WarmStateTest, WarmingFastForwardPreservesArchitecture)
{
    // Warming FF and plain FF commit identical architectural streams;
    // only the clock (and cache/BP contents) differ.
    Rig warm, plain;
    CpuState sw, sp;
    Cycle cw = 100, cp = 100;

    uint64_t nw = warm.core.fastForward(sw, 5000, cw, /*warm=*/true);
    uint64_t np = plain.core.fastForward(sp, 5000, cp, /*warm=*/false);

    EXPECT_EQ(nw, 5000u);
    EXPECT_EQ(np, 5000u);
    EXPECT_EQ(cw, 100u + 5000u);  // warm FF ticks the clock...
    EXPECT_EQ(cp, 100u);          // ...plain FF leaves it alone
    EXPECT_EQ(sw.pc, sp.pc);
    for (size_t r = 0; r < sw.regs.size(); r++)
        EXPECT_EQ(sw.regs[r], sp.regs[r]) << "reg " << r;
}

TEST(WarmStateTest, WarmingFastForwardLeavesStatisticsUntouched)
{
    Rig rig;
    CpuState s;
    Cycle clock = 0;
    rig.core.fastForward(s, 5000, clock, /*warm=*/true);

    // Warming touches tags and predictors only — the statistics a
    // measured window reports must start from zero.
    const MemStats ms = rig.hier.stats();
    EXPECT_EQ(ms.demand_accesses, 0u);
    EXPECT_EQ(ms.demand_l1_hits, 0u);
    EXPECT_EQ(ms.demand_mem, 0u);
    EXPECT_EQ(ms.dramTotal(), 0u);
}

} // namespace
} // namespace vrsim
