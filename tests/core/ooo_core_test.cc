/**
 * @file
 * Tests for the out-of-order core timing model: width limits,
 * dependence chains, memory latency, mispredict redirects, window
 * stalls and engine triggering.
 */

#include <gtest/gtest.h>

#include "core/ooo_core.hh"
#include "sim/rng.hh"

namespace vrsim
{
namespace
{

SystemConfig
quietCfg()
{
    SystemConfig cfg = SystemConfig::paper();
    cfg.stride_pf.enabled = false;
    return cfg;
}

/** Engine that records trigger invocations. */
class RecordingEngine : public RunaheadEngine
{
  public:
    Cycle
    onFullRobStall(Cycle start, Cycle head_fill, const CpuState &,
                   TriggerKind) override
    {
        ++triggers;
        last_start = start;
        last_fill = head_fill;
        return head_fill + extra;
    }

    const char *name() const override { return "rec"; }

    uint64_t triggers = 0;
    Cycle last_start = 0;
    Cycle last_fill = 0;
    Cycle extra = 0;
};

TEST(OooCoreTest, IndependentAluBoundedByWidth)
{
    // 1000 independent movi: IPC should approach the 5-wide limit.
    ProgramBuilder b("alu");
    for (int i = 0; i < 1000; i++)
        b.movi(uint8_t(1 + (i % 8)), i);
    b.halt();
    Program p = b.build();
    MemoryImage img;
    SystemConfig cfg = quietCfg();
    MemoryHierarchy hier(cfg, img);
    OooCore core(cfg, p, img, hier);
    CoreStats st = core.run();
    EXPECT_GT(st.ipc(), 3.0);
    EXPECT_LE(st.ipc(), 5.0 + 0.01);
}

TEST(OooCoreTest, SerialDependenceChainOneIpc)
{
    // A serial add chain can retire at most 1 per cycle.
    ProgramBuilder b("chain");
    b.movi(1, 0);
    for (int i = 0; i < 500; i++)
        b.addi(1, 1, 1);
    b.halt();
    Program p = b.build();
    MemoryImage img;
    SystemConfig cfg = quietCfg();
    MemoryHierarchy hier(cfg, img);
    OooCore core(cfg, p, img, hier);
    CoreStats st = core.run();
    EXPECT_LT(st.ipc(), 1.2);
    EXPECT_GT(st.ipc(), 0.8);
}

TEST(OooCoreTest, ColdLoadPaysMemoryLatency)
{
    ProgramBuilder b("ld");
    b.movi(1, 0x100000);
    b.ld(2, 1);
    b.halt();
    Program p = b.build();
    MemoryImage img;
    SystemConfig cfg = quietCfg();
    MemoryHierarchy hier(cfg, img);
    OooCore core(cfg, p, img, hier);
    CoreStats st = core.run();
    EXPECT_GT(st.cycles, 240u);   // one full memory round trip
    EXPECT_EQ(st.loads, 1u);
}

TEST(OooCoreTest, IndependentMissesOverlap)
{
    // 16 independent loads to distinct lines: total time must be far
    // below 16 serial round trips.
    ProgramBuilder b("mlp");
    for (int i = 0; i < 16; i++) {
        b.movi(1, 0x100000 + i * 4096);
        b.ld(uint8_t(2 + (i % 8)), 1);
    }
    b.halt();
    Program p = b.build();
    MemoryImage img;
    SystemConfig cfg = quietCfg();
    MemoryHierarchy hier(cfg, img);
    OooCore core(cfg, p, img, hier);
    CoreStats st = core.run();
    EXPECT_LT(st.cycles, 16 * 242 / 4);
}

TEST(OooCoreTest, DependentMissesSerialize)
{
    // mem[a] -> mem[b] -> mem[c] pointer chase: ~3 round trips.
    MemoryImage img;
    img.write64(0x100000, 0x200000);
    img.write64(0x200000, 0x300000);
    ProgramBuilder b("chase");
    b.movi(1, 0x100000);
    b.ld(1, 1);
    b.ld(1, 1);
    b.ld(1, 1);
    b.halt();
    Program p = b.build();
    SystemConfig cfg = quietCfg();
    MemoryHierarchy hier(cfg, img);
    OooCore core(cfg, p, img, hier);
    CoreStats st = core.run();
    EXPECT_GT(st.cycles, 3 * 242u);
}

TEST(OooCoreTest, MispredictsChargeRedirects)
{
    // A data-dependent branch pattern the predictor cannot learn.
    MemoryImage img;
    Rng rng(3);
    for (int i = 0; i < 512; i++)
        img.write64(0x10000 + i * 8, rng.next() & 1);
    ProgramBuilder b("br");
    constexpr uint8_t RI = 1, RB = 2, RV = 3, RC = 4, RN = 5;
    auto skip = b.makeLabel();
    auto top = b.here();
    b.ld(RV, RB, RI, 8);
    auto lskip = b.makeLabel();
    b.brz(RV, lskip);
    b.addi(RC, RC, 1);
    b.bind(lskip);
    b.addi(RI, RI, 1);
    b.cmplti(RV, RI, 512);
    b.br(RV, top);
    b.bind(skip);
    b.halt();
    Program p = b.build();
    CpuState init;
    init.regs[RB] = 0x10000;
    (void)RN;
    SystemConfig cfg = quietCfg();
    MemoryHierarchy hier(cfg, img);
    OooCore core(cfg, p, img, hier);
    CoreStats st = core.run(init, 0);
    EXPECT_GT(st.mispredicts, 100u);
    EXPECT_GT(st.stall_fetch, st.mispredicts * 10);
}

TEST(OooCoreTest, WindowStallTriggersEngine)
{
    // A long stream of independent misses: the LQ/ROB fills behind
    // pending misses and the engine must be invoked.
    MemoryImage img;
    ProgramBuilder b("stall");
    constexpr uint8_t RI = 1, RB = 2, RV = 3, RC = 4;
    auto top = b.here();
    b.ld(RV, RB, RI, 64);      // every load its own line
    b.addi(RI, RI, 1);
    b.cmplti(RC, RI, 4000);
    b.br(RC, top);
    b.halt();
    Program p = b.build();
    CpuState init;
    init.regs[RB] = 0x400000;

    SystemConfig cfg = quietCfg();
    MemoryHierarchy hier(cfg, img);
    RecordingEngine eng;
    OooCore core(cfg, p, img, hier, &eng);
    CoreStats st = core.run(init, 0);
    EXPECT_GT(eng.triggers, 0u);
    EXPECT_EQ(st.full_rob_stall_events, eng.triggers);
    EXPECT_GT(eng.last_fill, eng.last_start);
}

TEST(OooCoreTest, DelayedTerminationStallsCommit)
{
    MemoryImage img;
    ProgramBuilder b("dt");
    constexpr uint8_t RI = 1, RB = 2, RV = 3, RC = 4;
    auto top = b.here();
    b.ld(RV, RB, RI, 64);
    b.addi(RI, RI, 1);
    b.cmplti(RC, RI, 4000);
    b.br(RC, top);
    b.halt();
    Program p = b.build();
    CpuState init;
    init.regs[RB] = 0x400000;

    SystemConfig cfg = quietCfg();
    MemoryHierarchy h1(cfg, img), h2(cfg, img);
    RecordingEngine plain;
    OooCore c1(cfg, p, img, h1, &plain);
    CoreStats s1 = c1.run(init, 0);

    RecordingEngine delayed;
    delayed.extra = 500;
    OooCore c2(cfg, p, img, h2, &delayed);
    CoreStats s2 = c2.run(init, 0);

    EXPECT_EQ(s1.runahead_commit_stall, 0u);
    EXPECT_GT(s2.runahead_commit_stall, 0u);
    EXPECT_GT(s2.cycles, s1.cycles);
}

TEST(OooCoreTest, OracleFasterThanBaselineOnMissyCode)
{
    MemoryImage img;
    Rng rng(9);
    for (int i = 0; i < 4096; i++)
        img.write64(0x10000 + i * 8, rng.below(4096));
    ProgramBuilder b("gather");
    constexpr uint8_t RI = 1, RB = 2, RD = 3, RV = 4, RS = 5,
                      RC = 6;
    auto top = b.here();
    b.ld(RV, RB, RI, 8);
    b.ld(RV, RD, RV, 8);
    b.add(RS, RS, RV);
    b.addi(RI, RI, 1);
    b.cmplti(RC, RI, 4096);
    b.br(RC, top);
    b.halt();
    Program p = b.build();
    CpuState init;
    init.regs[RB] = 0x10000;
    init.regs[RD] = 0x900000;

    SystemConfig base = quietCfg();
    MemoryHierarchy h1(base, img);
    OooCore c1(base, p, img, h1);
    CoreStats s1 = c1.run(init, 0);

    SystemConfig ocfg = quietCfg();
    ocfg.technique = Technique::Oracle;
    MemoryHierarchy h2(ocfg, img);
    OooCore c2(ocfg, p, img, h2);
    CoreStats s2 = c2.run(init, 0);

    EXPECT_LT(s2.cycles, s1.cycles);
}

TEST(OooCoreTest, InstructionBudgetRespected)
{
    ProgramBuilder b("inf");
    auto top = b.here();
    b.addi(1, 1, 1);
    b.jmp(top);
    Program p = b.build();
    MemoryImage img;
    SystemConfig cfg = quietCfg();
    MemoryHierarchy hier(cfg, img);
    OooCore core(cfg, p, img, hier);
    CoreStats st = core.run(CpuState{}, 1234);
    EXPECT_EQ(st.instructions, 1234u);
}

TEST(OooCoreTest, CountsLoadsStoresBranches)
{
    MemoryImage img;
    ProgramBuilder b("mix");
    b.movi(1, 0x1000);
    b.ld(2, 1);
    b.st(2, 1, REG_NONE, 1, 8);
    b.cmpeqi(3, 2, 0);
    auto l = b.makeLabel();
    b.brz(3, l);
    b.bind(l);
    b.halt();
    Program p = b.build();
    SystemConfig cfg = quietCfg();
    MemoryHierarchy hier(cfg, img);
    OooCore core(cfg, p, img, hier);
    CoreStats st = core.run();
    EXPECT_EQ(st.loads, 1u);
    EXPECT_EQ(st.stores, 1u);
    EXPECT_EQ(st.branches, 1u);
}

TEST(OooCoreTest, IcacheMissesOnlyOnFreshLines)
{
    // A tight loop touches few I-lines: misses stay tiny; a long
    // straight-line program touches many but the sequential prefetch
    // hides all but the first region.
    ProgramBuilder b("loop");
    b.movi(1, 0);
    auto top = b.here();
    b.addi(1, 1, 1);
    b.cmplti(2, 1, 5000);
    b.br(2, top);
    b.halt();
    Program p = b.build();
    MemoryImage img;
    SystemConfig cfg = quietCfg();
    MemoryHierarchy hier(cfg, img);
    OooCore core(cfg, p, img, hier);
    CoreStats st = core.run();
    EXPECT_LE(st.icache_misses, 2u);
}

/** A 1000-iteration counted loop: one taken backward branch. */
Program
btbLoop()
{
    ProgramBuilder b("btb");
    b.movi(1, 0);
    auto top = b.here();
    b.addi(1, 1, 1);
    b.cmplti(2, 1, 1000);
    b.br(2, top);
    b.halt();
    return b.build();
}

TEST(OooCoreTest, BtbMissesOncePerTakenTarget)
{
    // The loop's backward branch misses the BTB exactly once.
    Program p = btbLoop();
    MemoryImage img;
    SystemConfig cfg = quietCfg();
    MemoryHierarchy hier(cfg, img);
    OooCore core(cfg, p, img, hier);
    CoreStats st = core.run();
    EXPECT_EQ(st.btb_misses, 1u);
}

TEST(OooCoreTest, WarmupExcludesBtbAndIcacheMisses)
{
    // The loop's only BTB miss and only L1I miss both fall in its
    // first iteration, so a warmup past it leaves neither in the ROI.
    Program p = btbLoop();
    MemoryImage img;
    SystemConfig cfg = quietCfg();
    MemoryHierarchy hier(cfg, img);
    OooCore core(cfg, p, img, hier);
    CoreStats st = core.run(CpuState{}, 0, /*warmup_insts=*/10);
    EXPECT_EQ(st.btb_misses, 0u);
    EXPECT_EQ(st.icache_misses, 0u);
    EXPECT_GT(st.instructions, 2900u);
}

TEST(OooCoreTest, CpiStackSumsToCpi)
{
    MemoryImage img;
    Rng rng(4);
    for (int i = 0; i < 2048; i++)
        img.write64(0x10000 + i * 8, rng.below(2048));
    ProgramBuilder b("cpistack");
    constexpr uint8_t RI = 1, RB = 2, RD = 3, RV = 4, RC = 5;
    auto top = b.here();
    b.ld(RV, RB, RI, 8);
    b.ld(RV, RD, RV, 8);
    b.addi(RI, RI, 1);
    b.cmplti(RC, RI, 2048);
    b.br(RC, top);
    b.halt();
    Program p = b.build();
    CpuState init;
    init.regs[RB] = 0x10000;
    init.regs[RD] = 0x800000;
    SystemConfig cfg = quietCfg();
    MemoryHierarchy hier(cfg, img);
    OooCore core(cfg, p, img, hier);
    CoreStats st = core.run(init, 0);
    auto cs = st.cpiStack();
    double cpi = double(st.cycles) / double(st.instructions);
    EXPECT_NEAR(cs.total(), cpi, 1e-9);
    EXPECT_GE(cs.base, 0.0);
}

TEST(OooCoreTest, WarmupExcludesColdStart)
{
    MemoryImage img;
    Rng rng(6);
    for (int i = 0; i < 8192; i++)
        img.write64(0x10000 + i * 8, rng.below(4096));
    ProgramBuilder b("warm");
    constexpr uint8_t RI = 1, RB = 2, RV = 3, RC = 4;
    auto top = b.here();
    b.ld(RV, RB, RI, 8);       // streaming: hits after warmup
    b.addi(RI, RI, 1);
    b.andi(RI, RI, 8191);
    b.cmplti(RC, 5, 6);        // always true: spin forever
    b.br(RC, top);
    b.halt();
    Program p = b.build();
    CpuState init;
    init.regs[RB] = 0x10000;

    SystemConfig cfg = quietCfg();
    MemoryHierarchy h1(cfg, img);
    OooCore c1(cfg, p, img, h1);
    CoreStats cold = c1.run(init, 40000);

    MemoryHierarchy h2(cfg, img);
    OooCore c2(cfg, p, img, h2);
    CoreStats warm = c2.run(init, 60000, 20000, {});
    EXPECT_EQ(warm.instructions, 40000u);
    // Same ROI length; the warm run must not be slower than the
    // cold-start-inclusive one.
    EXPECT_LE(warm.cycles, cold.cycles + cold.cycles / 10);
}

} // namespace
} // namespace vrsim
