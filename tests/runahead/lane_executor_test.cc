/**
 * @file
 * Tests for the SIMT lane executor: lockstep execution, per-lane
 * dependent timing, divergence under both VR (invalidate) and DVR
 * (reconverge) policies, and termination rules.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <sstream>
#include <string>

#include "mem/hierarchy.hh"
#include "obs/trace.hh"
#include "runahead/lane_executor.hh"

namespace vrsim
{
namespace
{

class LaneExecTest : public ::testing::Test
{
  protected:
    LaneExecTest() : cfg(makeCfg()), hier(cfg, image) {}

    static SystemConfig
    makeCfg()
    {
        SystemConfig c = SystemConfig::paper();
        c.stride_pf.enabled = false;
        return c;
    }

    SystemConfig cfg;
    MemoryImage image;
    MemoryHierarchy hier;

    std::vector<Lane>
    makeLanes(unsigned n, uint32_t pc,
              std::function<void(unsigned, CpuState &)> seed)
    {
        std::vector<Lane> lanes(n);
        for (unsigned j = 0; j < n; j++) {
            lanes[j].ctx.pc = pc;
            seed(j, lanes[j].ctx);
        }
        return lanes;
    }

    /**
     * Run @p fn with the hierarchy's `mem` trace on and return the
     * cycle each traced access was issued at, keyed by address.
     */
    std::map<uint64_t, Cycle>
    issueCycles(const std::function<void()> &fn)
    {
        std::ostringstream os;
        TraceSink sink(os, uint32_t(TraceCat::Mem));
        hier.setTraceSink(&sink);
        fn();
        hier.setTraceSink(nullptr);
        std::map<uint64_t, Cycle> out;
        std::istringstream is(os.str());
        for (std::string line; std::getline(is, line);) {
            auto field = [&](const char *key) {
                size_t at = line.find(key);
                EXPECT_NE(at, std::string::npos) << line;
                return std::stoull(line.substr(at + std::strlen(key)));
            };
            out[field("\"addr\":")] = field("\"cyc\":");
        }
        return out;
    }
};

TEST_F(LaneExecTest, StraightLineChainIssuesPerLanePrefetches)
{
    // r2 = mem[r1]; r3 = mem[r4 + r2*8]; then back to "stride pc" 0.
    Program p = [&] {
        ProgramBuilder bb("chain");
        auto stride = bb.here();
        bb.nop();
        bb.ld(2, 1);
        bb.ld(3, 4, 2, 8);
        bb.jmp(stride);
        return bb.build();
    }();

    for (unsigned j = 0; j < 8; j++)
        image.write64(0x1000 + j * 0x100, j * 3);

    auto lanes = makeLanes(8, 1, [&](unsigned j, CpuState &ctx) {
        ctx.regs[1] = 0x1000 + j * 0x100;
        ctx.regs[4] = 0x800000;
    });

    LaneExecutor ex(cfg.runahead, p, image, hier);
    LaneRunStats st = ex.run(lanes, /*stride_pc=*/0, /*flr=*/0,
                             false, true, 10);
    // Two loads per lane.
    EXPECT_EQ(st.prefetches, 16u);
    EXPECT_EQ(st.divergences, 0u);
    for (auto &l : lanes)
        EXPECT_TRUE(l.done);
    EXPECT_GT(st.end_time, 10u);
}

TEST_F(LaneExecTest, DependentLoadWaitsForLaneFill)
{
    ProgramBuilder bb("dep");
    auto stride = bb.here();
    bb.nop();
    bb.ld(2, 1);                   // miss: ~242 cycles
    bb.ld(3, 4, 2, 8);             // must issue after the fill
    bb.jmp(stride);
    Program p = bb.build();

    auto lanes = makeLanes(1, 1, [&](unsigned, CpuState &ctx) {
        ctx.regs[1] = 0x50000;
        ctx.regs[4] = 0x900000;
    });
    LaneExecutor ex(cfg.runahead, p, image, hier);
    LaneRunStats st = ex.run(lanes, 0, 0, false, true, 0);
    // end_time covers the dependent access issued after ~242 cycles.
    EXPECT_GT(st.end_time, 242u);
}

TEST_F(LaneExecTest, VrModeInvalidatesDivergentLanes)
{
    // Branch on a per-lane value: half the lanes diverge.
    ProgramBuilder bb("div");
    auto stride = bb.here();
    bb.nop();                       // pc 0
    auto path_b = bb.makeLabel();
    bb.br(2, path_b);               // pc 1: diverges on r2
    bb.addi(3, 3, 1);               // pc 2: path A
    bb.jmp(stride);                 // pc 3
    bb.bind(path_b);
    bb.addi(4, 4, 1);               // pc 4: path B
    bb.jmp(stride);                 // pc 5
    Program p = bb.build();

    auto lanes = makeLanes(8, 1, [&](unsigned j, CpuState &ctx) {
        ctx.regs[2] = j % 2;
    });
    LaneExecutor ex(cfg.runahead, p, image, hier);
    LaneRunStats st = ex.run(lanes, 0, 0, false, /*reconverge=*/false,
                             0);
    EXPECT_EQ(st.divergences, 1u);
    EXPECT_EQ(st.invalidated, 4u);   // the non-leading half is killed
}

TEST_F(LaneExecTest, DvrModeExecutesBothPaths)
{
    // Same divergent program, but each path loads different data:
    // with reconvergence both paths' loads must issue.
    ProgramBuilder bb("div2");
    auto stride = bb.here();
    bb.nop();
    auto path_b = bb.makeLabel();
    bb.br(2, path_b);
    bb.ld(3, 5);                    // path A load
    bb.jmp(stride);
    bb.bind(path_b);
    bb.ld(4, 6);                    // path B load
    bb.jmp(stride);
    Program p = bb.build();

    auto lanes = makeLanes(8, 1, [&](unsigned j, CpuState &ctx) {
        ctx.regs[2] = j % 2;
        ctx.regs[5] = 0x111000 + j * 64;
        ctx.regs[6] = 0x222000 + j * 64;
    });
    LaneExecutor ex(cfg.runahead, p, image, hier);
    LaneRunStats st = ex.run(lanes, 0, 0, false, /*reconverge=*/true,
                             0);
    EXPECT_EQ(st.divergences, 1u);
    EXPECT_EQ(st.invalidated, 0u);
    EXPECT_EQ(st.prefetches, 8u);   // every lane issued its load
    for (auto &l : lanes)
        EXPECT_TRUE(l.done);
}

TEST_F(LaneExecTest, StopAtFlrEndsLaneAfterFinalLoad)
{
    ProgramBuilder bb("flr");
    auto stride = bb.here();
    bb.nop();                       // pc 0
    bb.ld(2, 1);                    // pc 1  <- FLR
    bb.addi(3, 3, 1);               // pc 2 (should not execute)
    bb.jmp(stride);
    Program p = bb.build();

    auto lanes = makeLanes(4, 1, [&](unsigned j, CpuState &ctx) {
        ctx.regs[1] = 0x3000 + j * 64;
    });
    LaneExecutor ex(cfg.runahead, p, image, hier);
    LaneRunStats st = ex.run(lanes, 0, /*flr=*/1, /*stop_at_flr=*/true,
                             true, 0);
    EXPECT_EQ(st.prefetches, 4u);
    EXPECT_EQ(st.insts, 4u);        // exactly the FLR load per lane
}

TEST_F(LaneExecTest, VectorLoadIssueCyclesFollowActiveRank)
{
    // One vectorized load over 20 lanes, of which lanes 2, 9 and 13
    // are already done on entry. A lane rides VIR copy rank / 8, where
    // its rank counts only the active lanes before it: lane 8 (rank 7)
    // is still in copy 0 and lane 19 (rank 16) is in copy 2.
    ProgramBuilder bb("rank");
    auto stride = bb.here();
    bb.nop();                       // pc 0
    bb.ld(2, 1);                    // pc 1
    bb.jmp(stride);
    Program p = bb.build();

    auto lanes = makeLanes(20, 1, [&](unsigned j, CpuState &ctx) {
        ctx.regs[1] = 0x40000 + j * 64;
    });
    for (unsigned j : {2u, 9u, 13u})
        lanes[j].done = true;
    LaneExecutor ex(cfg.runahead, p, image, hier);
    const Cycle start = 1000;
    auto issued = issueCycles(
        [&] { ex.run(lanes, 0, 0, false, true, start); });

    // Copy index per lane; -1: inactive on entry, issues nothing.
    const int copy[20] = {0, 0, -1, 0, 0, 0, 0, 0, 0, -1,
                          1, 1, 1, -1, 1, 1, 1, 1, 1, 2};
    EXPECT_EQ(issued.size(), 17u);
    for (unsigned j = 0; j < 20; j++) {
        const uint64_t addr = 0x40000 + j * 64;
        if (copy[j] < 0) {
            EXPECT_EQ(issued.count(addr), 0u) << "lane " << j;
            continue;
        }
        ASSERT_EQ(issued.count(addr), 1u) << "lane " << j;
        EXPECT_EQ(issued[addr], start + Cycle(copy[j])) << "lane " << j;
    }
}

TEST_F(LaneExecTest, FlrLoadLanesAllIssueInFirstCopy)
{
    // Every lane ends at the FLR load, and a lane that has ended drops
    // out of the rank of the lanes after it. So all 18 active lanes
    // issue in copy 0, although the VIR charges ceil(18 / 8) = 3
    // copies for the instruction (the copy-rank quirk documented in
    // LaneExecutor::run).
    ProgramBuilder bb("flr-rank");
    auto stride = bb.here();
    bb.nop();                       // pc 0
    bb.ld(2, 1);                    // pc 1  <- FLR
    bb.addi(3, 3, 1);               // pc 2 (never reached)
    bb.jmp(stride);
    Program p = bb.build();

    auto lanes = makeLanes(20, 1, [&](unsigned j, CpuState &ctx) {
        ctx.regs[1] = 0x60000 + j * 64;
    });
    lanes[2].done = true;
    lanes[9].done = true;
    LaneExecutor ex(cfg.runahead, p, image, hier);
    const Cycle start = 1000;
    LaneRunStats st;
    auto issued = issueCycles([&] {
        st = ex.run(lanes, 0, /*flr=*/1, /*stop_at_flr=*/true, true,
                    start);
    });

    EXPECT_EQ(issued.size(), 18u);
    for (unsigned j = 0; j < 20; j++) {
        const uint64_t addr = 0x60000 + j * 64;
        if (j == 2 || j == 9) {
            EXPECT_EQ(issued.count(addr), 0u) << "lane " << j;
            continue;
        }
        ASSERT_EQ(issued.count(addr), 1u) << "lane " << j;
        EXPECT_EQ(issued[addr], start) << "lane " << j;
    }
    EXPECT_EQ(st.end_time, start + 3);
}

TEST_F(LaneExecTest, SeedGathersEachLaneIterationInVirCopyOrder)
{
    // Seeding 20 lanes from a striding load with first = 3: lane j
    // loads iteration 3 + j in VIR copy j / 8 and resumes after the
    // load with the element in its destination and the rest of the
    // seed state. The chain starts once the gather's ceil(20 / 8) = 3
    // copies have issued. A 32-bit load seeds 32-bit elements.
    ProgramBuilder bb("seed");
    bb.nop();                       // pc 0
    bb.ld(2, 1);                    // pc 1: the striding load
    bb.ld32(3, 1);                  // pc 2: the same, 32 bits wide
    Program p = bb.build();

    const uint64_t base = 0x40000;
    const int64_t stride = 64;
    for (unsigned k = 0; k < 23; k++)
        image.write64(base + k * stride, (uint64_t(k) << 32) | (100 + k));
    CpuState from;
    from.regs[5] = 77;
    StepInfo load;
    load.pc = 1;
    load.next_pc = 2;
    load.inst = &p.at(1);
    load.addr = base;

    std::vector<Lane> lanes(20);
    LaneExecutor ex(cfg.runahead, p, image, hier);
    const Cycle start = 1000;
    Cycle chain_start = 0;
    auto issued = issueCycles([&] {
        chain_start = ex.seed(lanes, from, load, stride, 3, start);
    });

    EXPECT_EQ(chain_start, start + 3);
    EXPECT_EQ(issued.size(), 20u);
    for (unsigned j = 0; j < 20; j++) {
        const uint64_t addr = base + (3 + j) * stride;
        ASSERT_EQ(issued.count(addr), 1u) << "lane " << j;
        EXPECT_EQ(issued[addr], start + j / 8) << "lane " << j;
        EXPECT_GT(lanes[j].ready, issued[addr]) << "lane " << j;
        EXPECT_EQ(lanes[j].ctx.pc, 2u);
        EXPECT_EQ(lanes[j].ctx.regs[2], ((3ull + j) << 32) | (103 + j));
        EXPECT_EQ(lanes[j].ctx.regs[5], 77u);
        EXPECT_FALSE(lanes[j].done);
    }

    load.pc = 2;
    load.next_pc = 3;
    load.inst = &p.at(2);
    ex.seed(lanes, from, load, stride, 3, start);
    for (unsigned j = 0; j < 20; j++) {
        EXPECT_EQ(lanes[j].ctx.pc, 3u);
        EXPECT_EQ(lanes[j].ctx.regs[3], 103u + j) << "lane " << j;
    }
}

TEST_F(LaneExecTest, TimeoutTerminatesRunawayLanes)
{
    // An infinite loop that never returns to the stride pc.
    ProgramBuilder bb("inf");
    bb.nop();                        // pc 0 (stride pc, never reached)
    auto spin = bb.here();
    bb.addi(1, 1, 1);
    bb.jmp(spin);
    Program p = bb.build();

    auto lanes = makeLanes(2, 1, [&](unsigned, CpuState &) {});
    LaneExecutor ex(cfg.runahead, p, image, hier);
    LaneRunStats st = ex.run(lanes, 0, 0, false, true, 0);
    EXPECT_GT(st.insts, 0u);
    for (auto &l : lanes) {
        EXPECT_TRUE(l.done);
        EXPECT_LE(l.insts, cfg.runahead.subthread_timeout + 1);
    }
}

TEST_F(LaneExecTest, HaltTerminatesLane)
{
    ProgramBuilder bb("halt");
    bb.nop();
    bb.halt();
    Program p = bb.build();
    auto lanes = makeLanes(3, 1, [&](unsigned, CpuState &) {});
    LaneExecutor ex(cfg.runahead, p, image, hier);
    ex.run(lanes, 0, 0, false, true, 0);
    for (auto &l : lanes)
        EXPECT_TRUE(l.done);
}

TEST_F(LaneExecTest, WildPcKillsGroupSafely)
{
    // Jump past the end of the program: lanes must terminate without
    // panicking (speculative wild path).
    Program p = [&] {
        ProgramBuilder b2("wild");
        b2.nop();
        auto end = b2.makeLabel();
        b2.jmp(end);
        b2.nop();
        b2.bind(end);
        b2.nop();   // pc 3: then falls off the end
        return b2.build();
    }();
    auto lanes = makeLanes(2, 1, [&](unsigned, CpuState &) {});
    LaneExecutor ex(cfg.runahead, p, image, hier);
    EXPECT_NO_THROW(ex.run(lanes, 0, 0, false, true, 0));
}

TEST_F(LaneExecTest, SpeculativeStoresDoNotTouchMemory)
{
    ProgramBuilder bb("st");
    auto stride = bb.here();
    bb.nop();
    bb.movi(2, 0x7777);
    bb.st(2, 3);
    bb.jmp(stride);
    Program p = bb.build();
    auto lanes = makeLanes(1, 1, [&](unsigned, CpuState &ctx) {
        ctx.regs[3] = 0x123000;
    });
    LaneExecutor ex(cfg.runahead, p, image, hier);
    ex.run(lanes, 0, 0, false, true, 0);
    EXPECT_EQ(image.read64(0x123000), 0u);
}

TEST_F(LaneExecTest, TooManyLanesPanics)
{
    ProgramBuilder bb("x");
    bb.nop();
    Program p = bb.build();
    std::vector<Lane> lanes(MAX_LANES + 1);
    LaneExecutor ex(cfg.runahead, p, image, hier);
    EXPECT_THROW(ex.run(lanes, 0, 0, false, true, 0), PanicError);
}

} // namespace
} // namespace vrsim
