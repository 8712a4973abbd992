/**
 * @file
 * Parameterized property tests of the core timing model: performance
 * must respond monotonically (within tolerance) to core resources,
 * across ROB sizes, widths and load-port counts.
 */

#include <gtest/gtest.h>

#include "driver/simulation.hh"

namespace vrsim
{
namespace
{

/** A camel run that must succeed: a failed row has zeroed statistics,
 *  which would satisfy the upper bounds below. */
SimResult
runCamel(SystemConfig cfg, uint64_t roi = 25000)
{
    SimResult r = simulate({.spec = "camel", .cfg = cfg,
                            .hscale = {.elements = 1 << 14},
                            .max_insts = roi});
    EXPECT_TRUE(r.ok()) << r.status_message;
    return r;
}

class RobSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(RobSweep, RunsAndStallsShrinkWithRob)
{
    SystemConfig cfg = SystemConfig::benchScale();
    cfg.core.rob_size = GetParam();
    SimResult r = runCamel(cfg);
    EXPECT_GT(r.ipc(), 0.0);
    // Window stalls as a fraction of cycles must be below the
    // 64-entry configuration's.
    SystemConfig tiny = SystemConfig::benchScale();
    tiny.core.rob_size = 64;
    SimResult t = runCamel(tiny);
    double frac_r = double(r.core.rob_stall_cycles + r.core.stall_lq) /
                    double(r.core.cycles);
    double frac_t = double(t.core.rob_stall_cycles + t.core.stall_lq) /
                    double(t.core.cycles);
    if (GetParam() > 64) {
        EXPECT_LE(frac_r, frac_t + 0.05);
    }
}

TEST_P(RobSweep, BiggerRobNeverMuchSlower)
{
    SystemConfig small = SystemConfig::benchScale();
    small.core.rob_size = GetParam();
    SystemConfig big = small;
    big.core.rob_size = GetParam() * 2;
    double ipc_small = runCamel(small).ipc();
    double ipc_big = runCamel(big).ipc();
    EXPECT_GT(ipc_big, 0.95 * ipc_small)
        << "ROB " << GetParam() << " -> " << GetParam() * 2;
}

INSTANTIATE_TEST_SUITE_P(Sizes, RobSweep,
                         ::testing::Values(64u, 128u, 224u, 350u));

class WidthSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(WidthSweep, IpcBoundedByWidth)
{
    SystemConfig cfg = SystemConfig::benchScale();
    cfg.core.width = GetParam();
    SimResult r = runCamel(cfg);
    EXPECT_LE(r.ipc(), double(GetParam()) + 0.01);
    EXPECT_GT(r.ipc(), 0.0);
}

TEST_P(WidthSweep, WiderNeverMuchSlower)
{
    SystemConfig narrow = SystemConfig::benchScale();
    narrow.core.width = GetParam();
    SystemConfig wide = narrow;
    wide.core.width = GetParam() * 2;
    EXPECT_GT(runCamel(wide).ipc(), 0.95 * runCamel(narrow).ipc());
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweep,
                         ::testing::Values(1u, 2u, 4u, 5u, 8u));

class MshrSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(MshrSweep, MlpNeverExceedsCapacity)
{
    SystemConfig cfg = SystemConfig::benchScale();
    cfg.l1d.mshrs = GetParam();
    SimResult r = runCamel(cfg);
    EXPECT_LE(r.mlp, double(GetParam()) + 0.5);
}

TEST_P(MshrSweep, MoreMshrsNeverMuchSlower)
{
    SystemConfig few = SystemConfig::benchScale();
    few.l1d.mshrs = GetParam();
    SystemConfig many = few;
    many.l1d.mshrs = GetParam() * 2;
    EXPECT_GT(runCamel(many).ipc(), 0.95 * runCamel(few).ipc());
}

INSTANTIATE_TEST_SUITE_P(Counts, MshrSweep,
                         ::testing::Values(4u, 8u, 24u, 48u));

class LlcSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(LlcSweep, BiggerLlcMeansFewerDramFills)
{
    SystemConfig small = SystemConfig::benchScale();
    small.l3.size_bytes = GetParam() * 1024;
    SystemConfig big = small;
    big.l3.size_bytes = GetParam() * 4 * 1024;
    SimResult rs = runCamel(small);
    SimResult rb = runCamel(big);
    EXPECT_LE(rb.mem.dramTotal(), rs.mem.dramTotal() + 50);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LlcSweep,
                         ::testing::Values(128u, 256u, 512u));

} // namespace
} // namespace vrsim
