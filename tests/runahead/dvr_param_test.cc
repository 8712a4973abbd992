/**
 * @file
 * Parameterized sweeps of the DVR engine: feature combinations
 * (Fig. 8's factors) and vector widths, each checked for internal
 * consistency and sane behaviour on a representative kernel.
 */

#include <gtest/gtest.h>

#include "driver/simulation.hh"

namespace vrsim
{
namespace
{

struct FeatureCase
{
    Technique technique;
    bool expects_discovery;
    bool expects_nested;
    const char *name;
};

/** Print a case as its name: gtest's default byte dump would put the
 *  address held in `name` into the test ID (see BadConfigCase in
 *  tests/sim/config_test.cc). */
void
PrintTo(const FeatureCase &c, std::ostream *os)
{
    *os << '"' << c.name << '"';
}

class DvrFeatureSweep : public ::testing::TestWithParam<FeatureCase>
{
};

TEST_P(DvrFeatureSweep, BehavesPerFeatureSet)
{
    const FeatureCase &fc = GetParam();
    SimResult r = simulate({.spec = "bfs/KR", .technique = fc.technique,
                            .cfg = SystemConfig::benchScale(),
                            .gscale = {1 << 12, 8, 42},
                            .hscale = {1 << 13, 7}, .max_insts = 40000});
    ASSERT_TRUE(r.ok()) << r.status_message;
    ASSERT_TRUE(r.dvr.has_value());
    EXPECT_GT(r.dvr->spawns, 0u);
    EXPECT_GT(r.dvr->prefetches, 0u);
    if (fc.expects_discovery) {
        EXPECT_GT(r.dvr->discoveries, 0u);
    } else {
        EXPECT_EQ(r.dvr->discoveries, 0u);
    }
    if (!fc.expects_nested) {
        EXPECT_EQ(r.dvr->nested_spawns, 0u);
    }
    // DVR variants never use delayed termination.
    EXPECT_EQ(r.core.runahead_commit_stall, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Fig8Factors, DvrFeatureSweep,
    ::testing::Values(
        FeatureCase{Technique::DvrOffload, false, false, "offload"},
        FeatureCase{Technique::DvrDiscovery, true, false, "discovery"},
        FeatureCase{Technique::Dvr, true, true, "full"}),
    [](const auto &info) { return std::string(info.param.name); });

class VectorWidthSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(VectorWidthSweep, LanesNeverExceedConfiguredWidth)
{
    const uint32_t lanes = GetParam();
    SystemConfig cfg = SystemConfig::benchScale();
    cfg.runahead.vector_regs = lanes / cfg.runahead.lanes_per_vector;
    SimResult r = simulate({.spec = "camel", .technique = Technique::Dvr,
                            .cfg = cfg, .gscale = {1 << 12, 8, 42},
                            .hscale = {1 << 14, 7}, .max_insts = 30000});
    ASSERT_TRUE(r.ok()) << r.status_message;
    ASSERT_TRUE(r.dvr.has_value());
    ASSERT_GT(r.dvr->spawns, 0u);
    EXPECT_LE(r.dvr->meanLanes(), double(lanes) + 0.01);
    // Hardware budget scales with the configured width.
    EXPECT_EQ(cfg.runahead.max_lanes(), lanes);
}

INSTANTIATE_TEST_SUITE_P(Widths, VectorWidthSweep,
                         ::testing::Values(32u, 64u, 128u, 256u));

class DiscoveryCapSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(DiscoveryCapSweep, TightCapsAbortCleanly)
{
    // With a tiny discovery-instruction cap, Discovery Mode must
    // abort (not crash, not spawn garbage) on kernels whose loop
    // body exceeds it.
    SystemConfig cfg = SystemConfig::benchScale();
    cfg.runahead.discovery_max_insts = GetParam();
    SimResult r = simulate({.spec = "camel", .technique = Technique::Dvr,
                            .cfg = cfg, .gscale = {1 << 12, 8, 42},
                            .hscale = {1 << 13, 7}, .max_insts = 30000});
    ASSERT_TRUE(r.ok()) << r.status_message;
    ASSERT_TRUE(r.dvr.has_value());
    if (GetParam() < 30) {
        // camel's loop body is ~33 µops: nothing can complete.
        EXPECT_EQ(r.dvr->spawns, 0u);
        EXPECT_GT(r.dvr->discovery_aborts, 0u);
    } else {
        EXPECT_GT(r.dvr->spawns, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Caps, DiscoveryCapSweep,
                         ::testing::Values(8u, 16u, 64u, 200u));

} // namespace
} // namespace vrsim
