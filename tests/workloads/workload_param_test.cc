/**
 * @file
 * Parameterized sweep over every benchmark-input spec of the paper's
 * suite: each must build, execute on the timing core without errors,
 * and expose the memory behaviour its family is defined by.
 */

#include <gtest/gtest.h>

#include "driver/simulation.hh"

namespace vrsim
{
namespace
{

class EverySpec : public ::testing::TestWithParam<std::string>
{
  protected:
    GraphScale
    g() const
    {
        GraphScale s;
        s.nodes = 1 << 11;
        s.avg_degree = 8;
        return s;
    }

    HpcDbScale
    h() const
    {
        HpcDbScale s;
        s.elements = 1 << 12;
        return s;
    }
};

TEST_P(EverySpec, RunsOnBaselineWithSaneStats)
{
    SimResult r = simulate({.spec = GetParam(),
                            .cfg = SystemConfig::benchScale(),
                            .gscale = g(), .hscale = h(),
                            .max_insts = 12000});
    ASSERT_TRUE(r.ok()) << r.status_message;
    EXPECT_GT(r.core.instructions, 2000u);
    EXPECT_GT(r.ipc(), 0.0);
    EXPECT_LE(r.ipc(), 5.0);
    EXPECT_GT(r.core.loads, 100u);
    EXPECT_GT(r.mem.demand_accesses, 100u);
    // Conservation: level counts partition demand accesses.
    EXPECT_EQ(r.mem.demand_l1_hits + r.mem.demand_l2_hits +
                  r.mem.demand_l3_hits + r.mem.demand_mem,
              r.mem.demand_accesses);
}

TEST_P(EverySpec, DvrNeverChangesArchitecturalState)
{
    // The runahead subthread is speculative and transient: after the
    // same dynamic-instruction budget, the memory image must be
    // bit-identical with and without DVR.
    Workload a = makeWorkload(GetParam(), g(), h());
    Workload b = makeWorkload(GetParam(), g(), h());
    RunPoint p{.cfg = SystemConfig::benchScale(), .max_insts = 15000};
    ASSERT_TRUE(simulate(p, a).ok());
    p.technique = Technique::Dvr;
    ASSERT_TRUE(simulate(p, b).ok());

    // Sample memory around every base register the workload uses.
    for (unsigned r = 0; r < NUM_ARCH_REGS; r++) {
        uint64_t base = a.init.regs[r];
        if (base < 0x10000)
            continue;   // not an address
        for (uint64_t off = 0; off < 4096; off += 56) {
            ASSERT_EQ(a.image.read64(base + off),
                      b.image.read64(base + off))
                << "r" << r << " + " << off;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    PaperSuite, EverySpec,
    ::testing::ValuesIn(allBenchmarkSpecs()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (char &c : n)
            if (c == '/' || c == '-')
                c = '_';
        return n;
    });

/** Technique sweep on one representative workload. */
class EveryTechnique : public ::testing::TestWithParam<Technique>
{
};

TEST_P(EveryTechnique, CamelStatsAreConsistent)
{
    SimResult r = simulate({.spec = "camel", .technique = GetParam(),
                            .cfg = SystemConfig::benchScale(),
                            .hscale = {.elements = 1 << 12},
                            .max_insts = 15000});
    ASSERT_TRUE(r.ok()) << r.status_message;
    EXPECT_GT(r.core.instructions, 10000u);
    EXPECT_GT(r.core.cycles, 0u);
    // Attribution never exceeds totals.
    EXPECT_LE(r.mem.dramRunahead(), r.mem.dramTotal());
    EXPECT_LE(r.mem.pf_used_l1 + r.mem.pf_used_l2 + r.mem.pf_used_l3,
              r.mem.pf_lines_filled +
                  r.mem.pf_used_inflight + 64);
}

INSTANTIATE_TEST_SUITE_P(
    AllTechniques, EveryTechnique,
    ::testing::Values(Technique::OoO, Technique::Pre, Technique::Imp,
                      Technique::Vr, Technique::DvrOffload,
                      Technique::DvrDiscovery, Technique::Dvr,
                      Technique::Oracle),
    [](const ::testing::TestParamInfo<Technique> &info) {
        std::string n = techniqueName(info.param);
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

} // namespace
} // namespace vrsim
