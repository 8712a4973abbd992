/**
 * @file
 * Integration tests of the Simulation facade: every technique runs
 * every benchmark family end to end, produces sane statistics, and
 * is deterministic.
 */

#include <gtest/gtest.h>

#include "driver/simulation.hh"

namespace vrsim
{
namespace
{

GraphScale
tinyGraph()
{
    GraphScale s;
    s.nodes = 1 << 11;
    s.avg_degree = 8;
    return s;
}

HpcDbScale
tinyHpc()
{
    HpcDbScale s;
    s.elements = 1 << 12;
    return s;
}

/** A tiny run that must succeed: a failed row has zeroed statistics,
 *  which would satisfy several of the bounds below. */
SimResult
simulateTiny(const std::string &spec, Technique t, uint64_t insts)
{
    SimResult r = simulate({.spec = spec, .technique = t,
                            .cfg = SystemConfig::benchScale(),
                            .gscale = tinyGraph(), .hscale = tinyHpc(),
                            .max_insts = insts});
    EXPECT_TRUE(r.ok()) << spec << " " << techniqueName(t) << ": "
                        << r.status_message;
    return r;
}

TEST(SimulationTest, EveryTechniqueRunsEveryFamily)
{
    for (const char *spec : {"bfs/KR", "camel", "hj2", "nas-cg"}) {
        for (Technique t : {Technique::OoO, Technique::Pre,
                            Technique::Imp, Technique::Vr,
                            Technique::DvrOffload,
                            Technique::DvrDiscovery, Technique::Dvr,
                            Technique::Oracle}) {
            SimResult r = simulateTiny(spec, t, 15000);
            EXPECT_EQ(r.workload, spec);
            EXPECT_GT(r.core.instructions, 1000u)
                << spec << " " << techniqueName(t);
            EXPECT_GT(r.core.cycles, 0u);
            EXPECT_GT(r.ipc(), 0.0);
            EXPECT_LE(r.ipc(), 5.0);
        }
    }
}

TEST(SimulationTest, DeterministicAcrossRuns)
{
    SimResult a = simulateTiny("kangaroo", Technique::Dvr, 20000);
    SimResult b = simulateTiny("kangaroo", Technique::Dvr, 20000);
    EXPECT_EQ(a.core.cycles, b.core.cycles);
    EXPECT_EQ(a.mem.dramTotal(), b.mem.dramTotal());
    ASSERT_TRUE(a.dvr && b.dvr);
    EXPECT_EQ(a.dvr->prefetches, b.dvr->prefetches);
}

TEST(SimulationTest, EngineStatsAttachToRightTechnique)
{
    SimResult o = simulateTiny("camel", Technique::OoO, 10000);
    EXPECT_FALSE(o.pre || o.vr || o.dvr);
    SimResult p = simulateTiny("camel", Technique::Pre, 10000);
    EXPECT_TRUE(p.pre.has_value());
    SimResult v = simulateTiny("camel", Technique::Vr, 10000);
    EXPECT_TRUE(v.vr.has_value());
    SimResult d = simulateTiny("camel", Technique::Dvr, 10000);
    EXPECT_TRUE(d.dvr.has_value());
}

TEST(SimulationTest, DramSplitsSumToTotal)
{
    SimResult r = simulateTiny("camel", Technique::Dvr, 20000);
    EXPECT_EQ(r.dramMain() + r.dramRunahead(), r.mem.dramTotal());
}

TEST(SimulationTest, SpecListsCoverPaperSuite)
{
    auto specs = allBenchmarkSpecs();
    EXPECT_EQ(specs.size(), 5u * 5u + 8u);   // 5 kernels x 5 inputs + 8
    EXPECT_EQ(gapBenchmarkSpecs().size(), 25u);
}

TEST(SimulationTest, HarmonicMean)
{
    EXPECT_DOUBLE_EQ(harmonicMean({1.0, 1.0}), 1.0);
    EXPECT_DOUBLE_EQ(harmonicMean({2.0, 2.0}), 2.0);
    EXPECT_NEAR(harmonicMean({1.0, 2.0}), 4.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(harmonicMean({}), 0.0);
    EXPECT_DOUBLE_EQ(harmonicMean({1.0, 0.0}), 0.0);
}

TEST(SimulationTest, MlpWithinMshrCapacity)
{
    SystemConfig cfg = SystemConfig::benchScale();
    SimResult r = simulateTiny("camel", Technique::Dvr, 20000);
    EXPECT_GE(r.mlp, 0.0);
    EXPECT_LE(r.mlp, double(cfg.l1d.mshrs) + 0.5);
}

TEST(SimulationTest, TimelinessCountsConsistent)
{
    SimResult r = simulateTiny("kangaroo", Technique::Dvr, 30000);
    const MemStats &m = r.mem;
    EXPECT_LE(m.pf_used_l1 + m.pf_used_l2 + m.pf_used_l3 +
                  m.pf_used_inflight,
              m.pf_lines_filled + 16 /* L2/L3-origin copies */);
}

} // namespace
} // namespace vrsim
