/**
 * @file
 * Qualitative paper-claims tests: the key *shapes* of the paper's
 * evaluation, checked on small inputs so they run in CI time. These
 * are the repository's regression net for the reproduction itself;
 * `vrsim --figure` regenerates the full figures (driver/figures.hh).
 */

#include <gtest/gtest.h>

#include "driver/simulation.hh"

namespace vrsim
{
namespace
{

struct Harness
{
    SystemConfig cfg = SystemConfig::benchScale();
    GraphScale g{1 << 13, 16, 42};
    HpcDbScale h{1 << 16, 7};
    uint64_t roi = 60000;

    /** A run that must succeed: a failed row's zeroed statistics
     *  would satisfy some of the claims below. */
    SimResult
    run(const std::string &spec, Technique t) const
    {
        SimResult r = simulate({.spec = spec, .technique = t, .cfg = cfg,
                                .gscale = g, .hscale = h,
                                .max_insts = roi});
        EXPECT_TRUE(r.ok()) << spec << " " << techniqueName(t) << ": "
                            << r.status_message;
        return r;
    }

    double
    speedup(const std::string &spec, Technique t) const
    {
        SimResult base = run(spec, Technique::OoO);
        SimResult r = run(spec, t);
        return r.ipc() / base.ipc();
    }
};

TEST(PaperClaimsTest, DvrBeatsOooAcrossTheSuite)
{
    Harness s;
    for (const char *spec : {"bfs/KR", "sssp/KR", "camel", "hj2",
                             "kangaroo", "graph500"})
        EXPECT_GT(s.speedup(spec, Technique::Dvr), 1.3) << spec;
}

TEST(PaperClaimsTest, DvrBeatsVrSubstantially)
{
    // Headline: DVR ~2x VR on average. Check on representative
    // benchmarks (one GAP, one DB, one HPC).
    Harness s;
    double ratio_sum = 0;
    int n = 0;
    for (const char *spec : {"bfs/KR", "hj8", "camel", "kangaroo"}) {
        SimResult vr = s.run(spec, Technique::Vr);
        SimResult dvr = s.run(spec, Technique::Dvr);
        ratio_sum += dvr.ipc() / vr.ipc();
        ++n;
    }
    EXPECT_GT(ratio_sum / n, 1.4);
}

TEST(PaperClaimsTest, OracleIsTheUpperBound)
{
    Harness s;
    for (const char *spec : {"bfs/KR", "camel", "hj2", "kangaroo"}) {
        SimResult dvr = s.run(spec, Technique::Dvr);
        SimResult orc = s.run(spec, Technique::Oracle);
        EXPECT_GE(orc.ipc() * 1.05, dvr.ipc()) << spec;
    }
}

TEST(PaperClaimsTest, DvrGeneratesFarMoreMlp)
{
    // Fig. 9: DVR's mean outstanding misses far exceed the OoO's.
    Harness s;
    SimResult ooo = s.run("kangaroo", Technique::OoO);
    SimResult dvr = s.run("kangaroo", Technique::Dvr);
    EXPECT_GT(dvr.mlp, 1.5 * ooo.mlp);
}

TEST(PaperClaimsTest, DvrPrefetchesAreTimely)
{
    // Fig. 11: most runahead-prefetched lines are found on chip.
    Harness s;
    SimResult r = s.run("camel", Technique::Dvr);
    const MemStats &m = r.mem;
    double on_chip = double(m.pf_used_l1 + m.pf_used_l2 +
                            m.pf_used_l3);
    EXPECT_GT(on_chip / double(m.pf_lines_filled), 0.5);
}

TEST(PaperClaimsTest, DvrKeepsDramTrafficNearBaseline)
{
    // Fig. 10: Discovery Mode keeps DVR's total DRAM traffic close
    // to the baseline's (high accuracy).
    Harness s;
    SimResult base = s.run("bfs/KR", Technique::OoO);
    SimResult dvr = s.run("bfs/KR", Technique::Dvr);
    double ratio = double(dvr.mem.dramTotal()) /
                   double(base.mem.dramTotal());
    EXPECT_LT(ratio, 1.5);
}

TEST(PaperClaimsTest, VrGainShrinksWithRobSizeDvrHolds)
{
    // Figs. 2 and 12: normalized to the 350-entry-ROB OoO baseline,
    // VR's advantage over the same-ROB OoO shrinks as the ROB grows,
    // while DVR's absolute normalized performance keeps growing.
    Harness s;
    SimResult base350 = s.run("camel", Technique::OoO);
    auto ipc_n = [&](Technique t, uint32_t rob) {
        Harness sized = s;
        sized.cfg.core.rob_size = rob;
        return sized.run("camel", t).ipc() / base350.ipc();
    };
    double ooo_small = ipc_n(Technique::OoO, 128);
    double ooo_big = ipc_n(Technique::OoO, 512);
    double vr_small = ipc_n(Technique::Vr, 128);
    double vr_big = ipc_n(Technique::Vr, 512);
    double dvr_small = ipc_n(Technique::Dvr, 128);
    double dvr_big = ipc_n(Technique::Dvr, 512);
    // Fig. 2: the VR-over-OoO edge narrows with ROB size.
    EXPECT_LT(vr_big / ooo_big, vr_small / ooo_small);
    // Fig. 12: DVR's normalized IPC holds (and, over the full suite,
    // grows -- see vrsim --figure fig12_rob_sweep_dvr) with ROB size;
    // on this single benchmark at CI scale allow flat-within-noise.
    EXPECT_GT(dvr_big, 0.97 * dvr_small);
    EXPECT_GT(dvr_big, vr_big);
}

TEST(PaperClaimsTest, FullRobStallsShrinkWithRobSize)
{
    // Fig. 2 right axis: dispatch stall time from window exhaustion
    // falls as the ROB grows.
    Harness s;
    auto stall_frac = [&](uint32_t rob) {
        Harness sized = s;
        sized.cfg.core.rob_size = rob;
        SimResult r = sized.run("camel", Technique::OoO);
        return double(r.core.rob_stall_cycles + r.core.stall_lq) /
               double(r.core.cycles);
    };
    EXPECT_GT(stall_frac(128), stall_frac(512));
}

TEST(PaperClaimsTest, DelayedTerminationOnlyInVr)
{
    Harness s;
    SimResult vr = s.run("camel", Technique::Vr);
    SimResult dvr = s.run("camel", Technique::Dvr);
    EXPECT_GT(vr.core.runahead_commit_stall, 0u);
    EXPECT_EQ(dvr.core.runahead_commit_stall, 0u);
}

TEST(PaperClaimsTest, Fig8StepsAreCumulative)
{
    // VR -> Offload -> Discovery -> Nested: h-mean must not regress
    // across the ordered steps by more than noise.
    Harness s;
    const char *specs[] = {"bfs/KR", "sssp/KR", "camel", "hj2"};
    Technique steps[] = {Technique::Vr, Technique::DvrOffload,
                         Technique::Dvr};
    double prev = 0;
    for (Technique t : steps) {
        std::vector<double> xs;
        for (const char *spec : specs)
            xs.push_back(s.speedup(spec, t));
        double hm = harmonicMean(xs);
        EXPECT_GT(hm, prev * 0.95)
            << "step " << techniqueName(t) << " regressed";
        prev = hm;
    }
    EXPECT_GT(prev, 1.5);   // the full technique is clearly ahead
}

TEST(PaperClaimsTest, PreHelpsCamelButNotIndirectDepth)
{
    // The paper: PRE's wins concentrate on Camel/NAS-IS (first-level
    // indirection); it cannot reach hj8's deep pointer chains.
    Harness s;
    EXPECT_GT(s.speedup("camel", Technique::Pre), 1.2);
    EXPECT_LT(s.speedup("hj8", Technique::Pre), 1.2);
}

} // namespace
} // namespace vrsim
