/**
 * @file
 * Golden-output check for every serialized form of sweep results: the
 * text report, the --stats-json dump, the --checkpoint journal and a
 * diverge repro bundle. All eight techniques run under a --warmup ROI,
 * an --ff-insts ROI and a --sample N:M:W plan, so a statistic that
 * drops out of (or changes in) any writer shows up as a byte diff in
 * tests/driver/golden/; the runahead and lanes trace categories of one
 * sweep are pinned the same way. Regenerate deliberately with
 * VRSIM_REGEN_GOLDEN=1.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "driver/report.hh"
#include "driver/sweep_runner.hh"
#include "obs/trace.hh"

namespace vrsim
{
namespace
{

const std::vector<TechColumn> ALL_TECHNIQUES = {
    Technique::OoO,        Technique::Pre,          Technique::Imp,
    Technique::Vr,         Technique::DvrOffload,   Technique::DvrDiscovery,
    Technique::Dvr,        Technique::Oracle,
};

RunPlan
basePlan()
{
    GraphScale g;
    g.nodes = 2048;
    g.avg_degree = 8;
    RunPlan plan;
    plan.scale(g, HpcDbScale{});
    return plan;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

/** Compare @p got with golden file @p name, or rewrite it on regen. */
void
checkGolden(const std::string &name, const std::string &got)
{
    const std::string path = std::string(VRSIM_DRIVER_GOLDEN) + "/" + name;
    if (const char *regen = std::getenv("VRSIM_REGEN_GOLDEN");
        regen && *regen && std::string(regen) != "0") {
        std::ofstream(path, std::ios::trunc | std::ios::binary) << got;
        return;
    }
    std::ifstream probe(path);
    ASSERT_TRUE(probe) << "missing golden file " << path
                       << " (regenerate with VRSIM_REGEN_GOLDEN=1)";
    EXPECT_EQ(got, readFile(path)) << name << " changed";
}

/** Sweep @p plan with a journal and pin report, stats and journal. */
void
checkShape(const std::string &shape, const RunPlan &plan)
{
    SweepOptions opts;
    opts.jobs = 1;
    opts.check_digests = true;
    opts.checkpoint = ::testing::TempDir() + "vrsim_golden_" + shape;
    SweepRunner runner(opts);
    ResultTable table = runner.run(plan);
    ASSERT_EQ(table.failures(), 0u);

    std::ostringstream report;
    for (size_t i = 0; i < table.size(); i++)
        printReport(report, table.results()[i], table.points()[i].cfg);
    std::ostringstream stats;
    writeStatsJson(stats, table, &runner.stats());

    checkGolden(shape + ".report.txt", report.str());
    checkGolden(shape + ".stats.json", stats.str());
    checkGolden(shape + ".journal.jsonl", readFile(opts.checkpoint));
    std::remove(opts.checkpoint.c_str());
}

TEST(GoldenOutputTest, WarmupRoi)
{
    RunPlan plan = basePlan();
    plan.roi(15000).warmup(5000).add({"bfs/KR"}, ALL_TECHNIQUES);
    checkShape("warmup", plan);
}

TEST(GoldenOutputTest, FastForwardRoi)
{
    RunPlan plan = basePlan();
    plan.roi(15000).ffInsts(20000).add({"camel"}, ALL_TECHNIQUES);
    checkShape("ff", plan);
}

TEST(GoldenOutputTest, SampledRun)
{
    RunPlan plan = basePlan();
    plan.roi(40000)
        .sample(SamplingPlan::parse("1000:5000:1000"))
        .ffInsts(5000)
        .add({"bfs/KR"}, ALL_TECHNIQUES);
    checkShape("sample", plan);
}

/**
 * Every runahead episode (enter/exit with kind, lanes and prefetches)
 * and every vector-lane issue group of all eight columns on pr/KR.
 * At this scale DVR takes stride, NDM-fallback and nested spawns, so
 * a change to how any engine seeds, launches or labels its lanes shows
 * up as a byte diff even where the aggregate statistics still agree.
 */
TEST(GoldenOutputTest, RunaheadEpisodeTrace)
{
    RunPlan plan = basePlan();
    plan.roi(15000).warmup(5000).add({"pr/KR"}, ALL_TECHNIQUES);
    std::ostringstream trace;
    TraceSink sink(trace, uint32_t(TraceCat::Runahead) |
                              uint32_t(TraceCat::Lanes));
    SweepOptions opts;
    opts.jobs = 1;
    opts.trace = &sink;
    ResultTable table = SweepRunner(opts).run(plan);
    ASSERT_EQ(table.failures(), 0u);
    checkGolden("runahead.trace.jsonl", trace.str());
}

TEST(GoldenOutputTest, DivergeReproBundle)
{
    RunPlan plan = basePlan();
    plan.roi(8000).warmup(2000)
        .add({"bfs/KR"}, {Technique::OoO, Technique::Vr})
        .injectFail(Technique::Vr, InjectKind::Diverge);
    SweepOptions opts;
    opts.jobs = 1;
    opts.check_digests = true;
    opts.repro_dir = ::testing::TempDir() + "vrsim_golden_repro";
    ResultTable table = SweepRunner(opts).run(plan);
    ASSERT_EQ(table.failures(), 1u);
    const std::string bundle = opts.repro_dir + "/bfs_KR_VR.json";
    checkGolden("diverge.bundle.json", readFile(bundle));
    std::remove(bundle.c_str());
}

} // namespace
} // namespace vrsim
