/**
 * @file
 * Tests for the experiment-plan layer: RunPlan grid enumeration and
 * point IDs, ResultTable lookup, the SweepRunner's determinism
 * (identical tables at any job count) and fault isolation (a failing
 * point cannot poison its siblings), and the post-prefix starts a
 * sweep shares between its points.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "driver/repro.hh"
#include "driver/sweep_runner.hh"

namespace vrsim
{
namespace
{

/** A small, fast plan over real workloads. */
RunPlan
smallPlan()
{
    GraphScale g;
    g.nodes = 1 << 10;
    g.avg_degree = 8;
    HpcDbScale h;
    h.elements = 1 << 10;
    RunPlan plan(SystemConfig::benchScale());
    plan.scale(g, h).roi(4000).warmup(500);
    return plan;
}

ResultTable
sweep(const RunPlan &plan, unsigned jobs, WorkloadCache &cache)
{
    SweepOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    opts.cache = &cache;
    return SweepRunner(opts).run(plan);
}

const std::vector<TechColumn> ALL_TECHNIQUES = {
    Technique::OoO, Technique::Pre, Technique::Imp, Technique::Vr,
    Technique::DvrOffload, Technique::DvrDiscovery, Technique::Dvr,
    Technique::Oracle};

/** Every technique over camel after a 20K-instruction --ff-insts
 *  prefix, then a plain ROI or, with @p sampled, SMARTS periods;
 *  every point collects a digest. */
RunPlan
prefixPlan(bool sampled, uint64_t ff_insts = 20'000)
{
    HpcDbScale h;
    h.elements = 1 << 12;
    SystemConfig cfg = SystemConfig::benchScale();
    cfg.collect_digest = true;
    cfg.digest_interval = 2048;
    SamplingPlan sp;
    sp.ff_insts = ff_insts;
    if (sampled) {
        sp.period = 2000;
        sp.detail = 500;
        sp.warm = 300;
    }
    RunPlan plan(cfg);
    plan.scale({}, h).roi(8000).warmup(sampled ? 0 : 500).sample(sp);
    plan.add({"camel"}, ALL_TECHNIQUES);
    return plan;
}

/** Sweep @p plan and check each row against a private
 *  simulate(p, cache) run of its point: every statistic other than
 *  host time, the digest and the sampling summary (resultToJson
 *  carries no host time). */
void
expectRowsEqualPrivateRuns(const RunPlan &plan, unsigned jobs,
                           Isolation isolation)
{
    WorkloadCache cache;
    SweepOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    opts.cache = &cache;
    opts.isolation = isolation;
    SweepRunner runner(opts);
    ResultTable table = runner.run(plan);
    EXPECT_EQ(runner.startBuilds(), 1u);
    ASSERT_EQ(table.size(), 8u);
    for (size_t i = 0; i < table.size(); i++) {
        const RunPoint &p = table.points()[i];
        const SimResult &row = table.results()[i];
        ASSERT_TRUE(row.ok()) << p.id() << ": " << row.status_message;
        ASSERT_TRUE(row.digest && row.sample) << p.id();
        EXPECT_GE(row.sample->ff_insts, p.sampling.ff_insts) << p.id();
        EXPECT_EQ(resultToJson(row), resultToJson(simulate(p, cache)))
            << p.id();
    }
}

TEST(SweepStartsTest, PrefixRowsEqualPrivateRuns)
{
    expectRowsEqualPrivateRuns(prefixPlan(false), 1, Isolation::Thread);
    expectRowsEqualPrivateRuns(prefixPlan(false), 4, Isolation::Thread);
}

TEST(SweepStartsTest, SampledRowsEqualPrivateRuns)
{
    expectRowsEqualPrivateRuns(prefixPlan(true), 1, Isolation::Thread);
    expectRowsEqualPrivateRuns(prefixPlan(true), 4, Isolation::Thread);
}

TEST(SweepStartsTest, ProcessIsolationRowsEqualPrivateRuns)
{
    expectRowsEqualPrivateRuns(prefixPlan(false), 4, Isolation::Process);
    expectRowsEqualPrivateRuns(prefixPlan(true), 4, Isolation::Process);
}

TEST(SweepStartsTest, EightColumnsOverOneSpecBuildOneStart)
{
    WorkloadCache cache;
    SweepOptions opts;
    opts.jobs = 4;
    opts.progress = false;
    opts.cache = &cache;
    SweepRunner runner(opts);
    runner.run(prefixPlan(false));
    EXPECT_EQ(runner.startBuilds(), 1u);
    EXPECT_EQ(cache.builds(), 1u);
    // A second sweep builds its own start from the cached artifact.
    runner.run(prefixPlan(false));
    EXPECT_EQ(runner.startBuilds(), 1u);
    EXPECT_EQ(cache.builds(), 1u);
}

TEST(SweepStartsTest, DivergeInjectionGetsItsOwnStart)
{
    // Diverge turns digest collection on inside the run, so its
    // prefix must hash and cannot share the others' start.
    RunPlan plan(SystemConfig::benchScale());
    HpcDbScale h;
    h.elements = 1 << 12;
    plan.scale({}, h).roi(4000).ffInsts(20'000);
    plan.add({"camel"}, {Technique::OoO, Technique::Vr, Technique::Dvr});
    plan.injectFail(Technique::Vr, InjectKind::Diverge);
    WorkloadCache cache;
    SweepOptions opts;
    opts.progress = false;
    opts.cache = &cache;
    SweepRunner runner(opts);
    ResultTable table = runner.run(plan);
    EXPECT_EQ(runner.startBuilds(), 2u);
    for (size_t i = 0; i < table.size(); i++)
        EXPECT_EQ(resultToJson(table.results()[i]),
                  resultToJson(simulate(table.points()[i], cache)))
            << table.points()[i].id();
}

TEST(SweepStartsTest, PrefixHostTimeIsChargedToTheFirstPoint)
{
    WorkloadCache cache;
    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.cache = &cache;
    ResultTable table = SweepRunner(opts).run(prefixPlan(false));
    ASSERT_EQ(table.size(), 8u);
    EXPECT_GT(table.results()[0].host_ff_seconds, 0.0);
    EXPECT_GE(table.results()[0].host_seconds,
              table.results()[0].host_ff_seconds);
    for (size_t i = 1; i < table.size(); i++) {
        EXPECT_EQ(table.results()[i].host_ff_seconds, 0.0) << i;
        // Every point still counts the prefix it started from.
        EXPECT_EQ(table.results()[i].sample->ff_insts, 20'000u) << i;
    }
}

TEST(SweepStartsTest, HaltingPrefixFailsEveryPoint)
{
    // camel at 4096 elements halts after 118785 instructions.
    const RunPlan plan = prefixPlan(false, 1'000'000);
    const std::string msg =
        "workload halted after 118785 instructions, inside the "
        "--ff-insts 1000000 prefix";
    for (unsigned jobs : {1u, 4u}) {
        WorkloadCache cache;
        SweepOptions opts;
        opts.jobs = jobs;
        opts.progress = false;
        opts.cache = &cache;
        SweepRunner runner(opts);
        ResultTable table = runner.run(plan);
        EXPECT_EQ(runner.startBuilds(), 1u);
        ASSERT_EQ(table.failures(), 8u);
        for (size_t i = 0; i < table.size(); i++) {
            const SimResult &r = table.results()[i];
            EXPECT_EQ(r.status, SimStatus::Fatal);
            EXPECT_NE(r.status_message.find(msg), std::string::npos)
                << r.status_message;
            // A sweep tags each point's messages with its ID.
            setLogContext(table.points()[i].id());
            SimResult alone = simulate(table.points()[i], cache);
            setLogContext("");
            EXPECT_EQ(resultToJson(r), resultToJson(alone));
        }
    }
}

TEST(SweepStartsTest, PointChecksComeBeforeTheSharedPrefixFailure)
{
    // A point's own bad sampling plan outranks its halting prefix,
    // whether the prefix is private or shared.
    RunPlan plan = prefixPlan(false, 1'000'000);
    std::vector<RunPoint> points = plan.points();
    RunPoint bad = points.at(1);
    bad.sampling.detail = 5;  // detail windows without a period
    WorkloadCache cache;
    SimResult alone = simulate(bad, cache);
    EXPECT_EQ(alone.status, SimStatus::Fatal);
    EXPECT_NE(alone.status_message.find("no period"), std::string::npos)
        << alone.status_message;
    SweepStarts starts(points, std::vector<char>(points.size(), 0), cache,
                       1);
    std::optional<RunStart> from = starts.take(1);
    ASSERT_TRUE(from);
    EXPECT_LT(from->ff_insts, 1'000'000u);
    SimResult shared = simulate(bad, cache, std::move(*from));
    EXPECT_EQ(resultToJson(shared), resultToJson(alone));
}

TEST(RunPlanTest, GridEnumerationOrderAndIds)
{
    RunPlan plan = smallPlan();
    plan.add({"camel", "kangaroo"}, {Technique::OoO, Technique::Dvr},
             {{"a", [](SystemConfig &) {}},
              {"b", [](SystemConfig &) {}}});
    ASSERT_EQ(plan.size(), 8u);
    std::vector<RunPoint> pts = plan.points();
    ASSERT_EQ(pts.size(), 8u);
    // spec-major, then column, then variant.
    EXPECT_EQ(pts[0].id(), "camel:OoO:a");
    EXPECT_EQ(pts[1].id(), "camel:OoO:b");
    EXPECT_EQ(pts[2].id(), "camel:DVR:a");
    EXPECT_EQ(pts[3].id(), "camel:DVR:b");
    EXPECT_EQ(pts[4].id(), "kangaroo:OoO:a");
    EXPECT_EQ(pts[7].id(), "kangaroo:DVR:b");
}

TEST(RunPlanTest, BaseVariantHasNoIdSuffix)
{
    RunPlan plan = smallPlan();
    plan.add({"camel"}, {Technique::Vr});
    EXPECT_EQ(plan.points().at(0).id(), "camel:VR");
}

TEST(RunPlanTest, VariantTweakAppliesToPointConfig)
{
    RunPlan plan = smallPlan();
    plan.add({"camel"}, {Technique::OoO},
             {{"rob=64", [](SystemConfig &c) { c.core.rob_size = 64; }},
              ConfigVariant::base()});
    std::vector<RunPoint> pts = plan.points();
    EXPECT_EQ(pts[0].cfg.core.rob_size, 64u);
    EXPECT_EQ(pts[1].cfg.core.rob_size,
              SystemConfig::benchScale().core.rob_size);
}

TEST(RunPlanTest, MultipleGridsUnionIntoOnePlan)
{
    RunPlan plan = smallPlan();
    plan.add({"camel"}, {Technique::OoO, Technique::Dvr});
    plan.add({"camel-swpf"}, {Technique::OoO});
    EXPECT_EQ(plan.size(), 3u);
    EXPECT_EQ(plan.points().back().id(), "camel-swpf:OoO");
}

TEST(RunPlanTest, FeatureOverrideColumnsCarryFeatures)
{
    DvrFeatures inval = DvrFeatures::full();
    inval.reconverge = false;
    RunPlan plan = smallPlan();
    plan.add({"camel"},
             {TechColumn(Technique::Dvr, "invalidate", inval),
              TechColumn(Technique::Dvr, "reconverge",
                         DvrFeatures::full())});
    std::vector<RunPoint> pts = plan.points();
    ASSERT_TRUE(pts[0].features.has_value());
    EXPECT_FALSE(pts[0].features->reconverge);
    ASSERT_TRUE(pts[1].features.has_value());
    EXPECT_TRUE(pts[1].features->reconverge);
    EXPECT_EQ(pts[0].id(), "camel:invalidate");
}

TEST(ResultTableTest, LookupByCellAndMissPanics)
{
    RunPlan plan = smallPlan();
    plan.add({"camel"}, {Technique::OoO});
    WorkloadCache cache;
    ResultTable table = sweep(plan, 1, cache);
    EXPECT_NO_THROW(table.at("camel", Technique::OoO));
    EXPECT_EQ(table.find("camel", "nope"), nullptr);
    EXPECT_THROW(table.at("camel", "nope"), PanicError);
    EXPECT_THROW(table.at("camel", Technique::OoO, "rob=64"),
                 PanicError);
}

TEST(ResultTableTest, DuplicatePointPanics)
{
    RunPlan plan = smallPlan();
    plan.add({"camel"}, {Technique::OoO});
    plan.add({"camel"}, {Technique::OoO});
    std::vector<RunPoint> pts = plan.points();
    std::vector<SimResult> results(pts.size());
    EXPECT_THROW(ResultTable(std::move(pts), std::move(results)),
                 PanicError);
}

TEST(SweepRunnerTest, TableIsByteIdenticalAcrossJobCounts)
{
    RunPlan plan = smallPlan();
    plan.add({"camel", "kangaroo", "hj2"},
             {Technique::OoO, Technique::Vr, Technique::Dvr});

    WorkloadCache c1, c8;
    ResultTable serial = sweep(plan, 1, c1);
    ResultTable parallel = sweep(plan, 8, c8);

    std::ostringstream os1, os8;
    serial.writeCsv(os1);
    parallel.writeCsv(os8);
    EXPECT_FALSE(os1.str().empty());
    EXPECT_EQ(os1.str(), os8.str());
}

TEST(SweepRunnerTest, SpecsBuiltOncePerSweep)
{
    RunPlan plan = smallPlan();
    plan.add({"camel", "kangaroo"},
             {Technique::OoO, Technique::Vr, Technique::Dvr});
    WorkloadCache cache;
    sweep(plan, 4, cache);
    // 6 points but only 2 distinct spec+scale artifacts.
    EXPECT_EQ(cache.builds(), 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(SweepRunnerTest, InjectedFailureDoesNotPoisonSiblings)
{
    RunPlan plan = smallPlan();
    plan.add({"camel"},
             {Technique::OoO, Technique::Vr, Technique::Dvr});
    plan.injectFail(Technique::Vr);
    WorkloadCache cache;
    ResultTable table = sweep(plan, 2, cache);

    EXPECT_EQ(table.failures(), 1u);
    const SimResult &failed = table.at("camel", Technique::Vr);
    EXPECT_EQ(failed.status, SimStatus::Panic);
    EXPECT_NE(failed.status_message.find("fault injection"),
              std::string::npos);
    EXPECT_TRUE(table.at("camel", Technique::OoO).ok());
    EXPECT_TRUE(table.at("camel", Technique::Dvr).ok());
    EXPECT_GT(table.at("camel", Technique::Dvr).ipc(), 0.0);
}

TEST(SweepRunnerTest, UnknownSpecIsRecordedAsFatalResult)
{
    RunPlan plan = smallPlan();
    plan.add({"camel", "no-such-benchmark"}, {Technique::OoO});
    WorkloadCache cache;
    ResultTable table = sweep(plan, 1, cache);
    EXPECT_TRUE(table.at("camel", Technique::OoO).ok());
    EXPECT_EQ(table.at("no-such-benchmark", Technique::OoO).status,
              SimStatus::Fatal);
}

TEST(SweepRunnerTest, CsvRowsCarryPointIds)
{
    RunPlan plan = smallPlan();
    plan.add({"camel"}, {Technique::OoO},
             {{"rob=64", [](SystemConfig &c) { c.core.rob_size = 64; }},
              ConfigVariant::base()});
    WorkloadCache cache;
    ResultTable table = sweep(plan, 1, cache);
    std::ostringstream os;
    table.writeCsv(os);
    EXPECT_EQ(os.str().rfind("point,workload,technique", 0), 0u);
    EXPECT_NE(os.str().find("camel:OoO:rob=64,"), std::string::npos);
    EXPECT_NE(os.str().find("\ncamel:OoO,"), std::string::npos);
}

TEST(SweepRunnerTest, InjectKindParseRejectsStopSignals)
{
    uint32_t arg = 0;
    EXPECT_EQ(injectKindParse("killself:9", arg), InjectKind::KillSelf);
    EXPECT_EQ(arg, 9u);
    // Stop signals suspend the cell instead of killing it — useless
    // as a death test and a hang risk, so the parser refuses them.
    EXPECT_THROW(injectKindParse("killself:19", arg), FatalError);
    EXPECT_THROW(injectKindParse("killself:20", arg), FatalError);
    EXPECT_THROW(injectKindParse("killself:0", arg), FatalError);
    EXPECT_THROW(injectKindParse("killself:65", arg), FatalError);
}

TEST(SweepRunnerTest, JobsFromEnvParsesStrictly)
{
    unsetenv("VRSIM_JOBS");
    EXPECT_EQ(SweepRunner::jobsFromEnv(3), 3u);
    setenv("VRSIM_JOBS", "5", 1);
    EXPECT_EQ(SweepRunner::jobsFromEnv(1), 5u);
    setenv("VRSIM_JOBS", "0", 1);
    EXPECT_GE(SweepRunner::jobsFromEnv(1), 1u);
    setenv("VRSIM_JOBS", "garbage", 1);
    EXPECT_THROW(SweepRunner::jobsFromEnv(1), FatalError);
    setenv("VRSIM_JOBS", "9999", 1);
    EXPECT_THROW(SweepRunner::jobsFromEnv(1), FatalError);
    unsetenv("VRSIM_JOBS");
}

} // namespace
} // namespace vrsim
