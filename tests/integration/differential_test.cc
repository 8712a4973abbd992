/**
 * @file
 * End-to-end tests of the differential correctness oracle: every
 * runahead technique must commit a bit-identical architectural stream
 * to the plain OoO baseline (the paper's central "microarchitectural
 * only" contract), injected divergence must be flagged, bundled, and
 * reproducible via the bundle, and all injection kinds must map to
 * their statuses.
 */

#include <gtest/gtest.h>

#include "driver/repro.hh"
#include "driver/sweep_runner.hh"

namespace vrsim
{
namespace
{

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
sweep(const RunPlan &plan, SweepOptions opts, WorkloadCache &cache)
{
    opts.progress = false;
    opts.cache = &cache;
    return SweepRunner(opts).run(plan);
}

TEST(DifferentialTest, EveryTechniqueMatchesBaselineDigest)
{
    RunPlan plan = smallPlan();
    plan.add({"camel", "kangaroo", "hj2"},
             {Technique::OoO, Technique::Pre, Technique::Imp,
              Technique::Vr, Technique::DvrOffload,
              Technique::DvrDiscovery, Technique::Dvr,
              Technique::Oracle});

    SweepOptions opts;
    opts.jobs = 4;
    opts.check_digests = true;
    WorkloadCache cache;
    ResultTable table = sweep(plan, opts, cache);

    EXPECT_EQ(table.failures(), 0u);
    for (const SimResult &r : table.results()) {
        EXPECT_TRUE(r.ok())
            << r.workload << ":" << techniqueName(r.technique) << " "
            << r.status_message;
        ASSERT_TRUE(r.digest.has_value());
        EXPECT_GT(r.digest->instructions, 0u);
    }

    // Spot-check the contract directly: digests are equal per spec,
    // not merely "not flagged".
    for (const char *spec : {"camel", "kangaroo", "hj2"}) {
        const SimResult &base = table.at(spec, Technique::OoO);
        const SimResult &dvr = table.at(spec, Technique::Dvr);
        EXPECT_TRUE(*base.digest == *dvr.digest) << spec;
    }
}

TEST(DifferentialTest, DigestCollectionOffByDefault)
{
    RunPlan plan = smallPlan();
    plan.add({"camel"}, {Technique::OoO});
    WorkloadCache cache;
    ResultTable table = sweep(plan, SweepOptions{}, cache);
    EXPECT_FALSE(table.at("camel", Technique::OoO).digest.has_value());
}

TEST(DifferentialTest, MissingBaselineColumnIsFatal)
{
    RunPlan plan = smallPlan();
    plan.add({"camel"}, {Technique::Vr, Technique::Dvr});
    SweepOptions opts;
    opts.check_digests = true;
    WorkloadCache cache;
    EXPECT_THROW(sweep(plan, opts, cache), FatalError);
}

TEST(DifferentialTest, InjectedDivergenceIsFlaggedBundledAndReplayable)
{
    RunPlan plan = smallPlan();
    plan.add({"camel"}, {Technique::OoO, Technique::Vr});
    plan.injectFail(Technique::Vr, InjectKind::Diverge);

    SweepOptions opts;
    opts.check_digests = true;
    opts.repro_dir = ::testing::TempDir() + "vrsim_diverge_repro";
    WorkloadCache cache;
    ResultTable table = sweep(plan, opts, cache);

    EXPECT_TRUE(table.at("camel", Technique::OoO).ok());
    const SimResult &bad = table.at("camel", Technique::Vr);
    EXPECT_EQ(bad.status, SimStatus::Diverged);
    EXPECT_NE(bad.status_message.find("diverged"), std::string::npos);
    EXPECT_NE(bad.status_message.find("interval"), std::string::npos);

    // The failed cell produced a self-contained bundle...
    ReproBundle b =
        readReproBundle(opts.repro_dir + "/camel_VR.json");
    EXPECT_EQ(b.status, SimStatus::Diverged);
    EXPECT_EQ(b.status_message, bad.status_message);
    ASSERT_TRUE(b.baseline_digest.has_value());
    ASSERT_TRUE(b.divergence.has_value());

    // ...and replaying the bundled point reproduces the divergence
    // exactly (deterministic injection, deterministic simulation).
    SimResult replayed = simulate(b.point, cache);
    ASSERT_TRUE(replayed.ok()) << replayed.status_message;
    ASSERT_TRUE(replayed.digest.has_value());
    auto div = compareDigests(*b.baseline_digest, *replayed.digest);
    ASSERT_TRUE(div.has_value());
    EXPECT_EQ(div->interval_index, b.divergence->interval_index);
    EXPECT_EQ(div->expected, b.divergence->expected);
    EXPECT_EQ(div->actual, b.divergence->actual);
}

TEST(DifferentialTest, InjectKindsMapToStatuses)
{
    WorkloadCache cache;
    struct { InjectKind kind; SimStatus status; } cases[] = {
        {InjectKind::Fatal, SimStatus::Fatal},
        {InjectKind::Panic, SimStatus::Panic},
        {InjectKind::Hang, SimStatus::Hang},
    };
    for (const auto &c : cases) {
        RunPlan plan = smallPlan();
        plan.add({"camel"}, {Technique::Vr});
        plan.injectFail(Technique::Vr, c.kind);
        RunPoint p = plan.points().at(0);
        SimResult r = simulate(p, cache);
        EXPECT_EQ(r.status, c.status)
            << injectKindName(c.kind);
        EXPECT_NE(r.status_message.find("fault injection"),
                  std::string::npos);
    }
}

TEST(DifferentialTest, InjectKindNamesRoundTrip)
{
    for (InjectKind k : {InjectKind::Fatal, InjectKind::Panic,
                         InjectKind::Hang, InjectKind::Diverge})
        EXPECT_EQ(injectKindFromName(injectKindName(k)), k);
    EXPECT_THROW(injectKindFromName("none"), FatalError);
    EXPECT_THROW(injectKindFromName("explode"), FatalError);
}

TEST(DifferentialTest, FailedBaselineLeavesCellUncheckedNotDiverged)
{
    RunPlan plan = smallPlan();
    plan.add({"camel"}, {Technique::OoO, Technique::Vr});
    plan.injectFail(Technique::OoO, InjectKind::Panic);
    SweepOptions opts;
    opts.check_digests = true;
    WorkloadCache cache;
    ResultTable table = sweep(plan, opts, cache);
    // The baseline itself failed; the VR cell cannot be checked but
    // must not be misreported as diverged.
    EXPECT_EQ(table.at("camel", Technique::OoO).status,
              SimStatus::Panic);
    EXPECT_TRUE(table.at("camel", Technique::Vr).ok());
}

} // namespace
} // namespace vrsim
