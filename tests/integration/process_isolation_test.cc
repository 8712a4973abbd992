/**
 * @file
 * End-to-end tests of process-isolated sweeps: all-green sweeps are
 * byte-identical to thread execution at any job count, and the chaos
 * invariant from the issue — under `--chaos SEED:RATE --retries 2`
 * over a 24-cell plan, the parent survives every fault class,
 * non-faulted and retried-then-succeeded cells are byte-identical to
 * a clean thread run, and permanently failed cells carry
 * Crashed/TimedOut rows plus replayable repro bundles.
 *
 * The chaos seed (kSeed) was chosen so the deterministic policy, at
 * rate kRate with kRetries retries, yields at least one permanently
 * failed cell, several retried-then-succeeded cells, and executions
 * of all five process-grade fault classes over this exact plan; the
 * test recomputes the policy and *predicts* each cell's fate rather
 * than just classifying whatever happened.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <sstream>

#include "driver/repro.hh"
#include "rt/cell_supervisor.hh"

namespace vrsim
{
namespace
{

constexpr uint64_t kSeed = 35;
constexpr double kRate = 0.3;
constexpr unsigned kRetries = 2;
// Generous next to a ~50 ms healthy cell: the deadline only exists to
// reap Spin faults, and a tight value misclassifies healthy cells as
// TimedOut when the test suite oversubscribes the host (seed 35 draws
// two spin attempts, so each extra second costs two wall-seconds).
// Matches the ci.sh chaos stage's --cell-timeout 5.
constexpr uint64_t kCellTimeoutMs = 5'000;

/** 24 cells: 2 specs x 4 techniques x 3 config variants. */
RunPlan
chaosPlan()
{
    GraphScale g;
    g.nodes = 1 << 10;
    g.avg_degree = 8;
    HpcDbScale h;
    h.elements = 1 << 10;
    RunPlan plan(SystemConfig::benchScale());
    plan.scale(g, h).roi(3000).warmup(300);
    plan.add({"camel", "kangaroo"},
             {Technique::OoO, Technique::Vr, Technique::Dvr,
              Technique::Pre},
             {ConfigVariant::base(),
              {"rob=128", [](SystemConfig &c) { c.core.rob_size = 128; }},
              {"rob=64", [](SystemConfig &c) { c.core.rob_size = 64; }}});
    return plan;
}

std::string
csvOf(const ResultTable &table)
{
    std::ostringstream os;
    table.writeCsv(os);
    return os.str();
}

/** What the chaos policy must do to one cell, recomputed from the
 *  same pure function the supervisor consults. */
struct PredictedFate
{
    bool permanent = false;   //!< every reachable attempt faults
    bool retried = false;     //!< attempt 0 faults (so attempts > 1)
    /** Kind of the final reachable attempt's fault (permanent only). */
    InjectKind final_kind = InjectKind::None;
};

PredictedFate
predict(const ChaosPolicy &policy, const std::string &id)
{
    PredictedFate fate;
    fate.permanent = true;
    for (unsigned a = 0; a <= kRetries && fate.permanent; a++) {
        auto f = policy.decide(id, a);
        if (!f) {
            fate.permanent = false;
        } else {
            if (a == 0)
                fate.retried = true;
            fate.final_kind = f->kind;
        }
    }
    return fate;
}

TEST(ProcessIsolationTest, AllGreenSweepIsByteIdenticalAtAnyJobCount)
{
    RunPlan plan = chaosPlan();

    SweepOptions thread_opts;
    thread_opts.progress = false;
    WorkloadCache cache;
    thread_opts.cache = &cache;
    ResultTable thread_table = SweepRunner(thread_opts).run(plan);
    const std::string want = csvOf(thread_table);

    for (unsigned jobs : {1u, 2u}) {
        SweepOptions opts;
        opts.progress = false;
        opts.isolation = Isolation::Process;
        opts.jobs = jobs;
        WorkloadCache pcache;
        opts.cache = &pcache;
        SweepRunner runner(opts);
        EXPECT_EQ(csvOf(runner.run(plan)), want)
            << "process isolation with jobs=" << jobs;
        // Sweep telemetry exists (all zeros on a green sweep).
        EXPECT_EQ(runner.stats().at("sweep.cells.retried").count(), 0u);
        EXPECT_EQ(runner.stats().at("sweep.cells.crashed").count(), 0u);
    }
    // Thread mode leaves the sweep registry empty so default stats
    // output is unchanged.
    SweepRunner trunner(thread_opts);
    trunner.run(plan);
    EXPECT_EQ(trunner.stats().size(), 0u);
}

TEST(ProcessIsolationTest, ChaosInvariant)
{
    RunPlan plan = chaosPlan();
    const std::vector<RunPoint> points = plan.points();
    ASSERT_EQ(points.size(), 24u);

    // Clean thread baseline for byte-identity of surviving cells.
    SweepOptions base_opts;
    base_opts.progress = false;
    WorkloadCache base_cache;
    base_opts.cache = &base_cache;
    ResultTable clean = SweepRunner(base_opts).run(plan);

    // Predict every cell's fate from the pure policy.
    ChaosPolicy policy(kSeed, kRate);
    std::map<std::string, PredictedFate> fates;
    unsigned want_permanent = 0, want_retried = 0;
    std::set<InjectKind> executed_kinds;
    for (const RunPoint &p : points) {
        PredictedFate f = predict(policy, p.id());
        fates[p.id()] = f;
        want_permanent += f.permanent;
        want_retried += f.retried;
        for (unsigned a = 0; a <= kRetries; a++) {
            auto fault = policy.decide(p.id(), a);
            if (!fault)
                break;  // later attempts unreachable
            executed_kinds.insert(fault->kind);
        }
    }
    // The seed was chosen to make the test meaningful: at least one
    // permanent failure, at least one retried-then-succeeded cell,
    // and every fault class executed.
    ASSERT_GE(want_permanent, 1u);
    ASSERT_GT(want_retried, want_permanent);
    ASSERT_EQ(executed_kinds.size(), 5u);

    const std::string repro_dir =
        ::testing::TempDir() + "vrsim_chaos_repro";
    std::filesystem::remove_all(repro_dir);

    SweepOptions opts;
    opts.progress = false;
    opts.isolation = Isolation::Process;
    opts.jobs = 2;
    opts.chaos = policy;
    opts.retries = kRetries;
    opts.backoff_ms = 1;
    opts.cell_timeout_ms = kCellTimeoutMs;
    opts.repro_dir = repro_dir;
    WorkloadCache cache;
    opts.cache = &cache;
    SweepRunner runner(opts);

    // The parent (this process) must survive every fault class and
    // deliver a full table.
    ResultTable table = runner.run(plan);
    ASSERT_EQ(table.size(), 24u);

    // Index repro bundles by point id.
    std::map<std::string, ReproBundle> bundles;
    for (const auto &ent :
         std::filesystem::directory_iterator(repro_dir)) {
        ReproBundle b = readReproBundle(ent.path().string());
        bundles.emplace(b.point.id(), std::move(b));
    }

    for (size_t i = 0; i < points.size(); i++) {
        const std::string id = points[i].id();
        const PredictedFate &fate = fates.at(id);
        const SimResult &got = table.results()[i];
        const SimResult &want = clean.results()[i];

        if (!fate.permanent) {
            // Non-faulted and retried-then-succeeded cells alike are
            // byte-identical to the clean thread run.
            EXPECT_EQ(resultToJson(got), resultToJson(want)) << id;
            EXPECT_EQ(bundles.count(id), 0u) << id;
            continue;
        }

        // Permanently failed: the predicted final fault class decides
        // the status.
        if (fate.final_kind == InjectKind::Spin) {
            EXPECT_EQ(got.status, SimStatus::TimedOut) << id;
        } else {
            EXPECT_EQ(got.status, SimStatus::Crashed) << id;
        }
        EXPECT_GT(got.rss_peak_kb, 0u) << id;

        // ...and left a replayable bundle recording the chaos-mutated
        // point (the fault the child actually executed).
        ASSERT_EQ(bundles.count(id), 1u) << id;
        const ReproBundle &b = bundles.at(id);
        EXPECT_EQ(b.status, got.status) << id;
        EXPECT_EQ(b.point.inject_kind, fate.final_kind) << id;

        CellOptions copts;
        copts.timeout_ms = kCellTimeoutMs;
        WorkloadCache rcache;
        CellOutcome replay =
            CellSupervisor(copts, rcache).runCell(b.point);
        EXPECT_EQ(replay.result.status, b.status)
            << id << ": replay did not reproduce the recorded status";
    }

    // Sweep telemetry matches the prediction exactly.
    const StatsRegistry &stats = runner.stats();
    EXPECT_EQ(stats.at("sweep.cells.retried").count(), want_retried);
    unsigned want_timed_out = 0;
    for (const auto &[id, f] : fates)
        want_timed_out +=
            f.permanent && f.final_kind == InjectKind::Spin;
    EXPECT_EQ(stats.at("sweep.cells.timed_out").count(),
              want_timed_out);
    EXPECT_EQ(stats.at("sweep.cells.crashed").count(),
              want_permanent - want_timed_out);
    EXPECT_GT(stats.at("sweep.backoff_ms").value(stats), 0.0);

    std::filesystem::remove_all(repro_dir);
}

TEST(ProcessIsolationTest, ThreadModeRejectsProcessGradeInjection)
{
    RunPlan plan = chaosPlan();
    plan.injectFail(Technique::Vr, InjectKind::Segv);
    SweepOptions opts;
    opts.progress = false;
    WorkloadCache cache;
    opts.cache = &cache;
    EXPECT_THROW(SweepRunner(opts).run(plan), FatalError);
}

TEST(ProcessIsolationTest, ChaosRequiresProcessIsolation)
{
    SweepOptions opts;
    opts.progress = false;
    opts.chaos = ChaosPolicy(1, 0.5);
    WorkloadCache cache;
    opts.cache = &cache;
    EXPECT_THROW(SweepRunner(opts).run(chaosPlan()), FatalError);
}

} // namespace
} // namespace vrsim
