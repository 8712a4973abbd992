/**
 * @file
 * Unit tests of the per-cell supervision policy: protocol success is
 * byte-identical to thread execution, process-grade deaths become
 * Crashed/TimedOut rows, retries fire only for process-grade deaths,
 * and the chaos policy is a deterministic pure function.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <set>

#include "driver/repro.hh"
#include "rt/cell_supervisor.hh"

namespace vrsim
{
namespace
{

// ---- ChaosPolicy --------------------------------------------------

TEST(ChaosPolicyTest, ParsesSeedAndRate)
{
    ChaosPolicy p = ChaosPolicy::parse("7:0.3");
    EXPECT_EQ(p.seed(), 7u);
    EXPECT_DOUBLE_EQ(p.rate(), 0.3);
    EXPECT_TRUE(p.enabled());
    EXPECT_FALSE(ChaosPolicy().enabled());
}

TEST(ChaosPolicyTest, RejectsMalformedSpecs)
{
    EXPECT_THROW(ChaosPolicy::parse("7"), FatalError);
    EXPECT_THROW(ChaosPolicy::parse(":0.3"), FatalError);
    EXPECT_THROW(ChaosPolicy::parse("7:"), FatalError);
    EXPECT_THROW(ChaosPolicy::parse("x:0.3"), FatalError);
    EXPECT_THROW(ChaosPolicy::parse("7:1.5"), FatalError);
    EXPECT_THROW(ChaosPolicy::parse("7:-0.1"), FatalError);
}

TEST(ChaosPolicyTest, DecisionsAreDeterministic)
{
    ChaosPolicy p(42, 0.5);
    for (unsigned attempt = 0; attempt < 4; attempt++) {
        auto a = p.decide("camel:OoO", attempt);
        auto b = p.decide("camel:OoO", attempt);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) {
            EXPECT_EQ(a->kind, b->kind);
            EXPECT_EQ(a->arg, b->arg);
        }
    }
}

TEST(ChaosPolicyTest, RateOneAlwaysFaultsAndCoversEveryKind)
{
    ChaosPolicy p(1, 1.0);
    std::set<InjectKind> kinds;
    for (int i = 0; i < 64; i++) {
        auto f = p.decide("pt" + std::to_string(i), 0);
        ASSERT_TRUE(f.has_value());
        EXPECT_TRUE(injectKindIsProcessGrade(f->kind));
        kinds.insert(f->kind);
    }
    // All five process-grade classes rotate in.
    EXPECT_EQ(kinds.size(), 5u);
}

TEST(ChaosPolicyTest, AttemptsDrawIndependently)
{
    // With rate 0.5, a cell whose attempt 0 faults should somewhere
    // have a clean attempt 1 (the retried-then-succeeded path).
    ChaosPolicy p(3, 0.5);
    bool saw_transient = false;
    for (int i = 0; i < 256 && !saw_transient; i++) {
        std::string id = "pt" + std::to_string(i);
        saw_transient = p.decide(id, 0).has_value() &&
                        !p.decide(id, 1).has_value();
    }
    EXPECT_TRUE(saw_transient);
}

// ---- CellSupervisor -----------------------------------------------

RunPoint
smallPoint()
{
    GraphScale g;
    g.nodes = 1 << 10;
    g.avg_degree = 8;
    HpcDbScale h;
    h.elements = 1 << 10;
    RunPlan plan(SystemConfig::benchScale());
    plan.scale(g, h).roi(2000).warmup(200);
    plan.add({"camel"}, {Technique::OoO});
    return plan.points().at(0);
}

TEST(CellSupervisorTest, SuccessRowIsByteIdenticalToThreadExecution)
{
    RunPoint p = smallPoint();
    WorkloadCache cache;
    SimResult thread_row = simulate(p, cache);
    ASSERT_TRUE(thread_row.ok()) << thread_row.status_message;

    CellOutcome cell = CellSupervisor(CellOptions{}, cache).runCell(p);
    EXPECT_EQ(cell.attempts, 1u);
    EXPECT_FALSE(cell.retried());
    EXPECT_EQ(resultToJson(cell.result), resultToJson(thread_row));
}

TEST(CellSupervisorTest, SignalDeathBecomesCrashedWithSignal)
{
    RunPoint p = smallPoint();
    p.inject_kind = InjectKind::KillSelf;
    p.inject_arg = SIGKILL;

    WorkloadCache cache;
    CellOutcome cell = CellSupervisor(CellOptions{}, cache).runCell(p);
    EXPECT_EQ(cell.result.status, SimStatus::Crashed);
    EXPECT_EQ(cell.result.term_signal, SIGKILL);
    EXPECT_EQ(cell.attempts, 1u);
    EXPECT_NE(cell.result.status_message.find("attempt 1/1"),
              std::string::npos);
}

TEST(CellSupervisorTest, BareExitBecomesCrashedWithoutSignal)
{
    RunPoint p = smallPoint();
    p.inject_kind = InjectKind::ExitCode;
    p.inject_arg = 7;

    WorkloadCache cache;
    CellOutcome cell = CellSupervisor(CellOptions{}, cache).runCell(p);
    EXPECT_EQ(cell.result.status, SimStatus::Crashed);
    EXPECT_EQ(cell.result.term_signal, 0);
    EXPECT_NE(cell.result.status_message.find("exit code 7"),
              std::string::npos);
}

TEST(CellSupervisorTest, RetryExhaustionCountsEveryAttempt)
{
    RunPoint p = smallPoint();
    p.inject_kind = InjectKind::KillSelf;
    p.inject_arg = SIGKILL;

    CellOptions opts;
    opts.retries = 1;
    opts.backoff_ms = 1;
    WorkloadCache cache;
    CellOutcome cell = CellSupervisor(opts, cache).runCell(p);
    EXPECT_EQ(cell.attempts, 2u);
    EXPECT_TRUE(cell.retried());
    EXPECT_GE(cell.backoff_ms_total, 1u);
    EXPECT_EQ(cell.result.status, SimStatus::Crashed);
    EXPECT_NE(cell.result.status_message.find("attempt 2/2"),
              std::string::npos);
}

TEST(CellSupervisorTest, TransientFaultRetriesIntoCleanSuccess)
{
    RunPoint p = smallPoint();
    WorkloadCache cache;
    SimResult thread_row = simulate(p, cache);
    ASSERT_TRUE(thread_row.ok()) << thread_row.status_message;

    RunPoint faulty = p;
    faulty.inject_kind = InjectKind::KillSelf;
    faulty.inject_arg = SIGKILL;

    CellOptions opts;
    opts.retries = 1;
    opts.backoff_ms = 1;
    opts.inject_attempts = 1;  // fault fires on attempt 0 only
    CellOutcome cell = CellSupervisor(opts, cache).runCell(faulty);
    EXPECT_EQ(cell.attempts, 2u);
    EXPECT_TRUE(cell.retried());
    // A retried-then-succeeded cell is indistinguishable from a
    // first-try success.
    EXPECT_EQ(resultToJson(cell.result), resultToJson(thread_row));
    EXPECT_EQ(cell.as_run.inject_kind, InjectKind::None);
}

TEST(CellSupervisorTest, DeadlineBecomesTimedOut)
{
    RunPoint p = smallPoint();
    p.inject_kind = InjectKind::Spin;

    CellOptions opts;
    opts.timeout_ms = 300;
    WorkloadCache cache;
    CellOutcome cell = CellSupervisor(opts, cache).runCell(p);
    EXPECT_EQ(cell.result.status, SimStatus::TimedOut);
    EXPECT_EQ(cell.attempts, 1u);
    EXPECT_NE(cell.result.status_message.find("300 ms"),
              std::string::npos);
}

TEST(CellSupervisorTest, GuardedFailuresAreResultsNotRetries)
{
    // An in-taxonomy panic completes the result protocol inside the
    // child, so retries must NOT fire: a rejected configuration is
    // just as rejected on attempt 2.
    RunPoint p = smallPoint();
    p.inject_kind = InjectKind::Panic;

    CellOptions opts;
    opts.retries = 2;
    opts.backoff_ms = 1;
    WorkloadCache cache;
    CellOutcome cell = CellSupervisor(opts, cache).runCell(p);
    EXPECT_EQ(cell.attempts, 1u);
    EXPECT_FALSE(cell.retried());
    EXPECT_EQ(cell.result.status, SimStatus::Panic);
    EXPECT_EQ(cell.backoff_ms_total, 0u);
}

TEST(CellSupervisorTest, ChaosMutationIsReportedInAsRun)
{
    // Rate 1.0: every attempt faults, so the cell permanently fails
    // and as_run must carry the fault the child actually executed
    // (what a repro bundle needs for --replay).
    RunPoint p = smallPoint();
    CellOptions opts;
    opts.chaos = ChaosPolicy(1, 1.0);
    opts.timeout_ms = 2'000;  // bound the Spin draw
    WorkloadCache cache;
    CellOutcome cell = CellSupervisor(opts, cache).runCell(p);
    EXPECT_TRUE(injectKindIsProcessGrade(cell.as_run.inject_kind));
    EXPECT_TRUE(cell.result.status == SimStatus::Crashed ||
                cell.result.status == SimStatus::TimedOut);
}

} // namespace
} // namespace vrsim
