/**
 * @file
 * Guardrail-subsystem tests: the forward-progress watchdog must
 * terminate wedged runs with a structured HangError, and simulate()
 * must fold the whole error taxonomy into per-run status records so
 * sweeps continue past failures (docs/robustness.md).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "driver/report.hh"
#include "driver/simulation.hh"

namespace vrsim
{
namespace
{

/**
 * A program that never halts: a tight counting loop ending in an
 * unconditional backward jump. With suggested_insts = 0 the run is
 * unbounded — exactly the wedge the watchdog exists to catch.
 */
Workload
wedgedWorkload()
{
    Workload w;
    w.name = "wedged";
    w.suggested_insts = 0;
    ProgramBuilder b(w.name);
    auto top = b.here();
    b.addi(1, 1, 1);
    b.xor_(2, 2, 1);
    b.jmp(top);
    b.halt();  // unreachable
    w.prog = b.build();
    return w;
}

TEST(GuardrailTest, WatchdogTerminatesWedgedUnboundedRun)
{
    Workload w = wedgedWorkload();
    SystemConfig cfg = SystemConfig::benchScale();
    cfg.watchdog_cycles = 50'000;
    MemoryHierarchy hier(cfg, w.image);
    OooCore core(cfg, w.prog, w.image, hier);

    try {
        core.run(w.init, /*max_insts=*/0);
        FAIL() << "wedged run returned instead of hanging";
    } catch (const HangError &e) {
        // The snapshot must place the stop just past the bound — the
        // watchdog fired promptly, not after some multiple of it.
        EXPECT_GE(e.progress().cycles, cfg.watchdog_cycles);
        EXPECT_LT(e.progress().cycles, 2 * cfg.watchdog_cycles);
        EXPECT_GT(e.progress().retired, 0u);
        EXPECT_NE(std::string(e.what()).find("watchdog-cycles"),
                  std::string::npos);
    }
}

TEST(GuardrailTest, BudgetedRunIgnoresUnboundedWatchdog)
{
    // A budgeted run of the same non-halting program is legitimate
    // (runs to its instruction budget) and must not trip the
    // unbounded-run bound.
    Workload w = wedgedWorkload();
    SystemConfig cfg = SystemConfig::benchScale();
    cfg.watchdog_cycles = 50'000;
    SimResult r = simulate({.cfg = cfg, .max_insts = 200'000}, w);
    ASSERT_TRUE(r.ok()) << r.status_message;
    EXPECT_EQ(r.core.instructions, 200'000u);
}

TEST(GuardrailTest, ZeroDisablesWatchdog)
{
    // With the watchdog off, bound the run by instruction count so
    // the test itself terminates; the point is that no hang is
    // reported even though the budget is generous.
    Workload w = wedgedWorkload();
    SystemConfig cfg = SystemConfig::benchScale();
    cfg.watchdog_cycles = 0;
    SimResult r = simulate({.cfg = cfg, .max_insts = 100'000}, w);
    EXPECT_TRUE(r.ok()) << r.status_message;
}

TEST(GuardrailTest, GuardedRunRecordsHang)
{
    Workload w = wedgedWorkload();
    SystemConfig cfg = SystemConfig::benchScale();
    cfg.watchdog_cycles = 50'000;
    SimResult r = simulate({.cfg = cfg}, w);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status, SimStatus::Hang);
    EXPECT_EQ(r.workload, "wedged");
    EXPECT_NE(r.status_message.find("hang"), std::string::npos);
}

TEST(GuardrailTest, GuardedRunRecordsFatalConfig)
{
    SystemConfig cfg = SystemConfig::benchScale();
    cfg.core.rob_size = 0;
    SimResult r =
        simulate({.spec = "camel", .cfg = cfg, .max_insts = 5'000});
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status, SimStatus::Fatal);
    EXPECT_NE(r.status_message.find("rob_size"), std::string::npos);
}

TEST(GuardrailTest, GuardedSweepContinuesPastFailure)
{
    // The acceptance scenario: a sweep where one point is wedged must
    // still produce results for every other point, with the failure
    // recorded in place.
    SystemConfig good = SystemConfig::benchScale();
    SystemConfig hung = good;
    hung.watchdog_cycles = 50'000;

    std::vector<SimResult> results;
    for (int i = 0; i < 3; i++) {
        if (i == 1) {
            Workload w = wedgedWorkload();
            results.push_back(simulate({.cfg = hung}, w));
        } else {
            Technique t = i == 0 ? Technique::OoO : Technique::Dvr;
            results.push_back(simulate({.spec = "camel", .technique = t,
                                        .cfg = good,
                                        .max_insts = 5'000}));
        }
    }

    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok());
    EXPECT_GT(results[0].ipc(), 0.0);
    EXPECT_EQ(results[1].status, SimStatus::Hang);
    EXPECT_TRUE(results[2].ok());
    EXPECT_GT(results[2].ipc(), 0.0);
}

TEST(GuardrailTest, FailedRunsRenderStatusInReportAndCsv)
{
    Workload w = wedgedWorkload();
    SystemConfig cfg = SystemConfig::benchScale();
    cfg.watchdog_cycles = 50'000;
    SimResult r = simulate({.cfg = cfg}, w);
    ASSERT_FALSE(r.ok());

    std::ostringstream rep;
    printReport(rep, r, cfg);
    EXPECT_NE(rep.str().find("-- status --"), std::string::npos);
    EXPECT_NE(rep.str().find("hang"), std::string::npos);
    // No statistics sections for a failed run.
    EXPECT_EQ(rep.str().find("-- performance --"), std::string::npos);

    std::ostringstream csv;
    CsvWriter writer(csv);
    writer.row(r);
    EXPECT_NE(csv.str().find("workload,technique,status,message"),
              std::string::npos);
    EXPECT_NE(csv.str().find(",hang,"), std::string::npos);
    // The diagnostic message must not smuggle extra separators into
    // the row: header and data row need identical column counts.
    std::string out = csv.str();
    std::string header = out.substr(0, out.find('\n'));
    std::string body = out.substr(out.find('\n') + 1);
    auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(header), commas(body));
}

TEST(GuardrailTest, StatusNames)
{
    EXPECT_STREQ(simStatusName(SimStatus::Ok), "ok");
    EXPECT_STREQ(simStatusName(SimStatus::Fatal), "fatal");
    EXPECT_STREQ(simStatusName(SimStatus::Panic), "panic");
    EXPECT_STREQ(simStatusName(SimStatus::Hang), "hang");
    EXPECT_STREQ(simStatusName(SimStatus::Diverged), "diverged");
}

} // namespace
} // namespace vrsim
