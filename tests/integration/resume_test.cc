/**
 * @file
 * End-to-end tests of resumable sweeps: a killed sweep's journal
 * restores completed points (which are not re-run), the resumed table
 * is byte-identical to an uninterrupted run, torn journal tails are
 * tolerated, and a journal from a different plan is refused.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

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
    // Two specs so "journaled points are skipped" is observable via
    // the workload cache's build count.
    plan.add({"camel", "kangaroo"}, {Technique::OoO, Technique::Dvr});
    return plan;
}

std::string
csvOf(const ResultTable &table)
{
    std::ostringstream os;
    table.writeCsv(os);
    return os.str();
}

ResultTable
sweep(const RunPlan &plan, SweepOptions opts, WorkloadCache &cache)
{
    opts.progress = false;
    opts.cache = &cache;
    return SweepRunner(opts).run(plan);
}

class ResumeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per test: ctest runs discovered tests as parallel
        // processes, and a shared journal path would let two tests
        // stomp each other's file.
        path_ = ::testing::TempDir() + "vrsim_resume_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".jsonl";
        std::remove(path_.c_str());
    }

    void TearDown() override { std::remove(path_.c_str()); }

    /** Run the full plan with a journal; returns the final CSV. */
    std::string
    fullRun()
    {
        SweepOptions opts;
        opts.checkpoint = path_;
        // One worker, whatever VRSIM_JOBS says: the journal then lists
        // points in plan order, which truncateJournal relies on.
        opts.jobs = 1;
        WorkloadCache cache;
        return csvOf(sweep(smallPlan(), opts, cache));
    }

    /** Keep only the first @p lines lines of the journal, plus
     *  @p partial_tail bytes of the next line (a torn append). */
    void
    truncateJournal(size_t lines, size_t partial_tail = 0)
    {
        std::ifstream is(path_);
        std::string text, line;
        size_t kept = 0;
        while (std::getline(is, line)) {
            if (kept < lines)
                text += line + "\n";
            else if (partial_tail) {
                text += line.substr(
                    0, std::min(partial_tail, line.size()));
                break;
            } else {
                break;
            }
            ++kept;
        }
        is.close();
        std::ofstream os(path_, std::ios::trunc);
        os << text;
    }

    std::string path_;
};

TEST_F(ResumeTest, ResumedTableIsByteIdenticalAndSkipsJournaled)
{
    const std::string full = fullRun();

    // Simulate a kill after the first two points (camel:OoO and
    // camel:Dvr) were journaled: header + 2 entries survive.
    truncateJournal(3);

    SweepOptions opts;
    opts.checkpoint = path_;
    opts.resume = true;
    WorkloadCache cache;
    ResultTable resumed = sweep(smallPlan(), opts, cache);

    EXPECT_EQ(csvOf(resumed), full);
    // Only kangaroo was re-run: camel's workload was never rebuilt,
    // so its journaled cells really were skipped.
    EXPECT_EQ(cache.builds(), 1u);
}

TEST_F(ResumeTest, FullyJournaledResumeRunsNothing)
{
    const std::string full = fullRun();

    SweepOptions opts;
    opts.checkpoint = path_;
    opts.resume = true;
    WorkloadCache cache;
    ResultTable resumed = sweep(smallPlan(), opts, cache);

    EXPECT_EQ(csvOf(resumed), full);
    EXPECT_EQ(cache.builds(), 0u);
}

TEST_F(ResumeTest, TornTailIsCompactedAndRerun)
{
    const std::string full = fullRun();

    // Kill mid-append: two whole entries plus half of a third.
    truncateJournal(3, 40);

    SweepOptions opts;
    opts.checkpoint = path_;
    opts.resume = true;
    WorkloadCache cache;
    EXPECT_EQ(csvOf(sweep(smallPlan(), opts, cache)), full);

    // The rewritten journal is whole again: a second resume restores
    // all four points and runs nothing.
    WorkloadCache cache2;
    EXPECT_EQ(csvOf(sweep(smallPlan(), opts, cache2)), full);
    EXPECT_EQ(cache2.builds(), 0u);
}

TEST_F(ResumeTest, ResumeRequiresCheckpoint)
{
    SweepOptions opts;
    opts.resume = true;
    WorkloadCache cache;
    EXPECT_THROW(sweep(smallPlan(), opts, cache), FatalError);
}

TEST_F(ResumeTest, JournalFromDifferentPlanIsRefused)
{
    fullRun();

    RunPlan other = smallPlan();
    other.add({"hj2"}, {Technique::OoO});

    SweepOptions opts;
    opts.checkpoint = path_;
    opts.resume = true;
    WorkloadCache cache;
    EXPECT_THROW(sweep(other, opts, cache), FatalError);
}

TEST_F(ResumeTest, MissingJournalResumesFromScratch)
{
    SweepOptions opts;
    opts.checkpoint = path_;
    opts.resume = true;
    WorkloadCache cache;
    ResultTable table = sweep(smallPlan(), opts, cache);
    EXPECT_EQ(table.failures(), 0u);
    EXPECT_EQ(cache.builds(), 2u);

    // ...and it wrote a complete journal while doing so.
    auto slots = loadJournal(path_,
                             planFingerprint(smallPlan().points()),
                             smallPlan().points().size());
    for (const auto &s : slots)
        EXPECT_TRUE(s.has_value());
}

TEST_F(ResumeTest, RealSigkillMidSweepResumesByteIdentical)
{
    // The journal's torn-tail tolerance against a *real* SIGKILL, not
    // a simulated truncation: run a process-isolation sweep in a
    // forked child, SIGKILL it as soon as the journal shows progress
    // (wherever mid-write that lands), then --resume and demand the
    // final table is byte-identical to an uninterrupted run.
    const std::string full = fullRun();
    std::remove(path_.c_str());

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        SweepOptions opts;
        opts.checkpoint = path_;
        opts.progress = false;
        opts.isolation = Isolation::Process;
        WorkloadCache cache;
        opts.cache = &cache;
        SweepRunner(opts).run(smallPlan());
        _exit(0);
    }

    // Kill the sweep once at least one entry follows the header (so
    // the kill lands at a random later cell, possibly mid-append).
    for (int spins = 0; spins < 10'000; spins++) {
        std::ifstream is(path_);
        std::string line;
        size_t lines = 0;
        while (std::getline(is, line))
            lines++;
        if (lines >= 2)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);

    SweepOptions opts;
    opts.checkpoint = path_;
    opts.resume = true;
    opts.isolation = Isolation::Process;
    WorkloadCache cache;
    EXPECT_EQ(csvOf(sweep(smallPlan(), opts, cache)), full);

    // The rewritten journal is whole: a second resume restores all
    // cells and builds nothing.
    WorkloadCache cache2;
    EXPECT_EQ(csvOf(sweep(smallPlan(), opts, cache2)), full);
    EXPECT_EQ(cache2.builds(), 0u);
}

TEST_F(ResumeTest, ResumePreservesFailedResults)
{
    // A journaled failure stays a failure on resume — results are
    // restored verbatim, not re-judged.
    RunPlan plan = smallPlan();
    plan.injectFail(Technique::Dvr, InjectKind::Panic);

    SweepOptions opts;
    opts.checkpoint = path_;
    WorkloadCache cache;
    const std::string full = csvOf(sweep(plan, opts, cache));

    opts.resume = true;
    WorkloadCache cache2;
    ResultTable resumed = sweep(plan, opts, cache2);
    EXPECT_EQ(csvOf(resumed), full);
    EXPECT_EQ(cache2.builds(), 0u);
    EXPECT_EQ(resumed.at("camel", Technique::Dvr).status,
              SimStatus::Panic);
}

} // namespace
} // namespace vrsim
