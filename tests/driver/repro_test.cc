/**
 * @file
 * Tests for the repro/journal serialization layer: exact JSON
 * round-trips of RunPoints, SimResults and ReproBundles, bundle files
 * on disk, plan fingerprints, and journal parsing (including torn
 * tails and plan mismatches).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "driver/repro.hh"

namespace vrsim
{
namespace
{

/** A fully-populated point: feature overrides, tweaked config, small
 *  scales, injected failure — every optional serializer path. */
RunPoint
richPoint()
{
    GraphScale g;
    g.nodes = 1 << 10;
    g.avg_degree = 8;
    g.seed = 99;
    HpcDbScale h;
    h.elements = 1 << 10;
    h.seed = 3;

    SystemConfig cfg = SystemConfig::benchScale();
    cfg.core.rob_size = 123;
    cfg.l1d.mshrs = 17;
    cfg.collect_digest = true;
    cfg.digest_interval = 512;

    DvrFeatures feats = DvrFeatures::full();
    feats.reconverge = false;

    RunPlan plan(cfg);
    plan.scale(g, h).roi(4000).warmup(500);
    plan.add({"camel"}, {TechColumn(Technique::Dvr, "ablate", feats)},
             {{"rob=123", [](SystemConfig &) {}}});
    plan.injectFail(Technique::Dvr, InjectKind::Diverge);
    return plan.points().at(0);
}

/** A real (tiny) run so the result carries live statistics. */
SimResult
smallResult()
{
    RunPoint p = richPoint();
    p.inject_kind = InjectKind::None;
    WorkloadCache cache;
    SimResult r = simulate(p, cache);
    EXPECT_TRUE(r.ok()) << r.status_message;
    EXPECT_TRUE(r.digest.has_value());
    return r;
}

TEST(SimStatusNameTest, RoundTripsEveryStatus)
{
    for (SimStatus s : {SimStatus::Ok, SimStatus::Fatal,
                        SimStatus::Panic, SimStatus::Hang,
                        SimStatus::Diverged})
        EXPECT_EQ(simStatusFromName(simStatusName(s)), s);
    EXPECT_THROW(simStatusFromName("exploded"), FatalError);
}

TEST(ReproRoundTripTest, PointJsonIsExact)
{
    RunPoint p = richPoint();
    std::string json = pointToJson(p);
    RunPoint q = pointFromJson("test point", json);
    // Serialize-parse-serialize fixpoint implies every field
    // round-tripped exactly.
    EXPECT_EQ(pointToJson(q), json);
    EXPECT_EQ(q.id(), p.id());
    EXPECT_EQ(q.cfg.core.rob_size, 123u);
    EXPECT_EQ(q.cfg.digest_interval, 512u);
    EXPECT_EQ(q.gscale.seed, 99u);
    ASSERT_TRUE(q.features.has_value());
    EXPECT_FALSE(q.features->reconverge);
    EXPECT_EQ(q.inject_kind, InjectKind::Diverge);
}

TEST(ReproRoundTripTest, PlainPointOmitsOptionals)
{
    RunPlan plan(SystemConfig::benchScale());
    plan.add({"camel"}, {Technique::OoO});
    RunPoint p = plan.points().at(0);
    RunPoint q = pointFromJson("plain point", pointToJson(p));
    EXPECT_EQ(pointToJson(q), pointToJson(p));
    EXPECT_FALSE(q.features.has_value());
    EXPECT_EQ(q.inject_kind, InjectKind::None);
}

TEST(ReproRoundTripTest, SamplingFieldsRoundTrip)
{
    RunPoint p = richPoint();
    p.inject_kind = InjectKind::None;
    p.warmup = 0;  // interval sampling replaces the global warmup
    p.sampling = SamplingPlan{256, 2000, 400, 100};
    std::string json = pointToJson(p);
    EXPECT_NE(json.find("\"sampling\":"), std::string::npos);
    RunPoint q = pointFromJson("sampled point", json);
    EXPECT_EQ(pointToJson(q), json);
    EXPECT_EQ(q.sampling.ff_insts, 256u);
    EXPECT_EQ(q.sampling.period, 2000u);
    EXPECT_EQ(q.sampling.detail, 400u);
    EXPECT_EQ(q.sampling.warm, 100u);

    // A live sampled run's summary survives the journal round-trip.
    WorkloadCache cache;
    SimResult r = simulate(q, cache);
    ASSERT_TRUE(r.ok()) << r.status_message;
    ASSERT_TRUE(r.sample.has_value());
    EXPECT_GT(r.sample->intervals, 0u);
    std::string rjson = resultToJson(r);
    EXPECT_NE(rjson.find("\"sample\":"), std::string::npos);
    SimResult s = resultFromJson("sampled result", rjson);
    EXPECT_EQ(resultToJson(s), rjson);
    ASSERT_TRUE(s.sample.has_value());
    EXPECT_EQ(s.sample->intervals, r.sample->intervals);
    EXPECT_EQ(s.sample->ff_insts, r.sample->ff_insts);
    EXPECT_EQ(s.sample->warm_insts, r.sample->warm_insts);
    EXPECT_DOUBLE_EQ(s.sample->cpi_sum, r.sample->cpi_sum);
    EXPECT_DOUBLE_EQ(s.sample->cpi_sumsq, r.sample->cpi_sumsq);
}

TEST(ReproRoundTripTest, UnsampledSerializationIsUnchanged)
{
    // Pre-sampling journals and bundles must stay byte-identical:
    // the new keys only appear when a plan/summary is actually set.
    EXPECT_EQ(pointToJson(richPoint()).find("\"sampling\":"),
              std::string::npos);
    EXPECT_EQ(resultToJson(smallResult()).find("\"sample\":"),
              std::string::npos);
}

TEST(ReproRoundTripTest, ResultJsonIsExact)
{
    SimResult r = smallResult();
    std::string json = resultToJson(r);
    SimResult s = resultFromJson("test result", json);
    EXPECT_EQ(resultToJson(s), json);
    EXPECT_EQ(s.workload, r.workload);
    EXPECT_EQ(s.technique, r.technique);
    EXPECT_EQ(s.status, r.status);
    EXPECT_EQ(s.core.instructions, r.core.instructions);
    EXPECT_EQ(s.core.cycles, r.core.cycles);
    EXPECT_DOUBLE_EQ(s.mlp, r.mlp);
    ASSERT_TRUE(s.digest.has_value());
    EXPECT_TRUE(*s.digest == *r.digest);
    EXPECT_EQ(s.dvr.has_value(), r.dvr.has_value());
}

TEST(ReproRoundTripTest, MalformedJsonIsFatalWithDiagnostic)
{
    EXPECT_THROW(resultFromJson("doc", "{\"workload\":"), FatalError);
    EXPECT_THROW(pointFromJson("doc", "not json"), FatalError);
    try {
        resultFromJson("doc", "[1, 2]");
        FAIL() << "array accepted as a result";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("doc"),
                  std::string::npos);
    }
}

TEST(ReproBundleTest, BundleRoundTripsWithDivergence)
{
    ReproBundle b;
    b.point = richPoint();
    b.status = SimStatus::Diverged;
    b.status_message = "digest mismatch at interval 3";
    DigestRecord base;
    base.interval = 512;
    base.instructions = 4000;
    base.final_digest = 0xdeadbeefcafef00dull;
    base.intervals = {1, 2, 3};
    b.baseline_digest = base;
    DigestDivergence div;
    div.interval_index = 3;
    div.inst_lo = 1536;
    div.inst_hi = 2048;
    div.expected = 0x1111;
    div.actual = 0x2222;
    b.divergence = div;

    ReproBundle c = bundleFromJson("bundle", bundleToJson(b));
    EXPECT_EQ(bundleToJson(c), bundleToJson(b));
    EXPECT_EQ(c.status, SimStatus::Diverged);
    ASSERT_TRUE(c.baseline_digest.has_value());
    EXPECT_TRUE(*c.baseline_digest == base);
    ASSERT_TRUE(c.divergence.has_value());
    EXPECT_EQ(c.divergence->interval_index, 3u);
    EXPECT_EQ(c.divergence->actual, 0x2222u);
}

TEST(ReproBundleTest, WriteAndReadBackFromDisk)
{
    ReproBundle b;
    b.point = richPoint();
    b.status = SimStatus::Panic;
    b.status_message = "panic: injected";

    std::string dir = ::testing::TempDir() + "vrsim_repro_test";
    std::string path = writeReproBundle(dir, b);
    EXPECT_EQ(path.rfind(dir, 0), 0u);
    ReproBundle c = readReproBundle(path);
    EXPECT_EQ(bundleToJson(c), bundleToJson(b));

    EXPECT_THROW(readReproBundle(dir + "/no-such-bundle.json"),
                 FatalError);
}

TEST(PlanFingerprintTest, SensitiveToAnyPointChange)
{
    RunPlan plan(SystemConfig::benchScale());
    plan.add({"camel", "kangaroo"}, {Technique::OoO, Technique::Dvr});
    std::vector<RunPoint> pts = plan.points();
    const uint64_t fp = planFingerprint(pts);
    EXPECT_EQ(planFingerprint(pts), fp);

    std::vector<RunPoint> tweaked = pts;
    tweaked[2].cfg.core.rob_size++;
    EXPECT_NE(planFingerprint(tweaked), fp);

    std::vector<RunPoint> reordered = pts;
    std::swap(reordered[0], reordered[1]);
    EXPECT_NE(planFingerprint(reordered), fp);

    std::vector<RunPoint> shorter(pts.begin(), pts.end() - 1);
    EXPECT_NE(planFingerprint(shorter), fp);
}

class JournalTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        RunPlan plan(SystemConfig::benchScale());
        GraphScale g;
        g.nodes = 1 << 10;
        g.avg_degree = 8;
        HpcDbScale h;
        h.elements = 1 << 10;
        plan.scale(g, h).roi(4000).warmup(500);
        plan.add({"camel"}, {Technique::OoO, Technique::Dvr});
        points_ = plan.points();
        fp_ = planFingerprint(points_);
        // Unique per test: ctest runs each case as its own process, so
        // a shared path would let parallel cases truncate each other's
        // journals.
        path_ = ::testing::TempDir() + "vrsim_journal_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".jsonl";
        std::remove(path_.c_str());
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string
    journalText(size_t entries)
    {
        SimResult r = smallResult();
        std::ostringstream os;
        os << journalHeaderLine(fp_, points_.size()) << "\n";
        for (size_t i = 0; i < entries; i++)
            os << journalEntryLine(i, points_[i], r) << "\n";
        return os.str();
    }

    void
    writeFile(const std::string &text)
    {
        std::ofstream os(path_);
        os << text;
    }

    std::vector<RunPoint> points_;
    uint64_t fp_ = 0;
    std::string path_;
};

TEST_F(JournalTest, MissingFileYieldsEmptySlots)
{
    auto slots = loadJournal(path_ + ".absent", fp_, points_.size());
    ASSERT_EQ(slots.size(), points_.size());
    for (const auto &s : slots)
        EXPECT_FALSE(s.has_value());
}

TEST_F(JournalTest, RestoresCompletedEntries)
{
    writeFile(journalText(1));
    auto slots = loadJournal(path_, fp_, points_.size());
    ASSERT_EQ(slots.size(), 2u);
    EXPECT_TRUE(slots[0].has_value());
    EXPECT_FALSE(slots[1].has_value());
    EXPECT_TRUE(slots[0]->ok());
    EXPECT_GT(slots[0]->core.instructions, 0u);
}

TEST_F(JournalTest, TornTailIsToleratedAndStopsReading)
{
    std::string text = journalText(2);
    // The process died mid-append: cut the final line in half.
    writeFile(text.substr(0, text.size() - text.size() / 4));
    auto slots = loadJournal(path_, fp_, points_.size());
    EXPECT_TRUE(slots[0].has_value());
    EXPECT_FALSE(slots[1].has_value());
}

TEST_F(JournalTest, FingerprintMismatchIsFatal)
{
    writeFile(journalText(1));
    EXPECT_THROW(loadJournal(path_, fp_ ^ 1, points_.size()),
                 FatalError);
}

TEST_F(JournalTest, PointCountMismatchIsFatal)
{
    writeFile(journalText(1));
    EXPECT_THROW(loadJournal(path_, fp_, points_.size() + 1),
                 FatalError);
}

TEST_F(JournalTest, OutOfRangeEntryIndexIsFatal)
{
    SimResult r = smallResult();
    std::ostringstream os;
    os << journalHeaderLine(fp_, points_.size()) << "\n"
       << journalEntryLine(7, points_[0], r) << "\n";
    writeFile(os.str());
    EXPECT_THROW(loadJournal(path_, fp_, points_.size()), FatalError);
}

} // namespace
} // namespace vrsim
