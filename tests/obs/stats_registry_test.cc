/**
 * @file
 * Tests for the hierarchical stats registry: node semantics per kind,
 * path validation, duplicate-registration refusal, lexicographic
 * iteration, and the JSON/CSV dumps (JSON round-trips through the
 * strict sim/parse.hh reader).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/stats_registry.hh"
#include "sim/parse.hh"

namespace vrsim
{
namespace
{

TEST(StatsRegistryTest, CounterGaugeAverageSemantics)
{
    StatsRegistry reg;
    StatNode &c = reg.addCounter("core.commits", "retired");
    ++c;
    c += 9;
    EXPECT_EQ(c.count(), 10u);
    EXPECT_DOUBLE_EQ(reg.value("core.commits"), 10.0);
    EXPECT_EQ(c.kind(), StatKind::Counter);

    StatNode &g = reg.addGauge("mem.mlp");
    g = 3.5;
    EXPECT_DOUBLE_EQ(reg.value("mem.mlp"), 3.5);

    StatNode &a = reg.addAverage("mem.latency");
    a.sample(100);
    a.sample(200);
    a.sample(600, 2);  // weighted: two samples of 600
    EXPECT_EQ(a.samples(), 4u);
    EXPECT_DOUBLE_EQ(reg.value("mem.latency"), (100 + 200 + 1200) / 4.0);
}

TEST(StatsRegistryTest, HistogramBucketsAndMean)
{
    StatsRegistry reg;
    StatNode &h = reg.addHistogram("core.rob_occ", 4, 8.0);
    h.sample(0);
    h.sample(7.9);   // bucket 0
    h.sample(8);     // bucket 1
    h.sample(31.9);  // bucket 3
    h.sample(1000);  // overflow bucket
    ASSERT_EQ(h.buckets().size(), 5u);  // 4 + overflow
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[3], 1u);
    EXPECT_EQ(h.buckets()[4], 1u);
    EXPECT_EQ(h.samples(), 5u);
}

TEST(StatsRegistryTest, FormulaReadsOtherNodes)
{
    StatsRegistry reg;
    reg.addCounter("core.instructions") += 200;
    reg.addCounter("core.cycles") += 100;
    reg.addFormula("core.ipc", [](const StatsRegistry &r) {
        double cyc = r.value("core.cycles");
        return cyc ? r.value("core.instructions") / cyc : 0.0;
    });
    EXPECT_DOUBLE_EQ(reg.value("core.ipc"), 2.0);
    // Formulas evaluate on read: bumping an input changes the output.
    reg.at("core.instructions") += 100;
    EXPECT_DOUBLE_EQ(reg.value("core.ipc"), 3.0);
}

TEST(StatsRegistryTest, DuplicateRegistrationIsFatal)
{
    StatsRegistry reg;
    reg.addCounter("a.b");
    EXPECT_THROW(reg.addCounter("a.b"), FatalError);
    EXPECT_THROW(reg.addGauge("a.b"), FatalError);
}

TEST(StatsRegistryTest, InvalidPathsAreFatal)
{
    StatsRegistry reg;
    for (const char *bad : {"", ".", "a.", ".a", "a..b", "A.b",
                            "a b", "a-b", "core.IPC"})
        EXPECT_THROW(reg.addCounter(bad), FatalError) << bad;
    // Valid shapes for contrast.
    reg.addCounter("a");
    reg.addCounter("a.b_2.c0");
}

TEST(StatsRegistryTest, LookupAndIterationOrder)
{
    StatsRegistry reg;
    reg.addCounter("z.last");
    reg.addCounter("a.first");
    reg.addCounter("m.mid");
    EXPECT_TRUE(reg.has("m.mid"));
    EXPECT_FALSE(reg.has("m.missing"));
    EXPECT_EQ(reg.find("m.missing"), nullptr);
    EXPECT_THROW(reg.value("m.missing"), FatalError);
    EXPECT_EQ(reg.paths(),
              (std::vector<std::string>{"a.first", "m.mid", "z.last"}));
    std::vector<std::string> visited;
    reg.visit([&](const StatNode &n) { visited.push_back(n.path()); });
    EXPECT_EQ(visited, reg.paths());
}

TEST(StatsRegistryTest, JsonDumpRoundTrips)
{
    StatsRegistry reg;
    reg.addCounter("core.instructions") += 123;
    reg.addGauge("core.ipc") = 1.25;
    StatNode &h = reg.addHistogram("mem.lat", 2, 10.0);
    h.sample(5);
    h.sample(25);
    std::ostringstream os;
    reg.dumpJson(os);

    JsonValue doc = JsonValue::parse("dump", os.str());
    EXPECT_EQ(doc.at("core.instructions").asU64(), 123u);
    EXPECT_DOUBLE_EQ(doc.at("core.ipc").asF64(), 1.25);
    const JsonValue &hist = doc.at("mem.lat");
    EXPECT_DOUBLE_EQ(hist.at("bucket_width").asF64(), 10.0);
    EXPECT_EQ(hist.at("total").asU64(), 2u);
    ASSERT_EQ(hist.at("buckets").asArray().size(), 3u);  // 2 + overflow
    EXPECT_EQ(hist.at("buckets").asArray()[1].asU64(), 0u);
    EXPECT_EQ(hist.at("buckets").asArray()[2].asU64(), 1u);
}

TEST(StatsRegistryTest, CsvDumpShape)
{
    StatsRegistry reg;
    reg.addCounter("core.instructions", "retired insts") += 7;
    reg.addGauge("core.ipc", "insts per cycle") = 0.5;
    std::ostringstream os;
    reg.dumpCsv(os);
    std::istringstream in(os.str());
    std::string header, row1, row2;
    std::getline(in, header);
    std::getline(in, row1);
    std::getline(in, row2);
    EXPECT_EQ(header, "path,kind,value,description");
    EXPECT_EQ(row1.rfind("core.instructions,counter,7", 0), 0u);
    EXPECT_EQ(row2.rfind("core.ipc,gauge,0.5", 0), 0u);
}

TEST(StatsRegistryTest, NodeReferencesStayValidAcrossInserts)
{
    StatsRegistry reg;
    StatNode &first = reg.addCounter("a.a");
    for (int i = 0; i < 64; i++)
        reg.addCounter("n." + std::to_string(i / 10) +
                       std::to_string(i % 10));
    ++first;
    EXPECT_EQ(reg.at("a.a").count(), 1u);
}

// Per-kind suites: the Scalar/Average/Histogram/StatGroup cases of the
// former sim/stats.hh, run against the registry nodes that replaced it.

TEST(ScalarTest, IncrementAndAssign)
{
    StatsRegistry reg;
    StatNode &hits = reg.addCounter("hits");
    ++hits;
    ++hits;
    hits += 3;
    EXPECT_EQ(hits.count(), 5u);
    StatNode &level = reg.addGauge("level");
    level = 5.5;
    EXPECT_DOUBLE_EQ(reg.value("level"), 5.5);
    level = 1.0;
    EXPECT_DOUBLE_EQ(reg.value("level"), 1.0);
}

TEST(AverageTest, MeanOfSamples)
{
    StatsRegistry reg;
    StatNode &a = reg.addAverage("lat");
    EXPECT_DOUBLE_EQ(reg.value("lat"), 0.0);  // no samples yet
    a.sample(10);
    a.sample(20);
    a.sample(30);
    EXPECT_DOUBLE_EQ(reg.value("lat"), 20.0);
    EXPECT_EQ(a.samples(), 3u);
}

TEST(AverageTest, DescriptionAndDump)
{
    StatsRegistry reg;
    StatNode &a = reg.addAverage("lat", "load-to-use latency");
    EXPECT_EQ(a.path(), "lat");
    EXPECT_EQ(a.desc(), "load-to-use latency");
    a.sample(10);
    a.sample(30);
    // A separator inside a description must not split the CSV row.
    reg.addAverage("x", "a, b").sample(1);
    std::ostringstream os;
    reg.dumpCsv(os);
    EXPECT_EQ(os.str(), "path,kind,value,description\n"
                        "lat,average,20,load-to-use latency\n"
                        "x,average,1,a; b\n");
}

TEST(HistogramTest, NameGeometryAndDump)
{
    StatsRegistry reg;
    StatNode &h = reg.addHistogram("occ", 2, 10.0);
    EXPECT_EQ(h.path(), "occ");
    EXPECT_EQ(h.kind(), StatKind::Histogram);
    EXPECT_DOUBLE_EQ(h.bucketWidth(), 10.0);
    h.sample(5);
    h.sample(25);  // overflow bucket
    std::ostringstream os;
    reg.dumpJson(os);
    const JsonValue occ = JsonValue::parse("dump", os.str()).at("occ");
    EXPECT_DOUBLE_EQ(occ.at("mean").asF64(), 15.0);
    EXPECT_EQ(occ.at("total").asU64(), 2u);
    const auto &buckets = occ.at("buckets").asArray();
    ASSERT_EQ(buckets.size(), 3u);
    EXPECT_EQ(buckets[0].asU64(), 1u);
    EXPECT_EQ(buckets[1].asU64(), 0u);
    EXPECT_EQ(buckets[2].asU64(), 1u);
}

TEST(HistogramTest, BucketingAndOverflow)
{
    StatsRegistry reg;
    StatNode &h = reg.addHistogram("occ", 4, 10.0);  // [0,10)..[30,40)
    h.sample(5);
    h.sample(15);
    h.sample(15);
    h.sample(100);  // overflow
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.buckets(), (std::vector<uint64_t>{1, 2, 0, 0, 1}));
}

TEST(HistogramTest, WeightedSamplesAndMean)
{
    StatsRegistry reg;
    StatNode &h = reg.addHistogram("w", 10, 1.0);
    h.sample(2, 3);  // three samples of value 2
    h.sample(8, 1);
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.buckets()[2], 3u);
    EXPECT_EQ(h.buckets()[8], 1u);
    EXPECT_DOUBLE_EQ(reg.value("w"), (2 * 3 + 8) / 4.0);
}

TEST(HistogramTest, NegativeValuesClampToFirstBucket)
{
    StatsRegistry reg;
    StatNode &h = reg.addHistogram("n", 4, 1.0);
    h.sample(-3.0);
    EXPECT_EQ(h.buckets()[0], 1u);
}

TEST(HistogramTest, BadGeometryPanics)
{
    StatsRegistry reg;
    EXPECT_THROW(reg.addHistogram("bad", 0, 1.0), PanicError);
    EXPECT_THROW(reg.addHistogram("bad", 4, 0.0), PanicError);
    EXPECT_FALSE(reg.has("bad"));
}

TEST(StatGroupTest, CreateLookupDump)
{
    StatsRegistry reg;
    reg.addCounter("core.cycles") += 100;
    reg.addCounter("core.insts") += 250;
    EXPECT_TRUE(reg.has("core.cycles"));
    EXPECT_FALSE(reg.has("core.nope"));
    EXPECT_DOUBLE_EQ(reg.value("core.insts"), 250.0);
    EXPECT_THROW(reg.value("core.nope"), FatalError);

    std::ostringstream os;
    reg.dumpCsv(os);
    EXPECT_NE(os.str().find("core.cycles,counter,100"), std::string::npos);
    EXPECT_NE(os.str().find("core.insts,counter,250"), std::string::npos);
}

TEST(StatGroupTest, ScalarIsStableAcrossInserts)
{
    StatsRegistry reg;
    StatNode &a = reg.addGauge("g.a");
    a = 1.0;
    for (int i = 0; i < 100; i++)
        reg.addCounter("g.s" + std::to_string(i));
    a = 2.0;
    EXPECT_DOUBLE_EQ(reg.value("g.a"), 2.0);
}

} // namespace
} // namespace vrsim
