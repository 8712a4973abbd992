/**
 * @file
 * Tests for the report writers: registry mapping, CSV shape, and the
 * human-readable report's content.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "driver/report.hh"
#include "obs/self_profile.hh"

namespace vrsim
{
namespace
{

SimResult
sampleResult(Technique t)
{
    SimResult r =
        simulate({.spec = "camel", .technique = t,
                  .cfg = SystemConfig::benchScale(),
                  .gscale = {.nodes = 1 << 11, .avg_degree = 8},
                  .hscale = {.elements = 1 << 12}, .max_insts = 10000});
    EXPECT_TRUE(r.ok()) << r.status_message;
    return r;
}

TEST(ReportTest, RegistryHasCoreAndMemKeys)
{
    StatsRegistry g = buildRegistry(sampleResult(Technique::OoO));
    for (const char *k :
         {"core.instructions", "core.cycles", "core.ipc", "core.loads",
          "mem.demand_accesses", "mem.dram_total", "mem.mlp",
          "core.stall_fetch", "cpi.base", "cpi.total"})
        EXPECT_TRUE(g.has(k)) << k;
    EXPECT_GT(g.value("core.ipc"), 0.0);
    EXPECT_FALSE(g.has("dvr.spawns"));
}

TEST(ReportTest, RegistryIncludesEngineSections)
{
    StatsRegistry d = buildRegistry(sampleResult(Technique::Dvr));
    EXPECT_TRUE(d.has("dvr.spawns"));
    EXPECT_TRUE(d.has("dvr.mean_lanes"));
    StatsRegistry v = buildRegistry(sampleResult(Technique::Vr));
    EXPECT_TRUE(v.has("vr.triggers"));
    StatsRegistry p = buildRegistry(sampleResult(Technique::Pre));
    EXPECT_TRUE(p.has("pre.intervals"));
}

TEST(ReportTest, RegistryHostColumnsAreOptIn)
{
    SimResult r = sampleResult(Technique::OoO);
    r.host_seconds = 0.5;
    EXPECT_FALSE(buildRegistry(r).has("host.seconds"));
    setProfileColumns(true);
    StatsRegistry g = buildRegistry(r);
    setProfileColumns(false);
    ASSERT_TRUE(g.has("host.seconds"));
    EXPECT_DOUBLE_EQ(g.value("host.seconds"), 0.5);
    EXPECT_GT(g.value("host.minsts_per_sec"), 0.0);
}

TEST(ReportTest, CsvHasHeaderAndMatchingColumns)
{
    std::ostringstream os;
    CsvWriter w(os);
    w.row(sampleResult(Technique::OoO));
    w.row(sampleResult(Technique::OoO));
    std::istringstream in(os.str());
    std::string header, row1, row2;
    std::getline(in, header);
    std::getline(in, row1);
    std::getline(in, row2);
    auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(header), commas(row1));
    EXPECT_EQ(commas(row1), commas(row2));
    EXPECT_NE(header.find("workload,technique"), std::string::npos);
    EXPECT_NE(header.find("core.ipc"), std::string::npos);
    EXPECT_NE(row1.find("camel,OoO"), std::string::npos);
}

TEST(ReportTest, CsvColumnsStableAcrossTechniques)
{
    // The header is fixed by the first row; later rows with more
    // stats must not add columns (missing keys become 0).
    std::ostringstream os;
    CsvWriter w(os);
    w.row(sampleResult(Technique::OoO));
    w.row(sampleResult(Technique::Dvr));
    std::istringstream in(os.str());
    std::string header, row1, row2;
    std::getline(in, header);
    std::getline(in, row1);
    std::getline(in, row2);
    auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(header), commas(row2));
}

TEST(ReportTest, CsvPointColumnPrefixesRows)
{
    std::ostringstream os;
    CsvWriter w(os);
    w.row(sampleResult(Technique::OoO), "camel:OoO:rob=64");
    w.row(sampleResult(Technique::Dvr), "camel:DVR");
    std::istringstream in(os.str());
    std::string header, row1, row2;
    std::getline(in, header);
    std::getline(in, row1);
    std::getline(in, row2);
    EXPECT_EQ(header.rfind("point,workload,technique", 0), 0u);
    EXPECT_EQ(row1.rfind("camel:OoO:rob=64,camel,OoO", 0), 0u);
    EXPECT_EQ(row2.rfind("camel:DVR,camel,DVR", 0), 0u);
    auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(header), commas(row1));
}

TEST(ReportTest, CsvMixingPointAndPlainRowsPanics)
{
    std::ostringstream os;
    CsvWriter w(os);
    w.row(sampleResult(Technique::OoO), "camel:OoO");
    EXPECT_THROW(w.row(sampleResult(Technique::OoO)), PanicError);
}

TEST(ReportTest, JsonSingleResultIsWellFormed)
{
    SimResult r = sampleResult(Technique::Dvr);
    std::ostringstream os;
    printJson(os, r);
    const std::string s = os.str();
    EXPECT_EQ(s.rfind("{", 0), 0u);
    EXPECT_NE(s.find("\"workload\": \"camel\""), std::string::npos);
    EXPECT_NE(s.find("\"technique\": \"DVR\""), std::string::npos);
    EXPECT_NE(s.find("\"status\": \"ok\""), std::string::npos);
    EXPECT_NE(s.find("\"core.ipc\":"), std::string::npos);
    EXPECT_NE(s.find("\"dvr.spawns\":"), std::string::npos);
    // Balanced braces (crude well-formedness check).
    EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
              std::count(s.begin(), s.end(), '}'));
}

TEST(ReportTest, JsonStatusCarriesFailureMessage)
{
    SimResult r;
    r.workload = "camel";
    r.technique = Technique::Vr;
    r.status = SimStatus::Panic;
    r.status_message = "panic: \"quoted\"\nand a newline";
    std::ostringstream os;
    printJson(os, r);
    EXPECT_NE(os.str().find("\"status\": \"panic\""),
              std::string::npos);
    // Quotes and newlines in the message must be escaped.
    EXPECT_NE(os.str().find("\\\"quoted\\\"\\nand a newline"),
              std::string::npos);
}

TEST(ReportTest, JsonArrayWrapsResults)
{
    std::vector<SimResult> rs = {sampleResult(Technique::OoO),
                                 sampleResult(Technique::Vr)};
    std::ostringstream os;
    printJson(os, rs);
    const std::string s = os.str();
    EXPECT_EQ(s.rfind("[", 0), 0u);
    EXPECT_NE(s.find("\"technique\": \"OoO\""), std::string::npos);
    EXPECT_NE(s.find("\"technique\": \"VR\""), std::string::npos);
    EXPECT_EQ(std::count(s.begin(), s.end(), '['),
              std::count(s.begin(), s.end(), ']'));
}

TEST(ReportTest, HumanReportMentionsKeySections)
{
    std::ostringstream os;
    printReport(os, sampleResult(Technique::Dvr),
                SystemConfig::benchScale());
    for (const char *k : {"performance", "dispatch stalls", "memory",
                          "Decoupled Vector Runahead", "IPC",
                          "MLP", "technique       DVR"})
        EXPECT_NE(os.str().find(k), std::string::npos) << k;
}

} // namespace
} // namespace vrsim
