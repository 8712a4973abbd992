/**
 * @file
 * Tests for the system configuration (Table 1 defaults, technique
 * names, bench scaling, printing).
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "sim/config.hh"
#include "sim/logging.hh"

namespace vrsim
{
namespace
{

TEST(ConfigTest, PaperDefaultsMatchTable1)
{
    SystemConfig cfg = SystemConfig::paper();
    EXPECT_EQ(cfg.core.width, 5u);
    EXPECT_EQ(cfg.core.rob_size, 350u);
    EXPECT_EQ(cfg.core.issue_queue, 128u);
    EXPECT_EQ(cfg.core.load_queue, 128u);
    EXPECT_EQ(cfg.core.store_queue, 72u);
    EXPECT_EQ(cfg.core.frontend_stages, 15u);
    EXPECT_EQ(cfg.l1d.size_bytes, 32u * 1024);
    EXPECT_EQ(cfg.l1d.assoc, 8u);
    EXPECT_EQ(cfg.l1d.latency, 4u);
    EXPECT_EQ(cfg.l1d.mshrs, 24u);
    EXPECT_EQ(cfg.l2.size_bytes, 256u * 1024);
    EXPECT_EQ(cfg.l3.size_bytes, 8u * 1024 * 1024);
    EXPECT_EQ(cfg.l3.assoc, 16u);
    EXPECT_EQ(cfg.l3.latency, 30u);
    EXPECT_EQ(cfg.dram.latency, 200u);   // 50 ns at 4 GHz
    EXPECT_DOUBLE_EQ(cfg.dram.bytes_per_cycle, 12.8);
    EXPECT_EQ(cfg.core.int_phys_regs, 256u);
    EXPECT_EQ(cfg.core.vec_phys_regs, 128u);
}

TEST(ConfigTest, RunaheadDefaultsMatchPaper)
{
    SystemConfig cfg;
    EXPECT_EQ(cfg.runahead.stride_entries, 32u);
    EXPECT_EQ(cfg.runahead.vector_regs, 16u);
    EXPECT_EQ(cfg.runahead.lanes_per_vector, 8u);
    EXPECT_EQ(cfg.runahead.max_lanes(), 128u);
    EXPECT_EQ(cfg.runahead.subthread_timeout, 200u);
    EXPECT_EQ(cfg.runahead.nested_trigger_lanes, 64u);
    EXPECT_EQ(cfg.runahead.reconv_stack_entries, 8u);
    EXPECT_EQ(cfg.runahead.frontend_buffer_uops, 8u);
}

TEST(ConfigTest, BenchScaleShrinksLlcOnly)
{
    SystemConfig p = SystemConfig::paper();
    SystemConfig b = SystemConfig::benchScale();
    EXPECT_LT(b.l3.size_bytes, p.l3.size_bytes);
    EXPECT_EQ(b.l1d.size_bytes, p.l1d.size_bytes);
    EXPECT_EQ(b.core.rob_size, p.core.rob_size);
}

TEST(ConfigTest, TechniqueNames)
{
    EXPECT_EQ(techniqueName(Technique::OoO), "OoO");
    EXPECT_EQ(techniqueName(Technique::Pre), "PRE");
    EXPECT_EQ(techniqueName(Technique::Imp), "IMP");
    EXPECT_EQ(techniqueName(Technique::Vr), "VR");
    EXPECT_EQ(techniqueName(Technique::Dvr), "DVR");
    EXPECT_EQ(techniqueName(Technique::Oracle), "Oracle");
}

TEST(ConfigTest, TechniqueFromNameAcceptsReportAndLowerCaseSpellings)
{
    const std::pair<const char *, Technique> names[] = {
        {"ooo", Technique::OoO},
        {"pre", Technique::Pre},
        {"imp", Technique::Imp},
        {"vr", Technique::Vr},
        {"dvr-offload", Technique::DvrOffload},
        {"dvr-discovery", Technique::DvrDiscovery},
        {"dvr", Technique::Dvr},
        {"oracle", Technique::Oracle},
    };
    for (const auto &[lower, t] : names) {
        EXPECT_EQ(techniqueFromName(lower), t) << lower;
        EXPECT_EQ(techniqueFromName(techniqueName(t)), t) << lower;
    }
    try {
        techniqueFromName("ooo2");
        FAIL() << "unknown technique accepted";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("ooo2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("valid: OoO, PRE, IMP, VR, DVR-Offload, "
                           "DVR-Discovery, DVR, Oracle"),
                  std::string::npos)
            << msg;
    }
}

TEST(ConfigTest, PrintConfigMentionsKeyStructures)
{
    std::ostringstream os;
    printConfig(os, SystemConfig::paper());
    EXPECT_NE(os.str().find("ROB 350"), std::string::npos);
    EXPECT_NE(os.str().find("24 MSHRs"), std::string::npos);
    EXPECT_NE(os.str().find("technique"), std::string::npos);
}

TEST(ConfigValidateTest, AcceptsShippedConfigurations)
{
    EXPECT_NO_THROW(SystemConfig::paper().validate(false));
    EXPECT_NO_THROW(SystemConfig::benchScale().validate(false));
}

/** One degenerate-parameter case: name + mutation applied to a valid
 *  baseline, which validate() must then reject with FatalError. */
struct BadConfigCase
{
    const char *name;
    std::function<void(SystemConfig &)> mutate;
};

/** Print a case as its name. gtest's default printer dumps the raw
 *  bytes, which hold the addresses of `name` and the lambda; ctest
 *  copies that dump into the test name, and address-space
 *  randomisation would change it on every build. */
void
PrintTo(const BadConfigCase &c, std::ostream *os)
{
    *os << '"' << c.name << '"';
}

class ConfigRejection
    : public ::testing::TestWithParam<BadConfigCase>
{
};

TEST_P(ConfigRejection, RejectsDegenerateParameter)
{
    SystemConfig cfg = SystemConfig::benchScale();
    GetParam().mutate(cfg);
    EXPECT_THROW(cfg.validate(false), FatalError) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConfigRejection,
    ::testing::Values(
        BadConfigCase{"zero_width",
                      [](SystemConfig &c) { c.core.width = 0; }},
        BadConfigCase{"zero_rob",
                      [](SystemConfig &c) { c.core.rob_size = 0; }},
        BadConfigCase{"zero_issue_queue",
                      [](SystemConfig &c) { c.core.issue_queue = 0; }},
        BadConfigCase{"zero_load_queue",
                      [](SystemConfig &c) { c.core.load_queue = 0; }},
        BadConfigCase{"zero_store_queue",
                      [](SystemConfig &c) { c.core.store_queue = 0; }},
        BadConfigCase{"zero_frontend",
                      [](SystemConfig &c) {
                          c.core.frontend_stages = 0;
                      }},
        BadConfigCase{"zero_load_ports",
                      [](SystemConfig &c) { c.core.load_ports = 0; }},
        BadConfigCase{"zero_fu_class",
                      [](SystemConfig &c) { c.core.int_mul_units = 0; }},
        BadConfigCase{"zero_phys_regs",
                      [](SystemConfig &c) { c.core.int_phys_regs = 0; }},
        BadConfigCase{"non_pow2_line",
                      [](SystemConfig &c) { c.l1d.line_bytes = 48; }},
        BadConfigCase{"zero_line",
                      [](SystemConfig &c) { c.l1d.line_bytes = 0; }},
        BadConfigCase{"zero_assoc",
                      [](SystemConfig &c) { c.l2.assoc = 0; }},
        BadConfigCase{"cache_smaller_than_one_set",
                      [](SystemConfig &c) { c.l1d.size_bytes = 256; }},
        BadConfigCase{"non_pow2_sets",
                      [](SystemConfig &c) {
                          c.l3.size_bytes = 3 * 64 * 1024;
                      }},
        BadConfigCase{"zero_mshrs",
                      [](SystemConfig &c) { c.l1d.mshrs = 0; }},
        BadConfigCase{"zero_cache_ports",
                      [](SystemConfig &c) { c.l1d.ports = 0; }},
        BadConfigCase{"zero_cache_latency",
                      [](SystemConfig &c) { c.l2.latency = 0; }},
        BadConfigCase{"zero_dram_latency",
                      [](SystemConfig &c) { c.dram.latency = 0; }},
        BadConfigCase{"nonpositive_dram_bw",
                      [](SystemConfig &c) {
                          c.dram.bytes_per_cycle = 0.0;
                      }},
        BadConfigCase{"zero_dram_channels",
                      [](SystemConfig &c) { c.dram.channels = 0; }},
        BadConfigCase{"enabled_stride_pf_no_streams",
                      [](SystemConfig &c) { c.stride_pf.streams = 0; }},
        BadConfigCase{"imp_without_table",
                      [](SystemConfig &c) {
                          c.technique = Technique::Imp;
                          c.imp.table_entries = 0;
                      }},
        BadConfigCase{"zero_lanes_per_vector",
                      [](SystemConfig &c) {
                          c.runahead.lanes_per_vector = 0;
                      }},
        BadConfigCase{"zero_vector_regs",
                      [](SystemConfig &c) {
                          c.runahead.vector_regs = 0;
                      }},
        BadConfigCase{"lanes_above_structural_limit",
                      [](SystemConfig &c) {
                          c.runahead.vector_regs = 1024;
                          c.runahead.max_budget_bytes = 0;
                      }},
        BadConfigCase{"zero_stride_entries",
                      [](SystemConfig &c) {
                          c.runahead.stride_entries = 0;
                      }},
        BadConfigCase{"zero_discovery_cap",
                      [](SystemConfig &c) {
                          c.runahead.discovery_max_insts = 0;
                      }},
        BadConfigCase{"zero_subthread_timeout",
                      [](SystemConfig &c) {
                          c.runahead.subthread_timeout = 0;
                      }},
        BadConfigCase{"zero_reconv_stack",
                      [](SystemConfig &c) {
                          c.runahead.reconv_stack_entries = 0;
                      }},
        BadConfigCase{"zero_frontend_buffer",
                      [](SystemConfig &c) {
                          c.runahead.frontend_buffer_uops = 0;
                      }},
        BadConfigCase{"zero_pre_chain_cap",
                      [](SystemConfig &c) {
                          c.runahead.pre_chain_cap = 0;
                      }},
        BadConfigCase{"hardware_budget_exceeded",
                      [](SystemConfig &c) {
                          c.runahead.max_budget_bytes = 64;
                      }}),
    [](const ::testing::TestParamInfo<BadConfigCase> &info) {
        return std::string(info.param.name);
    });

TEST(ConfigValidateTest, BudgetCeilingCanBeDisabled)
{
    // A 64-byte ceiling rejects the default geometry (see the matrix
    // case above); 0 must disable the check entirely, not act as an
    // even tighter ceiling.
    SystemConfig cfg = SystemConfig::benchScale();
    cfg.runahead.max_budget_bytes = 0;
    EXPECT_NO_THROW(cfg.validate(false));
}

TEST(ConfigValidateTest, PaperGeometryFitsDefaultBudgetCeiling)
{
    // The 256-lane §6.1 design point must also fit under the default
    // ceiling; only runaway geometries get rejected.
    SystemConfig cfg = SystemConfig::benchScale();
    cfg.runahead.vector_regs = 32;  // 32 x 8 = 256 lanes
    EXPECT_NO_THROW(cfg.validate(false));
}

} // namespace
} // namespace vrsim
