/**
 * @file
 * Degenerate workload scales: a scale a workload cannot be built at
 * is rejected with a FatalError naming the key and the bound, before
 * any graph is built, so a run over it is a Fatal row rather than a
 * signal death (a modulo by zero in Rng::below) or a panic (an RMAT
 * node count that is not a power of two).
 */

#include <gtest/gtest.h>

#include <ostream>

#include "driver/simulation.hh"

namespace vrsim
{
namespace
{

struct ScaleCase
{
    const char *name;
    const char *spec;
    uint64_t nodes;
    uint64_t elems;
    const char *key;  //!< the key the diagnostic must name ("" = ok)
};

void
PrintTo(const ScaleCase &c, std::ostream *os)
{
    *os << c.name;
}

RunPoint
pointAt(const ScaleCase &c)
{
    RunPoint p{.spec = c.spec, .cfg = SystemConfig::benchScale(),
               .max_insts = 2000};
    p.gscale.nodes = c.nodes;
    p.gscale.avg_degree = 4;
    p.hscale.elements = c.elems;
    return p;
}

class BadScale : public ::testing::TestWithParam<ScaleCase>
{};

TEST_P(BadScale, IsAFatalRowNamingTheKey)
{
    const ScaleCase &c = GetParam();
    WorkloadCache cache;
    SimResult r = simulate(pointAt(c), cache);
    EXPECT_EQ(r.status, SimStatus::Fatal) << r.status_message;
    EXPECT_NE(r.status_message.find(c.key), std::string::npos)
        << r.status_message;
    EXPECT_EQ(cache.builds(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Listed, BadScale,
    ::testing::Values(
        ScaleCase{"BfsUrZeroNodes", "bfs/UR", 0, 1024, "gscale.nodes"},
        ScaleCase{"Hj2ZeroElems", "hj2", 1024, 0, "hscale.elements"},
        ScaleCase{"NasIsOneElem", "nas-is", 1024, 1, "hscale.elements"},
        ScaleCase{"BfsKr3000Nodes", "bfs/KR", 3000, 1024,
                  "gscale.nodes"},
        ScaleCase{"BfsKrOneNode", "bfs/KR", 1, 1024, "gscale.nodes"},
        ScaleCase{"PrOrkFourNodes", "pr/ORK", 4, 1024, "gscale.nodes"},
        ScaleCase{"PrLjn3000Nodes", "pr/LJN", 3000, 1024,
                  "gscale.nodes"},
        ScaleCase{"SsspTwTwoNodes", "sssp/TW", 2, 1024, "gscale.nodes"},
        ScaleCase{"Graph500Elems5000", "graph500", 1024, 5000,
                  "hscale.elements"}),
    [](const auto &info) { return std::string(info.param.name); });

class SmallestScale : public ::testing::TestWithParam<ScaleCase>
{};

TEST_P(SmallestScale, Runs)
{
    WorkloadCache cache;
    SimResult r = simulate(pointAt(GetParam()), cache);
    EXPECT_TRUE(r.ok()) << r.status_message;
}

// The smallest scale of each rule; ORK and TW fall back to a 2-node
// RMAT graph below their divisor.
INSTANTIATE_TEST_SUITE_P(
    Accepted, SmallestScale,
    ::testing::Values(
        ScaleCase{"BfsUrOneNode", "bfs/UR", 1, 1024, ""},
        ScaleCase{"BfsKrTwoNodes", "bfs/KR", 2, 1024, ""},
        ScaleCase{"PrOrkEightNodes", "pr/ORK", 8, 1024, ""},
        ScaleCase{"PrOrkThreeNodes", "pr/ORK", 3, 1024, ""},
        ScaleCase{"SsspTwOneNode", "sssp/TW", 1, 1024, ""},
        ScaleCase{"Hj2TwoElems", "hj2", 1024, 2, ""},
        ScaleCase{"NasIsTwoElems", "nas-is", 1024, 2, ""},
        ScaleCase{"Graph500Elems4000", "graph500", 1024, 4000, ""}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(BadScaleTest, FileGraphsIgnoreTheSyntheticScale)
{
    // A "bfs/file:PATH" spec takes its size from the file, so a zero
    // --nodes is not its error; the missing file is.
    RunPoint p = pointAt({"", "bfs/file:/nonexistent/graph.el", 0, 0, ""});
    WorkloadCache cache;
    SimResult r = simulate(p, cache);
    EXPECT_EQ(r.status, SimStatus::Fatal);
    EXPECT_EQ(r.status_message.find("gscale.nodes"), std::string::npos)
        << r.status_message;
}

} // namespace
} // namespace vrsim
