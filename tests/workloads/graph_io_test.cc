/**
 * @file
 * Tests for graph file loading: edge lists, MatrixMarket, round
 * trips, error handling, and the "kernel/file:PATH" workload specs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "driver/simulation.hh"
#include "workloads/graph_io.hh"

namespace vrsim
{
namespace
{

TEST(GraphIoTest, ReadsSimpleEdgeList)
{
    std::istringstream in(
        "# a comment\n"
        "0 1\n"
        "1 2\n"
        "\n"
        "2 0\n"
        "0 2\n");
    Graph g = readEdgeList(in);
    EXPECT_EQ(g.num_nodes, 3u);
    EXPECT_EQ(g.num_edges, 4u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(1), 1u);
    EXPECT_EQ(g.edges[g.offsets[1]], 2u);
}

TEST(GraphIoTest, MalformedEdgeListFails)
{
    std::istringstream in("0 1\nbroken line\n");
    EXPECT_THROW(readEdgeList(in), FatalError);
}

TEST(GraphIoTest, EmptyEdgeListFails)
{
    std::istringstream in("# nothing\n");
    EXPECT_THROW(readEdgeList(in), FatalError);
}

TEST(GraphIoTest, ReadsMatrixMarket)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "% comment\n"
        "3 3 4\n"
        "1 2\n"
        "2 3\n"
        "3 1\n"
        "1 3\n");
    Graph g = readMatrixMarket(in);
    EXPECT_EQ(g.num_nodes, 3u);
    EXPECT_EQ(g.num_edges, 4u);
    EXPECT_EQ(g.degree(0), 2u);   // 1-based converted
}

TEST(GraphIoTest, TruncatedMatrixMarketFails)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "3 3 4\n"
        "1 2\n");
    EXPECT_THROW(readMatrixMarket(in), FatalError);
}

TEST(GraphIoTest, EdgeListRoundTrip)
{
    GraphScale s;
    s.nodes = 256;
    s.avg_degree = 4;
    Graph g = makeGraph(GraphInput::Ur, s);
    std::stringstream buf;
    writeEdgeList(buf, g);
    Graph h = readEdgeList(buf);
    EXPECT_EQ(h.num_edges, g.num_edges);
    EXPECT_EQ(h.offsets, g.offsets);
    EXPECT_EQ(h.edges, g.edges);
}

TEST(GraphIoTest, MissingFileFails)
{
    EXPECT_THROW(loadGraph("/nonexistent/graph.el"), FatalError);
}

TEST(GraphIoTest, FileSpecRunsKernelOnLoadedGraph)
{
    // Write a small graph to a temp file and run bfs on it end to end.
    GraphScale s;
    s.nodes = 1024;
    s.avg_degree = 8;
    Graph g = makeGraph(GraphInput::Kron, s);
    std::string path = ::testing::TempDir() + "/vrsim_graph_test.el";
    {
        std::ofstream out(path);
        writeEdgeList(out, g);
    }
    SimResult r = simulate({.spec = "bfs/file:" + path,
                            .technique = Technique::Dvr,
                            .cfg = SystemConfig::benchScale(),
                            .max_insts = 10000});
    std::remove(path.c_str());
    ASSERT_TRUE(r.ok()) << r.status_message;
    EXPECT_GT(r.core.instructions, 1000u);
    EXPECT_GT(r.ipc(), 0.0);
}

} // namespace
} // namespace vrsim
