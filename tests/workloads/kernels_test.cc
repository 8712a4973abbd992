/**
 * @file
 * Functional tests for the benchmark kernels: each workload's µop
 * program is executed to completion on the interpreter and its
 * architectural effects are checked against a C++ reference.
 */

#include <gtest/gtest.h>

#include "workloads/workload.hh"

namespace vrsim
{
namespace
{

GraphScale
smallGraph()
{
    GraphScale s;
    s.nodes = 1 << 10;
    s.avg_degree = 8;
    return s;
}

HpcDbScale
smallHpc()
{
    HpcDbScale s;
    s.elements = 1 << 12;
    return s;
}

/** Run a workload's program to completion functionally. */
uint64_t
runToHalt(Workload &w, uint64_t limit = 50'000'000)
{
    CpuState st = w.init;
    uint64_t n = fastForward(w.prog, st, w.image, limit);
    EXPECT_TRUE(st.halted) << w.name << " did not halt";
    return n;
}

TEST(KernelsTest, AllWorkloadsBuildAndHaveWork)
{
    for (const auto &spec : {"bfs/KR", "pr/UR", "cc/TW", "sssp/LJN",
                             "bc/ORK", "camel", "graph500", "hj2",
                             "hj8", "kangaroo", "nas-cg", "nas-is",
                             "randomaccess"}) {
        Workload w = makeWorkload(spec, smallGraph(), smallHpc());
        EXPECT_GT(w.prog.size(), 5u) << spec;
        uint64_t n = runToHalt(w);
        EXPECT_GT(n, 1000u) << spec << " does too little work";
    }
}

TEST(KernelsTest, UnknownSpecFails)
{
    EXPECT_THROW(makeWorkload("nope", smallGraph(), smallHpc()),
                 FatalError);
    EXPECT_THROW(makeWorkload("bfs/XX", smallGraph(), smallHpc()),
                 FatalError);
    EXPECT_THROW(makeWorkload("dfs/KR", smallGraph(), smallHpc()),
                 FatalError);
}

TEST(KernelsTest, BfsVisitsReachableVertices)
{
    GraphScale s = smallGraph();
    Workload w = makeWorkload("bfs/KR", s, {});
    // Copy the roots and graph out of the image before running.
    uint64_t visited_base = w.init.regs[6];
    runToHalt(w);
    // After completion, every worklist entry must be marked visited
    // and at least the seeds are set.
    uint64_t marked = 0;
    for (uint64_t v = 0; v < s.nodes; v++)
        if (w.image.read64(visited_base + v * 8))
            ++marked;
    EXPECT_GE(marked, 8u);
}

TEST(KernelsTest, CamelMatchesReferenceCounts)
{
    HpcDbScale s = smallHpc();
    Workload w = makeCamel(s);
    // Reference: replay the chain on a copy of the initial image.
    MemoryImage ref = w.image;
    const uint64_t n = s.elements;
    uint64_t a = w.init.regs[1], b = w.init.regs[2],
             c = w.init.regs[3];
    for (uint64_t i = 0; i < n; i++) {
        uint64_t x = ref.read64(a + i * 8);
        uint64_t h1 = hashMix64(x) & (n - 1);
        uint64_t y = ref.read64(b + h1 * 8);
        uint64_t h2 = hashMix64(y ^ 1) & (n - 1);
        ref.write64(c + h2 * 8, ref.read64(c + h2 * 8) + 1);
    }
    runToHalt(w);
    for (uint64_t i = 0; i < n; i += 97)
        ASSERT_EQ(w.image.read64(c + i * 8), ref.read64(c + i * 8))
            << "C[" << i << "]";
}

TEST(KernelsTest, NasIsCountsEveryKey)
{
    HpcDbScale s = smallHpc();
    Workload w = makeNasIs(s);
    uint64_t keys = w.init.regs[1];
    uint64_t counts = w.init.regs[2];
    MemoryImage before = w.image;
    runToHalt(w);
    // Sum of counts equals the number of keys.
    uint64_t total = 0;
    for (uint64_t bkt = 0; bkt < s.elements / 2; bkt++)
        total += w.image.read64(counts + bkt * 8);
    EXPECT_EQ(total, s.elements);
    // Spot-check one key's bucket grew.
    uint64_t k0 = before.read64(keys);
    EXPECT_GE(w.image.read64(counts + k0 * 8), 1u);
}

TEST(KernelsTest, RandomAccessXorsTable)
{
    HpcDbScale s = smallHpc();
    Workload w = makeRandomAccess(s);
    uint64_t ran = w.init.regs[1];
    uint64_t table = w.init.regs[2];
    MemoryImage ref = w.image;
    uint64_t tmask = 1;
    while (tmask * 2 <= s.elements)
        tmask *= 2;
    for (uint64_t i = 0; i < s.elements; i++) {
        uint64_t r = ref.read64(ran + i * 8);
        uint64_t idx = r & (tmask - 1);
        ref.write64(table + idx * 8,
                    ref.read64(table + idx * 8) ^ r);
    }
    runToHalt(w);
    for (uint64_t i = 0; i < tmask; i += 61)
        ASSERT_EQ(w.image.read64(table + i * 8),
                  ref.read64(table + i * 8));
}

TEST(KernelsTest, HashJoinProbesFindTheirTuples)
{
    HpcDbScale s = smallHpc();
    Workload w = makeHashJoin(2, s);
    // Every probe key exists in the table, so the sum register must
    // accumulate s.elements payloads; payload = key ^ golden.
    CpuState st = w.init;
    fastForward(w.prog, st, w.image, 100'000'000);
    ASSERT_TRUE(st.halted);
    // Recompute the expected sum.
    uint64_t probes = w.init.regs[1];
    uint64_t expect = 0;
    for (uint64_t i = 0; i < s.elements; i++) {
        uint64_t key = w.image.read64(probes + i * 8);
        expect += key ^ 0x9E3779B97F4A7C15ull;
    }
    EXPECT_EQ(st.regs[12], expect);   // R_SUM
}

TEST(KernelsTest, SsspRelaxesDistances)
{
    GraphScale s = smallGraph();
    Workload w = makeWorkload("sssp/UR", s, {});
    uint64_t dist = w.init.regs[6];
    runToHalt(w, 100'000'000);
    uint64_t finite = 0;
    for (uint64_t v = 0; v < s.nodes; v++)
        if (w.image.read64(dist + v * 8) < UINT32_MAX)
            ++finite;
    // Uniform graph with 8 sources: most vertices reachable.
    EXPECT_GT(finite, s.nodes / 2);
}

TEST(KernelsTest, PageRankWritesRanks)
{
    GraphScale s = smallGraph();
    Workload w = makeWorkload("pr/KR", s, {});
    uint64_t rank_new = w.init.regs[15];
    runToHalt(w);
    uint64_t nonzero = 0;
    for (uint64_t v = 0; v < s.nodes; v++)
        if (w.image.readF64(rank_new + v * 8) > 0.0)
            ++nonzero;
    EXPECT_GT(nonzero, s.nodes / 4);
}

TEST(KernelsTest, CcHooksComponents)
{
    GraphScale s = smallGraph();
    Workload w = makeWorkload("cc/UR", s, {});
    uint64_t comp = w.init.regs[6];
    runToHalt(w);
    // After one hooking pass, many vertices point below themselves.
    uint64_t hooked = 0;
    for (uint64_t v = 0; v < s.nodes; v++)
        if (w.image.read64(comp + v * 8) < v)
            ++hooked;
    EXPECT_GT(hooked, s.nodes / 4);
}

TEST(KernelsTest, NasCgComputesSpmv)
{
    HpcDbScale s;
    s.elements = 1 << 10;
    Workload w = makeNasCg(s);
    uint64_t y = w.init.regs[15];
    runToHalt(w, 100'000'000);
    uint64_t nonzero = 0;
    const uint64_t rows = std::max<uint64_t>(4096, s.elements * 2);
    for (uint64_t r = 0; r < rows; r += 7)
        if (w.image.readF64(y + r * 8) != 0.0)
            ++nonzero;
    EXPECT_GT(nonzero, rows / 14);
}

TEST(KernelsTest, SuggestedRoiIsReasonable)
{
    Workload w = makeCamel(smallHpc());
    EXPECT_GE(w.suggested_insts, 100'000u);
}

TEST(KernelsTest, NameListsAreComplete)
{
    EXPECT_EQ(gapKernelNames().size(), 5u);
    EXPECT_EQ(hpcDbNames().size(), 8u);
}

} // namespace
} // namespace vrsim
