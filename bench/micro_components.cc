/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own hot
 * components: interpreter throughput, branch predictor, graph
 * generation, and one end-to-end DVR run — useful for keeping the
 * simulator fast enough for the paper-scale sweeps.
 */

#include <benchmark/benchmark.h>

#include "driver/simulation.hh"
#include "frontend/branch_predictor.hh"
#include "sim/rng.hh"
#include "workloads/workload_cache.hh"

using namespace vrsim;

namespace
{

void
BM_InterpreterLoop(benchmark::State &state)
{
    ProgramBuilder b("loop");
    b.movi(1, 0);
    b.movi(3, 1u << 20);
    auto top = b.here();
    b.addi(1, 1, 1);
    b.cmpltu(4, 1, 3);
    b.br(4, top);
    b.halt();
    Program p = b.build();
    MemoryImage mem;
    for (auto _ : state) {
        CpuState st;
        benchmark::DoNotOptimize(run(p, st, mem, 100'000));
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 100'000);
}
BENCHMARK(BM_InterpreterLoop);

void
BM_BranchPredictor(benchmark::State &state)
{
    BranchPredictor bp;
    Rng rng(2);
    for (auto _ : state) {
        uint64_t pc = 16 + rng.below(64);
        bool taken = (rng.next() & 7) != 0;
        benchmark::DoNotOptimize(bp.predict(pc));
        bp.update(pc, taken);
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_BranchPredictor);

void
BM_KroneckerGeneration(benchmark::State &state)
{
    GraphScale scale;
    scale.nodes = 1 << 12;
    for (auto _ : state) {
        Graph g = makeGraph(GraphInput::Kron, scale);
        benchmark::DoNotOptimize(g.num_edges);
    }
}
BENCHMARK(BM_KroneckerGeneration);

void
BM_WorkloadBuild(benchmark::State &state)
{
    HpcDbScale hs;
    hs.elements = 1 << 14;
    for (auto _ : state) {
        Workload w = makeWorkload("kangaroo", GraphScale{}, hs);
        benchmark::DoNotOptimize(w.image);
    }
}
BENCHMARK(BM_WorkloadBuild);

void
BM_WorkloadInstantiate(benchmark::State &state)
{
    // The per-run cost a sweep pays after the one-time build: copying
    // the cached artifact's memory image. Compare with
    // BM_WorkloadBuild to see what the cache saves per grid point.
    WorkloadCache cache;
    HpcDbScale hs;
    hs.elements = 1 << 14;
    cache.artifact("kangaroo", GraphScale{}, hs);
    for (auto _ : state) {
        Workload w = cache.instantiate("kangaroo", GraphScale{}, hs);
        benchmark::DoNotOptimize(w.image);
    }
}
BENCHMARK(BM_WorkloadInstantiate);

void
BM_EndToEndDvr(benchmark::State &state)
{
    const RunPoint p{.spec = "kangaroo", .technique = Technique::Dvr,
                     .cfg = SystemConfig::benchScale(),
                     .hscale = {.elements = 1 << 14}, .max_insts = 20'000};
    WorkloadCache cache;
    for (auto _ : state) {
        SimResult r = simulate(p, cache);
        if (!r.ok()) {
            state.SkipWithError(r.status_message.c_str());
            break;
        }
        benchmark::DoNotOptimize(r.core.cycles);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 20'000);
}
BENCHMARK(BM_EndToEndDvr);

} // namespace

BENCHMARK_MAIN();
