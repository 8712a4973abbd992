/**
 * @file
 * Graph-analytics example: breadth-first search (the paper's
 * Algorithm 1) on a power-law Kronecker graph and a uniform-random
 * graph, comparing all techniques. Shows the scenario the paper's
 * motivation centres on: short, data-dependent inner loops where
 * VR over-fetches but DVR's Discovery + Nested modes pay off.
 */

#include <iostream>

#include "driver/simulation.hh"

using namespace vrsim;

int
main()
{
    SystemConfig cfg = SystemConfig::benchScale();
    GraphScale gs;
    gs.nodes = 1 << 14;
    gs.avg_degree = 16;

    const Technique techs[] = {Technique::OoO, Technique::Pre,
                               Technique::Imp, Technique::Vr,
                               Technique::Dvr, Technique::Oracle};

    for (const char *spec : {"bfs/KR", "bfs/UR"}) {
        std::cout << "== " << spec << " ==\n";
        double base = 0;
        for (Technique t : techs) {
            SimResult r = simulate({.spec = spec, .technique = t,
                                    .cfg = cfg, .gscale = gs,
                                    .max_insts = 120'000});
            if (!r.ok()) {
                std::cerr << r.status_message << "\n";
                return 1;
            }
            if (t == Technique::OoO)
                base = r.ipc();
            std::printf("%-8s IPC %-8.3f speedup %-6.2f MLP %-6.2f "
                        "DRAM %llu\n",
                        techniqueName(t).c_str(), r.ipc(),
                        r.ipc() / base, r.mlp,
                        (unsigned long long)r.mem.dramTotal());
            if (t == Technique::Dvr && r.dvr) {
                std::printf("         discovery: %llu entered, "
                            "%llu aborted; %llu spawns "
                            "(%llu nested), mean lanes %.1f\n",
                            (unsigned long long)r.dvr->discoveries,
                            (unsigned long long)r.dvr->discovery_aborts,
                            (unsigned long long)r.dvr->spawns,
                            (unsigned long long)r.dvr->nested_spawns,
                            r.dvr->meanLanes());
            }
        }
        std::cout << "\n";
    }
    return 0;
}
