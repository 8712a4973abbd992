/**
 * @file
 * Quickstart: run one workload (the paper's Figure 1 hash-chain,
 * "camel") on the baseline OoO core and on Decoupled Vector Runahead,
 * and print the headline comparison. This is the 20-line tour of the
 * public API: pick a workload, pick a technique, run, read stats.
 */

#include <iostream>

#include "driver/simulation.hh"

using namespace vrsim;

int
main()
{
    SystemConfig cfg = SystemConfig::benchScale();
    HpcDbScale scale;            // ~64K-element tables

    std::cout << "vrsim quickstart: camel (Fig. 1 indirect chain)\n\n";
    printConfig(std::cout, cfg);
    std::cout << "\n";

    RunPoint p{.spec = "camel", .cfg = cfg, .hscale = scale,
               .max_insts = 100'000};
    SimResult ooo = simulate(p);
    p.technique = Technique::Dvr;
    SimResult dvr = simulate(p);
    // A run that fails says so in its status; simulate() never throws.
    if (!ooo.ok() || !dvr.ok()) {
        std::cerr << (ooo.ok() ? dvr : ooo).status_message << "\n";
        return 1;
    }

    std::cout << "OoO  IPC: " << ooo.ipc() << "  (L1 hit rate "
              << 100.0 * ooo.mem.demand_l1_hits /
                     std::max<uint64_t>(1, ooo.mem.demand_accesses)
              << "%)\n";
    std::cout << "DVR  IPC: " << dvr.ipc() << "  (L1 hit rate "
              << 100.0 * dvr.mem.demand_l1_hits /
                     std::max<uint64_t>(1, dvr.mem.demand_accesses)
              << "%)\n";
    std::cout << "speedup : " << dvr.ipc() / ooo.ipc() << "x\n";
    if (dvr.dvr) {
        std::cout << "DVR spawned " << dvr.dvr->spawns
                  << " subthreads, " << dvr.dvr->lanes_spawned
                  << " lanes, issued " << dvr.dvr->prefetches
                  << " prefetches\n";
    }
    return 0;
}
