/**
 * @file
 * Database example: hash-join probe with short (HJ2) and long (HJ8)
 * bucket chains. Longer chains mean more levels of pointer chasing
 * per probe — more latency to hide, and more benefit from vectorized
 * runahead across many independent probes.
 */

#include <cstdlib>
#include <iostream>

#include "driver/simulation.hh"

using namespace vrsim;

int
main()
{
    SystemConfig cfg = SystemConfig::benchScale();
    HpcDbScale hs;
    hs.elements = 1 << 16;

    for (const char *spec : {"hj2", "hj8"}) {
        std::cout << "== " << spec << " (hash-join probe) ==\n";
        auto run = [&](Technique t) {
            SimResult r = simulate({.spec = spec, .technique = t,
                                    .cfg = cfg, .hscale = hs,
                                    .max_insts = 120'000});
            if (!r.ok()) {
                std::cerr << r.status_message << "\n";
                std::exit(1);
            }
            return r;
        };
        SimResult ooo = run(Technique::OoO);
        SimResult vr = run(Technique::Vr);
        SimResult dvr = run(Technique::Dvr);
        std::printf("OoO IPC %.3f | VR %.2fx | DVR %.2fx | "
                    "MLP %.1f -> %.1f\n\n",
                    ooo.ipc(), vr.ipc() / ooo.ipc(),
                    dvr.ipc() / ooo.ipc(), ooo.mlp, dvr.mlp);
    }
    return 0;
}
