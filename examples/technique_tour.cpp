/**
 * @file
 * Technique tour: run one workload under every technique and print
 * the full per-run report (stall breakdown, memory behaviour, engine
 * statistics). The best starting point for understanding *why* each
 * technique wins or loses on a given kernel.
 *
 * Usage: technique_tour [workload-spec]   (default: sssp/KR)
 */

#include <iostream>

#include "driver/report.hh"
#include "driver/simulation.hh"

using namespace vrsim;

int
main(int argc, char **argv)
{
    std::string spec = argc > 1 ? argv[1] : "sssp/KR";
    SystemConfig cfg = SystemConfig::benchScale();
    GraphScale gs;
    gs.nodes = 1 << 14;
    HpcDbScale hs;
    hs.elements = 1 << 16;

    const Technique techs[] = {Technique::OoO, Technique::Pre,
                               Technique::Imp, Technique::Vr,
                               Technique::Dvr, Technique::Oracle};
    double base = 0;
    for (Technique t : techs) {
        SimResult r = simulate({.spec = spec, .technique = t, .cfg = cfg,
                                .gscale = gs, .hscale = hs,
                                .max_insts = 100'000});
        if (!r.ok()) {
            std::cerr << r.status_message << "\n";
            return 1;
        }
        if (t == Technique::OoO)
            base = r.ipc();
        printReport(std::cout, r, cfg);
        if (t != Technique::OoO)
            std::printf("\nspeedup over OoO: %.2fx\n",
                        r.ipc() / base);
        std::cout << "\n" << std::string(60, '-') << "\n\n";
    }
    return 0;
}
