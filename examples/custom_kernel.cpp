/**
 * @file
 * Custom-kernel example: build your own µop program with
 * ProgramBuilder, lay out its data with Layout, wrap it in a
 * Workload, and measure it under any technique. The kernel here is a
 * two-level "B[A[i]]" gather reduction — the smallest program DVR's
 * Discovery Mode can profit from.
 */

#include <iostream>

#include "driver/simulation.hh"

using namespace vrsim;

int
main()
{
    // --- 1. data layout ---
    Workload w;
    w.name = "custom-gather";
    Layout lay;
    const uint64_t n = 1 << 16;
    Rng rng(123);
    std::vector<uint64_t> idx(n), data(n);
    for (uint64_t i = 0; i < n; i++) {
        idx[i] = rng.below(n);
        data[i] = rng.next();
    }
    uint64_t idx_base = lay.put64(w.image, idx);
    uint64_t data_base = lay.put64(w.image, data);

    // --- 2. the µop program ---
    // for (i = 0; i < n; i++) sum += data[idx[i]];
    constexpr uint8_t R_IDX = 1, R_DATA = 2, R_I = 3, R_N = 4,
                      R_T = 5, R_SUM = 6, R_C = 7;
    ProgramBuilder b(w.name);
    auto top = b.here();
    b.ld(R_T, R_IDX, R_I, 8);      // t = idx[i]      (striding)
    b.ld(R_T, R_DATA, R_T, 8);     // t = data[t]     (indirect)
    b.add(R_SUM, R_SUM, R_T);
    b.addi(R_I, R_I, 1);
    b.cmpltu(R_C, R_I, R_N);
    b.br(R_C, top);
    b.halt();
    w.prog = b.build();

    // --- 3. initial registers ---
    w.init.regs[R_IDX] = idx_base;
    w.init.regs[R_DATA] = data_base;
    w.init.regs[R_N] = n;

    // --- 4. verify the kernel functionally first ---
    {
        MemoryImage img_copy = w.image;
        CpuState st = w.init;
        run(w.prog, st, img_copy);
        uint64_t expect = 0;
        for (uint64_t i = 0; i < n; i++)
            expect += data[idx[i]];
        std::cout << "functional check: "
                  << (st.regs[R_SUM] == expect ? "OK" : "MISMATCH")
                  << "\n";
    }

    // --- 5. measure ---
    SystemConfig cfg = SystemConfig::benchScale();
    for (Technique t : {Technique::OoO, Technique::Vr, Technique::Dvr,
                        Technique::Oracle}) {
        Workload wr = w;   // fresh copy: stores mutate the image
        SimResult r = simulate(
            {.technique = t, .cfg = cfg, .max_insts = 100'000}, wr);
        if (!r.ok()) {
            std::cerr << r.status_message << "\n";
            return 1;
        }
        std::printf("%-8s IPC %.3f  MLP %.1f\n",
                    techniqueName(t).c_str(), r.ipc(), r.mlp);
    }
    return 0;
}
