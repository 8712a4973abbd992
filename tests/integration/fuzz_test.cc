/**
 * @file
 * Randomized stress tests: generate random (but well-formed) µop
 * programs and run them under every technique. The timing model must
 * never panic, must respect the dynamic-instruction budget, and must
 * leave the architectural memory image bit-identical to a pure
 * functional run — for every engine, since runahead is transient.
 */

#include <gtest/gtest.h>

#include "driver/simulation.hh"
#include "sim/rng.hh"

namespace vrsim
{
namespace
{

/** Generate a random structured program: nested loops over arrays
 *  with random ALU ops, loads, stores and data-dependent branches. */
Workload
randomWorkload(uint64_t seed)
{
    Rng rng(seed);
    Workload w;
    w.name = "fuzz-" + std::to_string(seed);
    Layout lay;

    const uint64_t n = 4096;
    std::vector<uint64_t> data(n);
    for (auto &v : data)
        v = rng.next();
    uint64_t arr_a = lay.put64(w.image, data);
    for (auto &v : data)
        v = rng.below(n);
    uint64_t arr_b = lay.put64(w.image, data);
    uint64_t arr_c = lay.alloc(n * 8);

    constexpr uint8_t RI = 1, RA = 2, RB = 3, RC = 4, RN = 5,
                      RCND = 6;
    // Scratch registers 8..15.
    auto scratch = [&rng]() { return uint8_t(8 + rng.below(8)); };

    ProgramBuilder b(w.name);
    auto top = b.here();
    // Always make forward progress and keep addresses in range.
    b.ld(8, RA, RI, 8);               // striding load
    uint32_t body = 3 + uint32_t(rng.below(12));
    for (uint32_t k = 0; k < body; k++) {
        switch (rng.below(8)) {
          case 0:
            b.add(scratch(), scratch(), scratch());
            break;
          case 1:
            b.xor_(scratch(), scratch(), scratch());
            break;
          case 2:
            b.muli(scratch(), scratch(), int64_t(rng.below(64)) + 1);
            break;
          case 3: {
            uint8_t idx = scratch();
            b.andi(idx, idx, int64_t(n - 1));
            b.ld(scratch(), RB, idx, 8);   // indirect load
            break;
          }
          case 4: {
            uint8_t idx = scratch();
            b.andi(idx, idx, int64_t(n - 1));
            b.st(scratch(), RC, idx, 8);   // indirect store
            break;
          }
          case 5: {
            // Forward data-dependent branch over the next op.
            uint8_t c = scratch();
            b.andi(c, c, 1);
            auto skip = b.makeLabel();
            b.br(c, skip);
            b.addi(scratch(), scratch(), 1);
            b.bind(skip);
            break;
          }
          case 6:
            b.hashSeq(scratch(), scratch(), scratch(),
                      int64_t(rng.below(16)));
            break;
          default:
            b.shri(scratch(), scratch(), int64_t(rng.below(8)));
            break;
        }
    }
    b.addi(RI, RI, 1);
    b.cmpltu(RCND, RI, RN);
    b.br(RCND, top);
    b.halt();
    w.prog = b.build();

    w.init.regs[RA] = arr_a;
    w.init.regs[RB] = arr_b;
    w.init.regs[RC] = arr_c;
    w.init.regs[RN] = n;
    return w;
}

class FuzzProgram : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FuzzProgram, AllTechniquesRunAndPreserveArchitecture)
{
    const uint64_t seed = GetParam();
    SystemConfig cfg = SystemConfig::benchScale();
    // Fuzz under the full guardrail set: a generous-but-finite
    // watchdog (these runs take well under 10^6 cycles) plus the
    // always-on invariant checks, so a wedge or corrupted counter in
    // any engine turns into a structured failure instead of a timeout.
    cfg.watchdog_cycles = 2'000'000;
    cfg.invariant_checks = true;
    const uint64_t budget = 20000;

    // Reference: pure functional execution of the same budget.
    Workload ref = randomWorkload(seed);
    CpuState st = ref.init;
    run(ref.prog, st, ref.image, budget);

    for (Technique t : {Technique::OoO, Technique::Pre, Technique::Vr,
                        Technique::Dvr, Technique::Oracle}) {
        Workload w = randomWorkload(seed);
        SimResult r =
            simulate({.technique = t, .cfg = cfg, .max_insts = budget}, w);
        ASSERT_TRUE(r.ok()) << "seed " << seed << " " << techniqueName(t)
                            << ": " << r.status_message;
        EXPECT_LE(r.core.instructions, budget);
        EXPECT_GT(r.core.cycles, 0u);
        // Architectural equivalence: sample the store target array.
        uint64_t arr_c = w.init.regs[4];
        for (uint64_t off = 0; off < 4096 * 8; off += 248) {
            ASSERT_EQ(w.image.read64(arr_c + off),
                      ref.image.read64(arr_c + off))
                << "seed " << seed << " " << techniqueName(t)
                << " @" << off;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzProgram,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u,
                                           21u, 34u, 55u, 89u));

} // namespace
} // namespace vrsim
