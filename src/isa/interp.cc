#include "isa/interp.hh"

namespace vrsim
{

uint64_t
fastForward(const Program &prog, CpuState &state, MemoryImage &mem,
            uint64_t max_insts, StateDigest *digest)
{
    uint64_t count = 0;
    if (!digest) {
        // The hot path: nothing but the inlined stepper.
        while (!state.halted && count < max_insts) {
            step(prog, state, mem);
            ++count;
        }
        return count;
    }
    while (!state.halted && count < max_insts) {
        StepInfo si = step(prog, state, mem);
        ++count;
        digest->retire(commitRecordOf(si));
    }
    return count;
}

} // namespace vrsim
