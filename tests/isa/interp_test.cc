/**
 * @file
 * Unit tests for the µop ISA: encoding, builder labels, functional
 * semantics of every opcode, and speculative-execution rules.
 */

#include <gtest/gtest.h>

#include "isa/interp.hh"

namespace vrsim
{
namespace
{

class InterpTest : public ::testing::Test
{
  protected:
    MemoryImage mem;
    CpuState st;

    uint64_t
    runProg(Program p, uint64_t limit = 10000)
    {
        return fastForward(p, st, mem, limit);
    }
};

TEST_F(InterpTest, MoviAndAluOps)
{
    ProgramBuilder b("alu");
    b.movi(1, 21);
    b.movi(2, 2);
    b.mul(3, 1, 2);      // 42
    b.addi(4, 3, -2);    // 40
    b.sub(5, 3, 4);      // 2
    b.shl(6, 5, 2);      // wait: shl uses reg source
    b.halt();
    Program p = b.build();
    runProg(p);
    EXPECT_EQ(st.regs[3], 42u);
    EXPECT_EQ(st.regs[4], 40u);
    EXPECT_EQ(st.regs[5], 2u);
    EXPECT_EQ(st.regs[6], 2u << 2);
    EXPECT_TRUE(st.halted);
}

TEST_F(InterpTest, ImmediateAluVariants)
{
    ProgramBuilder b("imm");
    b.movi(1, 10);
    b.muli(2, 1, 6);     // 60
    b.andi(3, 2, 0x1C);  // 0x3C & 0x1C = 0x1C
    b.shli(4, 1, 3);     // 80
    b.shri(5, 4, 2);     // 20
    b.halt();
    runProg(b.build());
    EXPECT_EQ(st.regs[2], 60u);
    EXPECT_EQ(st.regs[3], 0x1Cu);
    EXPECT_EQ(st.regs[4], 80u);
    EXPECT_EQ(st.regs[5], 20u);
}

TEST_F(InterpTest, DivideByZeroSaturates)
{
    ProgramBuilder b("div0");
    b.movi(1, 100);
    b.movi(2, 0);
    b.divu(3, 1, 2);
    b.halt();
    runProg(b.build());
    EXPECT_EQ(st.regs[3], ~0ull);
}

TEST_F(InterpTest, HashMatchesHelper)
{
    ProgramBuilder b("hash");
    b.movi(1, 0x1234);
    b.hash(2, 1);
    b.hash(3, 1, 7);
    b.halt();
    runProg(b.build());
    EXPECT_EQ(st.regs[2], hashMix64(0x1234));
    EXPECT_EQ(st.regs[3], hashMix64(0x1234 ^ 7));
}

TEST_F(InterpTest, CompareSemantics)
{
    ProgramBuilder b("cmp");
    b.movi(1, -5);
    b.movi(2, 3);
    b.cmplt(3, 1, 2);    // signed: -5 < 3 -> 1
    b.cmpltu(4, 1, 2);   // unsigned: huge < 3 -> 0
    b.cmpeq(5, 1, 1);
    b.cmpne(6, 1, 2);
    b.cmplti(7, 1, 0);   // -5 < 0 -> 1
    b.cmpeqi(8, 2, 4);
    b.halt();
    runProg(b.build());
    EXPECT_EQ(st.regs[3], 1u);
    EXPECT_EQ(st.regs[4], 0u);
    EXPECT_EQ(st.regs[5], 1u);
    EXPECT_EQ(st.regs[6], 1u);
    EXPECT_EQ(st.regs[7], 1u);
    EXPECT_EQ(st.regs[8], 0u);
}

TEST_F(InterpTest, LoopWithBackwardBranch)
{
    // sum = 0; for (i = 0; i < 10; i++) sum += i;
    ProgramBuilder b("loop");
    b.movi(1, 0);        // i
    b.movi(2, 0);        // sum
    b.movi(3, 10);       // bound
    auto top = b.here();
    b.add(2, 2, 1);
    b.addi(1, 1, 1);
    b.cmpltu(4, 1, 3);
    b.br(4, top);
    b.halt();
    uint64_t n = runProg(b.build());
    EXPECT_EQ(st.regs[2], 45u);
    EXPECT_EQ(n, 3u + 10 * 4 + 1);
}

TEST_F(InterpTest, ForwardLabelResolution)
{
    ProgramBuilder b("fwd");
    auto out = b.makeLabel();
    b.movi(1, 1);
    b.br(1, out);
    b.movi(2, 99);       // skipped
    b.bind(out);
    b.movi(3, 7);
    b.halt();
    runProg(b.build());
    EXPECT_EQ(st.regs[2], 0u);
    EXPECT_EQ(st.regs[3], 7u);
}

TEST_F(InterpTest, LoadStoreRoundTrip)
{
    mem.write64(0x1000, 0xDEADBEEF);
    ProgramBuilder b("mem");
    b.movi(1, 0x1000);
    b.ld(2, 1);                       // r2 = mem[0x1000]
    b.addi(3, 2, 1);
    b.st(3, 1, REG_NONE, 1, 8);       // mem[0x1008] = r3
    b.ld(4, 1, REG_NONE, 1, 8);
    b.halt();
    runProg(b.build());
    EXPECT_EQ(st.regs[2], 0xDEADBEEFull);
    EXPECT_EQ(st.regs[4], 0xDEADBEF0ull);
    EXPECT_EQ(mem.read64(0x1008), 0xDEADBEF0ull);
}

TEST_F(InterpTest, ScaledIndexedAddressing)
{
    for (uint64_t i = 0; i < 8; i++)
        mem.write64(0x2000 + i * 8, i * 100);
    ProgramBuilder b("idx");
    b.movi(1, 0x2000);
    b.movi(2, 5);
    b.ld(3, 1, 2, 8);                 // mem[0x2000 + 5*8]
    b.ld32(4, 1, 2, 8);               // low half only
    b.halt();
    runProg(b.build());
    EXPECT_EQ(st.regs[3], 500u);
    EXPECT_EQ(st.regs[4], 500u);
}

TEST_F(InterpTest, Load32ZeroExtends)
{
    mem.write64(0x3000, 0xFFFFFFFF12345678ull);
    ProgramBuilder b("ld32");
    b.movi(1, 0x3000);
    b.ld32(2, 1);
    b.halt();
    runProg(b.build());
    EXPECT_EQ(st.regs[2], 0x12345678ull);
}

TEST_F(InterpTest, SpeculativeStoresSuppressed)
{
    ProgramBuilder b("spec");
    b.movi(1, 0x4000);
    b.movi(2, 77);
    b.st(2, 1);
    b.halt();
    Program p = b.build();
    while (!st.halted)
        step(p, st, mem, true);       // speculative
    EXPECT_EQ(mem.read64(0x4000), 0u);
}

TEST_F(InterpTest, FloatingPointBitcastOps)
{
    mem.writeF64(0x5000, 1.5);
    mem.writeF64(0x5008, 2.25);
    ProgramBuilder b("fp");
    b.movi(1, 0x5000);
    b.ld(2, 1);
    b.ld(3, 1, REG_NONE, 1, 8);
    b.fadd(4, 2, 3);
    b.fmul(5, 2, 3);
    b.fdiv(6, 3, 2);
    b.movi(7, 0x5010);
    b.st(4, 7);
    b.halt();
    runProg(b.build());
    EXPECT_DOUBLE_EQ(mem.readF64(0x5010), 3.75);
}

TEST_F(InterpTest, StepInfoReportsMemAndBranch)
{
    mem.write64(0x6000, 5);
    ProgramBuilder b("info");
    b.movi(1, 0x6000);
    b.ld(2, 1);
    b.cmpeqi(3, 2, 5);
    auto dest = b.makeLabel();
    b.br(3, dest);
    b.nop();
    b.bind(dest);
    b.halt();
    Program p = b.build();

    StepInfo s0 = step(p, st, mem);
    EXPECT_FALSE(s0.is_mem);
    StepInfo s1 = step(p, st, mem);
    EXPECT_TRUE(s1.is_mem);
    EXPECT_FALSE(s1.is_store);
    EXPECT_EQ(s1.addr, 0x6000u);
    EXPECT_EQ(s1.size, 8u);
    EXPECT_EQ(s1.dst_value, 5u);
    step(p, st, mem);                 // cmp
    StepInfo s3 = step(p, st, mem);
    EXPECT_TRUE(s3.is_branch);
    EXPECT_TRUE(s3.taken);
    EXPECT_EQ(s3.next_pc, 5u);
}

TEST_F(InterpTest, HaltStopsRun)
{
    ProgramBuilder b("halt");
    b.halt();
    b.movi(1, 1);
    uint64_t n = runProg(b.build());
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(st.regs[1], 0u);
    EXPECT_TRUE(st.halted);
}

TEST_F(InterpTest, RunRespectsInstLimit)
{
    ProgramBuilder b("inf");
    auto top = b.here();
    b.addi(1, 1, 1);
    b.jmp(top);
    uint64_t n = runProg(b.build(), 100);
    EXPECT_EQ(n, 100u);
    EXPECT_FALSE(st.halted);
}

TEST_F(InterpTest, DisassemblyIsReadable)
{
    ProgramBuilder b("dis");
    b.ld(2, 1, 3, 8, 16);
    b.st(4, 1, REG_NONE, 1, 8);
    b.movi(1, 5);
    Program p = b.build();
    EXPECT_NE(p.at(0).toString().find("ld"), std::string::npos);
    EXPECT_NE(p.at(0).toString().find("r2"), std::string::npos);
    EXPECT_NE(p.at(1).toString().find("->"), std::string::npos);
}

TEST_F(InterpTest, PanicOnPcOutOfRange)
{
    ProgramBuilder b("oob");
    b.movi(1, 1);
    Program p = b.build();
    st.pc = 5;
    EXPECT_THROW(step(p, st, mem), PanicError);
}

TEST_F(InterpTest, UnboundLabelPanicsAtBuild)
{
    ProgramBuilder b("unbound");
    auto l = b.makeLabel();
    b.jmp(l);
    EXPECT_THROW(b.build(), PanicError);
}

TEST_F(InterpTest, EffectiveAddressHelper)
{
    Inst ld{Op::Ld, 2, 1, 3, REG_NONE, 8, 24};
    std::array<uint64_t, NUM_ARCH_REGS> regs{};
    regs[1] = 0x1000;
    regs[3] = 4;
    auto rd = [&](uint8_t r) { return regs[r]; };
    EXPECT_EQ(effectiveAddress(ld, rd), 0x1000u + 4 * 8 + 24);
}

} // namespace
} // namespace vrsim
