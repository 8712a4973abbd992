/**
 * @file
 * Parameterized property tests for the interpreter: every ALU opcode
 * is checked against its C++ reference semantics over a sweep of
 * operand classes (zero, one, small, large, sign-boundary, random).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "isa/interp.hh"
#include "sim/rng.hh"

namespace vrsim
{
namespace
{

/** Reference semantics of a register-register ALU op. */
uint64_t
referenceAlu(Op op, uint64_t a, uint64_t b)
{
    auto f64 = [](uint64_t bits) {
        double d;
        std::memcpy(&d, &bits, 8);
        return d;
    };
    auto bits = [](double d) {
        uint64_t v;
        std::memcpy(&v, &d, 8);
        return v;
    };
    switch (op) {
      case Op::Add: return a + b;
      case Op::Sub: return a - b;
      case Op::Mul: return a * b;
      case Op::Divu: return b ? a / b : ~0ull;
      case Op::And: return a & b;
      case Op::Or: return a | b;
      case Op::Xor: return a ^ b;
      case Op::Shl: return a << (b & 63);
      case Op::Shr: return a >> (b & 63);
      case Op::CmpLt: return uint64_t(int64_t(a) < int64_t(b));
      case Op::CmpLtu: return uint64_t(a < b);
      case Op::CmpEq: return uint64_t(a == b);
      case Op::CmpNe: return uint64_t(a != b);
      case Op::FAdd: return bits(f64(a) + f64(b));
      case Op::FMul: return bits(f64(a) * f64(b));
      case Op::FDiv: return bits(f64(a) / f64(b));
      default: panic("unsupported op in reference");
    }
}

class AluOpProperty : public ::testing::TestWithParam<Op>
{
};

TEST_P(AluOpProperty, MatchesReferenceAcrossOperandClasses)
{
    const Op op = GetParam();
    const uint64_t interesting[] = {
        0, 1, 2, 63, 64, 0x7FFFFFFFFFFFFFFFull,
        0x8000000000000000ull, ~0ull, 0x123456789ABCDEFull,
    };
    MemoryImage mem;
    Rng rng(uint64_t(op) * 977 + 5);

    auto check = [&](uint64_t a, uint64_t bv) {
        ProgramBuilder b("p");
        b.emitRaw(Inst{op, 3, 1, 2});
        b.halt();
        Program p = b.build();
        CpuState st;
        st.regs[1] = a;
        st.regs[2] = bv;
        fastForward(p, st, mem, UINT64_MAX);
        uint64_t expect = referenceAlu(op, a, bv);
        // NaN-safe comparison: compare bit patterns.
        ASSERT_EQ(st.regs[3], expect)
            << opName(op) << "(" << a << ", " << bv << ")";
    };

    for (uint64_t a : interesting)
        for (uint64_t b : interesting)
            check(a, b);
    for (int i = 0; i < 200; i++)
        check(rng.next(), rng.next());
}

INSTANTIATE_TEST_SUITE_P(
    AllAluOps, AluOpProperty,
    ::testing::Values(Op::Add, Op::Sub, Op::Mul, Op::Divu, Op::And,
                      Op::Or, Op::Xor, Op::Shl, Op::Shr, Op::CmpLt,
                      Op::CmpLtu, Op::CmpEq, Op::CmpNe),
    [](const ::testing::TestParamInfo<Op> &info) {
        return opName(info.param);
    });

/** Scale/displacement sweep for memory addressing. */
class AddressingProperty
    : public ::testing::TestWithParam<std::tuple<int, int64_t>>
{
};

TEST_P(AddressingProperty, EffectiveAddressMatchesFormula)
{
    auto [scale, disp] = GetParam();
    MemoryImage mem;
    const uint64_t base = 0x40000;
    const uint64_t index = 13;
    uint64_t ea = base + index * uint64_t(scale) + uint64_t(disp);
    mem.write64(ea, 0xFEEDull + uint64_t(scale));

    ProgramBuilder b("ea");
    b.ld(3, 1, 2, uint8_t(scale), disp);
    b.halt();
    Program p = b.build();
    CpuState st;
    st.regs[1] = base;
    st.regs[2] = index;
    fastForward(p, st, mem, UINT64_MAX);
    EXPECT_EQ(st.regs[3], 0xFEEDull + uint64_t(scale));
}

INSTANTIATE_TEST_SUITE_P(
    ScaleDispSweep, AddressingProperty,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(int64_t(0), int64_t(8),
                                         int64_t(64), int64_t(-8))));

/** Hash sequence equivalence across salts. */
class HashSeqProperty : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(HashSeqProperty, HashSeqMatchesHashMix64)
{
    const int64_t salt = GetParam();
    MemoryImage mem;
    Rng rng(uint64_t(salt) + 99);
    for (int i = 0; i < 50; i++) {
        uint64_t x = rng.next();
        ProgramBuilder b("h");
        b.movi(1, int64_t(x));
        b.hashSeq(2, 1, 3, salt);
        b.hash(4, 1, salt);      // the single-µop form
        b.halt();
        Program p = b.build();
        CpuState st;
        fastForward(p, st, mem, UINT64_MAX);
        ASSERT_EQ(st.regs[2], hashMix64(x ^ uint64_t(salt)));
        ASSERT_EQ(st.regs[2], st.regs[4]);
    }
}

INSTANTIATE_TEST_SUITE_P(Salts, HashSeqProperty,
                         ::testing::Values(0, 1, 3, 5, 7, 0x1234));

} // namespace
} // namespace vrsim
