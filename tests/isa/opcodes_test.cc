/**
 * @file
 * Tests for opcode traits and disassembly: every opcode must have
 * self-consistent traits and a usable mnemonic.
 */

#include <gtest/gtest.h>

#include <set>

#include "isa/inst.hh"

namespace vrsim
{
namespace
{

std::vector<Op>
allOps()
{
    std::vector<Op> ops;
    for (size_t i = 0; i < size_t(Op::NumOps); i++)
        ops.push_back(Op(i));
    return ops;
}

TEST(OpcodesTest, EveryOpHasAUniqueMnemonic)
{
    std::set<std::string> names;
    for (Op op : allOps()) {
        std::string n = opName(op);
        EXPECT_FALSE(n.empty());
        EXPECT_TRUE(names.insert(n).second) << n << " duplicated";
    }
}

TEST(OpcodesTest, TraitClassesAreConsistent)
{
    for (Op op : allOps()) {
        const OpTraits &t = opTraits(op);
        // A µop is at most one of load/store/prefetch/branch.
        int kinds = int(t.is_load) + int(t.is_store) +
                    int(t.is_prefetch) + int(t.is_branch);
        EXPECT_LE(kinds, 1) << opName(op);
        // Loads write a destination; stores and branches never do.
        if (t.is_load) {
            EXPECT_TRUE(t.writes_dst) << opName(op);
        }
        if (t.is_store || t.is_branch || t.is_prefetch) {
            EXPECT_FALSE(t.writes_dst) << opName(op);
        }
        // Compares write their 0/1 result.
        if (t.is_compare) {
            EXPECT_TRUE(t.writes_dst) << opName(op);
        }
        // Conditional branches are branches.
        if (t.is_cond_branch) {
            EXPECT_TRUE(t.is_branch) << opName(op);
        }
        // Memory ops run on memory FUs.
        if (t.is_load || t.is_prefetch) {
            EXPECT_EQ(int(t.fu), int(FuClass::Load)) << opName(op);
        }
        if (t.is_store) {
            EXPECT_EQ(int(t.fu), int(FuClass::Store)) << opName(op);
        }
    }
}

TEST(OpcodesTest, DisassemblyMentionsMnemonicAndRegs)
{
    for (Op op : allOps()) {
        if (op == Op::NumOps)
            continue;
        Inst i{op, 1, 2, 3, 4, 8, 16};
        std::string s = i.toString();
        EXPECT_EQ(s.rfind(opName(op), 0), 0u)
            << "'" << s << "' must start with the mnemonic";
    }
}

TEST(OpcodesTest, BadOpcodePanics)
{
    EXPECT_THROW(opTraits(Op::NumOps), PanicError);
    EXPECT_THROW(opName(Op::NumOps), PanicError);
}

TEST(OpcodesTest, HashMixIsAPermutationSample)
{
    // splitmix64's finalizer is bijective; spot-check no collisions
    // over a decent sample.
    std::set<uint64_t> outs;
    for (uint64_t x = 0; x < 10000; x++)
        EXPECT_TRUE(outs.insert(hashMix64(x)).second) << x;
}

} // namespace
} // namespace vrsim
