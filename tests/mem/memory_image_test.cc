/**
 * @file
 * Tests for the sparse functional memory image and its copy-on-write
 * pages.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "isa/memory_image.hh"

namespace vrsim
{
namespace
{

TEST(MemoryImageTest, UnbackedReadsZero)
{
    MemoryImage m;
    EXPECT_EQ(m.read64(0xDEADBEEF000), 0u);
    EXPECT_EQ(m.read32(0x123456), 0u);
    EXPECT_EQ(m.residentPages(), 0u);
}

TEST(MemoryImageTest, RoundTrip64)
{
    MemoryImage m;
    m.write64(0x1000, 0x0123456789ABCDEFull);
    EXPECT_EQ(m.read64(0x1000), 0x0123456789ABCDEFull);
}

TEST(MemoryImageTest, RoundTrip32AndEndianOverlap)
{
    MemoryImage m;
    m.write64(0x2000, 0x1122334455667788ull);
    EXPECT_EQ(m.read32(0x2000), 0x55667788u);   // little endian
    EXPECT_EQ(m.read32(0x2004), 0x11223344u);
    m.write32(0x2000, 0xAABBCCDDu);
    EXPECT_EQ(m.read64(0x2000), 0x11223344AABBCCDDull);
}

TEST(MemoryImageTest, CrossPageAccess)
{
    MemoryImage m;
    uint64_t boundary = MemoryImage::PAGE_SIZE - 4;
    m.write64(boundary, 0xCAFEBABE12345678ull);
    EXPECT_EQ(m.read64(boundary), 0xCAFEBABE12345678ull);
    EXPECT_EQ(m.residentPages(), 2u);
}

TEST(MemoryImageTest, FloatRoundTrip)
{
    MemoryImage m;
    m.writeF64(0x3000, 3.14159);
    EXPECT_DOUBLE_EQ(m.readF64(0x3000), 3.14159);
    m.writeF64(0x3008, -0.0);
    EXPECT_DOUBLE_EQ(m.readF64(0x3008), -0.0);
}

TEST(MemoryImageTest, SparseFootprintTracksPages)
{
    MemoryImage m;
    m.write64(0, 1);
    m.write64(10 * MemoryImage::PAGE_SIZE, 1);
    EXPECT_EQ(m.residentPages(), 2u);
    EXPECT_EQ(m.footprintBytes(), 2 * MemoryImage::PAGE_SIZE);
}

TEST(MemoryImageTest, HighAddressesWork)
{
    MemoryImage m;
    uint64_t addr = 0xFFFF'FFFF'0000ull;
    m.write64(addr, 42);
    EXPECT_EQ(m.read64(addr), 42u);
}

// ---- copy-on-write pages -------------------------------------------

constexpr uint64_t PAGE = MemoryImage::PAGE_SIZE;

TEST(MemoryImageTest, WriteToCopyChangesNeitherSourceNorSibling)
{
    MemoryImage src;
    src.write64(0x1000, 1);
    src.write64(3 * PAGE + 8, 2);
    MemoryImage a = src;
    MemoryImage b = src;
    a.write64(0x1000, 10);
    b.write64(3 * PAGE + 8, 20);
    EXPECT_EQ(src.read64(0x1000), 1u);
    EXPECT_EQ(src.read64(3 * PAGE + 8), 2u);
    EXPECT_EQ(a.read64(0x1000), 10u);
    EXPECT_EQ(a.read64(3 * PAGE + 8), 2u);
    EXPECT_EQ(b.read64(0x1000), 1u);
    EXPECT_EQ(b.read64(3 * PAGE + 8), 20u);
    EXPECT_EQ(a.residentPages(), src.residentPages());
}

TEST(MemoryImageTest, WriteToSourceAfterCopyChangesNoCopy)
{
    MemoryImage src;
    src.write64(0x2000, 7);  // the memo now holds this page
    MemoryImage copy = src;
    MemoryImage assigned;
    assigned = src;
    src.write64(0x2000, 8);
    src.write64(0x2008, 9);
    EXPECT_EQ(src.read64(0x2000), 8u);
    EXPECT_EQ(copy.read64(0x2000), 7u);
    EXPECT_EQ(copy.read64(0x2008), 0u);
    EXPECT_EQ(assigned.read64(0x2000), 7u);
    EXPECT_EQ(assigned.read64(0x2008), 0u);
}

TEST(MemoryImageTest, ReadAfterCloneSeesNewBytesThroughTheMemo)
{
    MemoryImage src;
    src.write64(0x3000, 1);
    src.write64(0x3008, 2);
    MemoryImage copy = src;
    // The read memoizes the shared page; the write clones it.
    EXPECT_EQ(copy.read64(0x3000), 1u);
    copy.write64(0x3000, 11);
    EXPECT_EQ(copy.read64(0x3000), 11u);
    EXPECT_EQ(copy.read64(0x3008), 2u);
    copy.write64(0x3008, 12);
    EXPECT_EQ(copy.read64(0x3008), 12u);
    // The source keeps its bytes, through its own memo and without.
    EXPECT_EQ(src.read64(0x3000), 1u);
    EXPECT_EQ(src.read64(5 * PAGE), 0u);
    EXPECT_EQ(src.read64(0x3008), 2u);
}

TEST(MemoryImageTest, CrossPageWriteIntoTwoSharedPages)
{
    MemoryImage src;
    src.write64(PAGE - 8, 0x1111111111111111ull);
    src.write64(PAGE, 0x2222222222222222ull);
    MemoryImage copy = src;
    copy.write64(PAGE - 4, 0xCAFEBABE12345678ull);
    EXPECT_EQ(copy.read64(PAGE - 4), 0xCAFEBABE12345678ull);
    EXPECT_EQ(copy.read32(PAGE - 8), 0x11111111u);
    EXPECT_EQ(copy.read32(PAGE + 4), 0x22222222u);
    EXPECT_EQ(src.read64(PAGE - 8), 0x1111111111111111ull);
    EXPECT_EQ(src.read64(PAGE), 0x2222222222222222ull);
    EXPECT_EQ(copy.residentPages(), 2u);
}

TEST(MemoryImageTest, FourThreadsCopyOneConstImage)
{
    constexpr uint64_t PAGES = 16;
    MemoryImage built;
    for (uint64_t p = 0; p < PAGES; p++)
        built.write64(p * PAGE, p);
    const MemoryImage src = std::move(built);

    std::vector<std::thread> pool;
    std::vector<int> ok(4, 0);
    for (unsigned t = 0; t < 4; t++) {
        pool.emplace_back([&, t] {
            for (int round = 0; round < 8; round++) {
                MemoryImage mine = src;
                for (uint64_t p = 0; p < PAGES; p += 1 + t)
                    mine.write64(p * PAGE + 8 * t, 1000 * (t + 1) + p);
                // Thread 0 overwrites each page's first word; the
                // others write beside it, every (1 + t)-th page.
                bool good = true;
                for (uint64_t p = 0; p < PAGES; p++) {
                    const bool wrote = p % (1 + t) == 0;
                    good &= mine.read64(p * PAGE + 8 * t) ==
                            (wrote ? 1000 * (t + 1) + p : 0);
                    good &= t == 0 || mine.read64(p * PAGE) == p;
                }
                ok[t] += good;
            }
        });
    }
    for (auto &th : pool)
        th.join();
    for (unsigned t = 0; t < 4; t++)
        EXPECT_EQ(ok[t], 8) << "thread " << t;
    for (uint64_t p = 0; p < PAGES; p++) {
        EXPECT_EQ(src.read64(p * PAGE), p);
        EXPECT_EQ(src.read64(p * PAGE + 8), 0u);
    }
}

} // namespace
} // namespace vrsim
