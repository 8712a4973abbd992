/**
 * @file
 * The functional memory image: a sparse, page-granular, byte-addressed
 * 64-bit address space holding the workload's data. Timing is modelled
 * separately (src/mem); this class only stores values.
 */

#ifndef VRSIM_ISA_MEMORY_IMAGE_HH
#define VRSIM_ISA_MEMORY_IMAGE_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace vrsim
{

/**
 * Sparse memory. Unbacked addresses read as zero, which also makes
 * speculative (runahead) wild loads safe by construction.
 *
 * Pages are copy-on-write: copying an image shares its pages, and the
 * first store to a shared page clones that page, so a copy costs one
 * reference per page however large the image is. Reads never clone.
 * Reference counts are atomic, so many threads may copy one image at
 * once as long as none of them writes it: WorkloadCache artifacts and
 * a sweep's post-prefix starts are never written after they are
 * built, and every run works on its own copy.
 *
 * Accesses are strongly page-local (the interpreter walks arrays),
 * so the last page touched is memoized to skip the hash lookup on
 * the hot path. The memo makes even const reads mutating under the
 * hood: one image must not be read or written by two threads at
 * once. Copies start with a cold memo, and a clone refreshes it, so
 * a read after the clone sees the new bytes.
 */
class MemoryImage
{
  public:
    static constexpr uint64_t PAGE_BITS = 16;
    static constexpr uint64_t PAGE_SIZE = 1ull << PAGE_BITS;
    static constexpr uint64_t PAGE_MASK = PAGE_SIZE - 1;

    MemoryImage() = default;
    MemoryImage(const MemoryImage &o) : pages_(o.pages_) {}
    MemoryImage(MemoryImage &&o) noexcept : pages_(std::move(o.pages_))
    {
        o.forgetMemo();
    }

    MemoryImage &
    operator=(const MemoryImage &o)
    {
        pages_ = o.pages_;
        forgetMemo();
        return *this;
    }

    MemoryImage &
    operator=(MemoryImage &&o) noexcept
    {
        pages_ = std::move(o.pages_);
        forgetMemo();
        o.forgetMemo();
        return *this;
    }

    uint64_t
    read64(uint64_t addr) const
    {
        uint64_t v = 0;
        readBytes(addr, &v, 8);
        return v;
    }

    uint32_t
    read32(uint64_t addr) const
    {
        uint32_t v = 0;
        readBytes(addr, &v, 4);
        return v;
    }

    void write64(uint64_t addr, uint64_t v) { writeBytes(addr, &v, 8); }
    void write32(uint64_t addr, uint32_t v) { writeBytes(addr, &v, 4); }

    double
    readF64(uint64_t addr) const
    {
        uint64_t bits = read64(addr);
        double d;
        std::memcpy(&d, &bits, 8);
        return d;
    }

    void
    writeF64(uint64_t addr, double d)
    {
        uint64_t bits;
        std::memcpy(&bits, &d, 8);
        write64(addr, bits);
    }

    /** Number of resident pages (for footprint reporting). */
    size_t residentPages() const { return pages_.size(); }

    /** Total resident bytes, shared pages included. */
    uint64_t footprintBytes() const { return pages_.size() * PAGE_SIZE; }

  private:
    /** One page's bytes and the number of images that hold it. The
     *  bytes keep malloc's 16-byte alignment, so 8-byte words never
     *  straddle a cache line; asking for more would make every page
     *  an aligned allocation, which fragments the heap. */
    struct Page
    {
        std::atomic<uint32_t> refs{1};
        alignas(16) uint8_t bytes[PAGE_SIZE];
    };

    /** An owning, counted reference to a Page. */
    class PageRef
    {
      public:
        PageRef() = default;
        explicit PageRef(Page *p) : p_(p) {}
        PageRef(const PageRef &o) : p_(o.p_)
        {
            if (p_)
                p_->refs.fetch_add(1, std::memory_order_relaxed);
        }
        PageRef(PageRef &&o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
        PageRef &
        operator=(PageRef o) noexcept
        {
            std::swap(p_, o.p_);
            return *this;
        }
        ~PageRef()
        {
            if (p_ && p_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
                delete p_;
        }

        Page *get() const { return p_; }

      private:
        Page *p_ = nullptr;
    };

    static constexpr uint64_t NO_PAGE = ~0ull;

    /** Does no other image hold @p p? The acquire pairs with the
     *  release in a sibling's ~PageRef, so its last reads of the page
     *  happen before this image writes it. */
    static bool
    exclusive(const Page *p)
    {
        return p->refs.load(std::memory_order_acquire) == 1;
    }

    void
    forgetMemo()
    {
        memo_no_ = NO_PAGE;
        memo_ = nullptr;
    }

    const Page *
    findPage(uint64_t page_no) const
    {
        if (page_no == memo_no_)
            return memo_;
        auto it = pages_.find(page_no);
        if (it == pages_.end())
            return nullptr;
        // unordered_map references are stable across rehash, and
        // only a clone replaces an entry's page (refreshing the memo),
        // so the memo survives later insertions.
        memo_no_ = page_no;
        memo_ = it->second.get();
        return memo_;
    }

    /** The bytes of @p page_no, private to this image: a missing page
     *  is created zeroed and a shared one is cloned first. */
    uint8_t *
    writablePage(uint64_t page_no)
    {
        if (page_no == memo_no_ && exclusive(memo_))
            return memo_->bytes;
        PageRef &ref = pages_[page_no];
        if (!ref.get()) {
            ref = PageRef(new Page);
            std::memset(ref.get()->bytes, 0, PAGE_SIZE);
        } else if (!exclusive(ref.get())) {
            PageRef copy(new Page);
            std::memcpy(copy.get()->bytes, ref.get()->bytes, PAGE_SIZE);
            ref = std::move(copy);
        }
        memo_no_ = page_no;
        memo_ = ref.get();
        return memo_->bytes;
    }

    void
    readBytes(uint64_t addr, void *out, size_t n) const
    {
        auto *dst = static_cast<uint8_t *>(out);
        while (n > 0) {
            uint64_t page_no = addr >> PAGE_BITS;
            uint64_t off = addr & PAGE_MASK;
            size_t chunk = std::min<uint64_t>(n, PAGE_SIZE - off);
            if (const Page *p = findPage(page_no))
                std::memcpy(dst, p->bytes + off, chunk);
            else
                std::memset(dst, 0, chunk);
            dst += chunk;
            addr += chunk;
            n -= chunk;
        }
    }

    void
    writeBytes(uint64_t addr, const void *in, size_t n)
    {
        auto *src = static_cast<const uint8_t *>(in);
        while (n > 0) {
            uint64_t page_no = addr >> PAGE_BITS;
            uint64_t off = addr & PAGE_MASK;
            size_t chunk = std::min<uint64_t>(n, PAGE_SIZE - off);
            std::memcpy(writablePage(page_no) + off, src, chunk);
            src += chunk;
            addr += chunk;
            n -= chunk;
        }
    }

    std::unordered_map<uint64_t, PageRef> pages_;
    mutable uint64_t memo_no_ = NO_PAGE;
    mutable Page *memo_ = nullptr;
};

} // namespace vrsim

#endif // VRSIM_ISA_MEMORY_IMAGE_HH
