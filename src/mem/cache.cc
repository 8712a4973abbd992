#include "mem/cache.hh"

#include <bit>

namespace vrsim
{

static_assert(sizeof(CacheArray::Line) == 32,
              "a tag-array line should pack to 32 bytes");

CacheArray::CacheArray(std::string name, const CacheConfig &cfg)
    : name_(std::move(name)), cfg_(cfg)
{
    // lineAddr() is a shift, so the line size must be a power of two
    // (SystemConfig::validate() rejects any other size first).
    panicIfNot(std::has_single_bit(cfg.line_bytes) && cfg.assoc > 0,
               "bad cache geometry");
    line_shift_ = uint32_t(std::countr_zero(cfg.line_bytes));
    uint32_t lines = cfg.size_bytes / cfg.line_bytes;
    panicIfNot(lines >= cfg.assoc, "cache smaller than one set");
    num_sets_ = lines / cfg.assoc;
    panicIfNot(num_sets_ > 0, "cache must have at least one set");
    if ((num_sets_ & (num_sets_ - 1)) == 0)
        set_mask_ = num_sets_ - 1;
    lines_.assign(size_t(num_sets_) * cfg.assoc, Line{});
}

CacheArray::Line *
CacheArray::lookup(uint64_t line_addr, Cycle cycle)
{
    Line *s = set(line_addr);
    for (uint32_t w = 0; w < cfg_.assoc; w++) {
        Line &l = s[w];
        if (l.valid && l.tag == line_addr) {
            if (cfg_.repl == ReplPolicy::Lru)
                l.last_use = cycle;
            return &l;
        }
    }
    return nullptr;
}

const CacheArray::Line *
CacheArray::peek(uint64_t line_addr) const
{
    const Line *s = set(line_addr);
    for (uint32_t w = 0; w < cfg_.assoc; w++) {
        if (s[w].valid && s[w].tag == line_addr)
            return &s[w];
    }
    return nullptr;
}

std::optional<CacheArray::Line>
CacheArray::insert(uint64_t line_addr, Cycle cycle, Cycle fill_time,
                   Requester origin)
{
    // One pass finds the hit, the first invalid way and the first way
    // with the smallest last_use (strict <, so the lowest way wins a
    // tie).
    Line *s = set(line_addr);
    Line *invalid = nullptr;
    Line *oldest = s;
    for (uint32_t w = 0; w < cfg_.assoc; w++) {
        Line &l = s[w];
        if (!l.valid) {
            if (!invalid)
                invalid = &l;
            continue;
        }
        if (l.tag == line_addr) {
            // Refill of a present line: just refresh metadata.
            l.fill_time = std::min(l.fill_time, fill_time);
            if (cfg_.repl == ReplPolicy::Lru)
                l.last_use = cycle;
            return std::nullopt;
        }
        if (l.last_use < oldest->last_use)
            oldest = &l;
    }
    // Every policy fills an invalid way first. Otherwise LRU and FIFO
    // evict the oldest line (FIFO only writes last_use at insertion,
    // so that is the oldest insertion; LRU refreshes it on every hit).
    Line *victim = invalid;
    if (!victim) {
        switch (cfg_.repl) {
          case ReplPolicy::Lru:
          case ReplPolicy::Fifo:
            victim = oldest;
            break;
          case ReplPolicy::Random:
            rand_state_ ^= rand_state_ << 13;
            rand_state_ ^= rand_state_ >> 7;
            rand_state_ ^= rand_state_ << 17;
            victim = &s[rand_state_ % cfg_.assoc];
            break;
        }
        panicIfNot(victim != nullptr, "unknown replacement policy");
    }
    std::optional<Line> evicted;
    if (victim->valid)
        evicted = *victim;
    victim->valid = true;
    victim->tag = line_addr;
    victim->fill_time = fill_time;
    victim->last_use = cycle;
    victim->origin = origin;
    victim->used_since_fill = false;
    return evicted;
}

void
CacheArray::invalidate(uint64_t line_addr)
{
    Line *s = set(line_addr);
    for (uint32_t w = 0; w < cfg_.assoc; w++) {
        if (s[w].valid && s[w].tag == line_addr) {
            s[w].valid = false;
            return;
        }
    }
}

} // namespace vrsim
