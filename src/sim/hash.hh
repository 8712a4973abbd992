/**
 * @file
 * The simulator's two non-cryptographic hashes, written once: the
 * splitmix64 finalizer (Op::Hash, RNG seeding, chaos draws) and
 * FNV-1a over a byte string (plan fingerprints, chaos point ids).
 */

#ifndef VRSIM_SIM_HASH_HH
#define VRSIM_SIM_HASH_HH

#include <cstdint>
#include <string_view>

namespace vrsim
{

/** splitmix64's state increment (the 64-bit golden ratio). */
constexpr uint64_t SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15ull;

/**
 * The splitmix64 finalizer: a bijective avalanche of @p x. Op::Hash
 * computes it in one µop; ProgramBuilder::hashSeq spells it out.
 */
inline uint64_t
hashMix64(uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** The splitmix64 output for state @p x: one increment, then the
 *  finalizer. */
inline uint64_t
splitMix64(uint64_t x)
{
    return hashMix64(x + SPLITMIX64_GAMMA);
}

/** FNV-1a over the bytes of @p s, continuing from @p h. */
inline uint64_t
fnv1a(std::string_view s, uint64_t h = 0xcbf29ce484222325ull)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace vrsim

#endif // VRSIM_SIM_HASH_HH
