/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * A xorshift128+ generator: fast, reproducible across platforms, and
 * independent of libstdc++'s distribution implementations so that
 * generated graphs and tables are bit-identical everywhere.
 */

#ifndef VRSIM_SIM_RNG_HH
#define VRSIM_SIM_RNG_HH

#include <cstdint>

#include "sim/hash.hh"

namespace vrsim
{

/** xorshift128+ PRNG with splitmix64 seeding. */
class Rng
{
  public:
    explicit Rng(uint64_t seed = SPLITMIX64_GAMMA)
    {
        // Two splitmix64 steps expand the seed into two nonzero words.
        s0_ = splitMix64(seed);
        s1_ = splitMix64(seed + SPLITMIX64_GAMMA);
        if (s0_ == 0 && s1_ == 0)
            s1_ = 1;
    }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        uint64_t x = s0_;
        const uint64_t y = s1_;
        s0_ = y;
        x ^= x << 23;
        s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
        return s1_ + y;
    }

    /** Uniform value in [0, bound). bound must be nonzero. */
    uint64_t
    below(uint64_t bound)
    {
        // Modulo bias is negligible for bounds << 2^64 (all our uses).
        return next() % bound;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return double(next() >> 11) * (1.0 / 9007199254740992.0);
    }

  private:
    uint64_t s0_;
    uint64_t s1_;
};

} // namespace vrsim

#endif // VRSIM_SIM_RNG_HH
