/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * All stochastic behavior in the simulator (workload address streams,
 * heterogeneous workload composition, fragmentation injection) must draw
 * from an explicitly-seeded Rng so that every experiment is reproducible
 * bit-for-bit from its seed.
 */

#ifndef MOSAIC_COMMON_RNG_H
#define MOSAIC_COMMON_RNG_H

#include <cstdint>

#include "ckpt/serde.h"

namespace mosaic {

/**
 * xoshiro256** generator: fast, high-quality, and trivially seedable.
 * Not suitable for cryptography, which the simulator never needs.
 */
class Rng
{
  public:
    /** Seeds the generator with SplitMix64 expansion of @p seed. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9E3779B97F4A7C15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Checkpoint hook: the raw xoshiro state (DESIGN.md §14). */
    void
    serialize(ckpt::Archive &ar)
    {
        for (std::uint64_t &word : state_)
            ar.io(word);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

}  // namespace mosaic

#endif  // MOSAIC_COMMON_RNG_H
