/**
 * @file
 * Deterministic pseudo-random number generation for simulations.
 *
 * Implements xoshiro256++ (public-domain algorithm by Blackman & Vigna) so
 * results are reproducible across platforms and standard-library versions —
 * std::mt19937 distributions are not bit-stable across implementations.
 */

#ifndef ISOL_COMMON_RNG_HH
#define ISOL_COMMON_RNG_HH

#include <cstdint>

namespace isol
{

/**
 * xoshiro256++ generator with convenience distributions.
 *
 * All distribution helpers are inline and allocation-free; one Rng instance
 * is owned per scenario to keep experiments independent and repeatable.
 */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of a single 64-bit seed. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull)
    {
        uint64_t x = seed;
        for (auto &word : state_) {
            // splitmix64 step
            x += 0x9E3779B97F4A7C15ull;
            uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) using Lemire's rejection-free mix. */
    uint64_t
    below(uint64_t bound)
    {
        if (bound == 0)
            return 0;
        // 128-bit multiply keeps the distribution close enough to uniform
        // for workload generation (bias < 2^-64 * bound).
        return static_cast<uint64_t>(
            (static_cast<__uint128_t>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    uint64_t
    between(uint64_t lo, uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
};

} // namespace isol

#endif // ISOL_COMMON_RNG_HH
