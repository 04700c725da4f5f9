/**
 * @file
 * Deterministic pseudo-random number generator.
 *
 * Simulation runs must be exactly reproducible from a seed, so every
 * stochastic component (workload key choice, branch predictor warmup,
 * crash-injection points) draws from an explicitly seeded Rng instead
 * of a global generator.  The implementation is xoshiro256**, which is
 * fast and has no measurable bias for our use cases.
 */

#ifndef EDE_COMMON_RANDOM_HH
#define EDE_COMMON_RANDOM_HH

#include <cstdint>

namespace ede {

/** Seedable xoshiro256** generator. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            // splitmix64 step to decorrelate nearby seeds.
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
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

    /** Uniform integer in [0, bound). @pre bound > 0 */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Debiased multiply-shift (Lemire).
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p. */
    bool chance(double p) { return real() < p; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

/** Decorrelated 64-bit stream: one value per (seed, salt) pair. */
inline std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    Rng rng(seed ^ (salt * 0x9e3779b97f4a7c15ull));
    return rng.next();
}

} // namespace ede

#endif // EDE_COMMON_RANDOM_HH
