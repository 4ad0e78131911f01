#pragma once

#include <cstdint>

namespace agingsim {

/// splitmix64 (Steele et al.): a stateless 64-bit mixer, x -> finalizer(x +
/// golden gamma). Seeds Rng and keys both chaos layers' decisions.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Deterministic xoshiro256** PRNG (Blackman & Vigna). Self-contained so
/// every experiment in the repository is bit-reproducible across platforms
/// and standard-library versions (std::mt19937 streams are portable, but
/// distribution implementations are not).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  std::uint64_t next() noexcept;

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform `width`-bit operand (width in [1, 64]).
  std::uint64_t next_bits(int width) noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept;

 private:
  std::uint64_t s_[4];
};

}  // namespace agingsim
