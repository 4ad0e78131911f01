#include "src/workload/rng.hpp"

namespace agingsim {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  // The splitmix64 stream from `seed`: word i mixes seed + i * gamma.
  for (std::uint64_t i = 0; i < 4; ++i) {
    s_[i] = splitmix64(seed + i * 0x9E3779B97F4A7C15ULL);
  }
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  // Debiased modulo (rejection from the top of the range).
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::uint64_t Rng::next_bits(int width) noexcept {
  const std::uint64_t r = next();
  return width >= 64 ? r : (r & ((std::uint64_t{1} << width) - 1));
}

double Rng::next_double() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

}  // namespace agingsim
