#include "rng/rng.hpp"

#include <cmath>

namespace hcsched::rng {

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  // Lemire 2019: multiply a 64-bit draw by the bound and keep the high word;
  // reject the small biased fringe. __int128 is a GCC/Clang extension;
  // __extension__ silences -Wpedantic where it is available.
  __extension__ using u128 = unsigned __int128;
  std::uint64_t x = engine_.next();
  u128 m = static_cast<u128>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = engine_.next();
      m = static_cast<u128>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() noexcept {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_normal_ = true;
  return u * factor;
}

double Rng::gamma(double shape, double scale) noexcept {
  if (shape < 1.0) {
    // Boost: Gamma(a) = Gamma(a+1) * U^{1/a}.
    const double u = uniform01();
    return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform01();
    if (u < 1.0 - 0.0331 * (x * x) * (x * x)) return d * v * scale;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
      return d * v * scale;
  }
}

Rng Rng::split(std::size_t stream_index) const noexcept {
  Rng child = *this;
  child.has_spare_normal_ = false;
  if (stream_index == SIZE_MAX) {
    // stream_index + 1 would wrap to 0: take the last jump separately.
    child.engine_.jump(stream_index);
    child.engine_.jump();
  } else {
    child.engine_.jump(stream_index + 1);
  }
  return child;
}

}  // namespace hcsched::rng
