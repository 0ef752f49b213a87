// The packed row passes of TieBreaker::choose_min/choose_max and the
// fastpath row scan (minscan.hpp), one portable body on native_simd<double>
// whose width the compiler picks (2 lanes at the x86-64 baseline, 4 under
// -mavx2); every width gives the same results. Only source files include
// it: <experimental/simd> is slow to compile.
#pragma once

#include <algorithm>
#include <cstddef>
#include <experimental/simd>
#include <limits>
#include <type_traits>

namespace hcsched::rng {

namespace stdx = std::experimental;

using Lanes = stdx::native_simd<double>;
inline constexpr std::size_t kLanes = Lanes::size();

/// A row of scores x[i] = s[i].
struct Scores {
  const double* s;
  double operator[](std::size_t i) const noexcept { return s[i]; }
  Lanes pack(std::size_t i) const noexcept {
    return Lanes(s + i, stdx::element_aligned);
  }
};

/// A row of completion times x[i] = ready[i] + etc[i].
struct Completions {
  const double* ready;
  const double* etc;
  double operator[](std::size_t i) const noexcept { return ready[i] + etc[i]; }
  Lanes pack(std::size_t i) const noexcept {
    return Lanes(ready + i, stdx::element_aligned) +
           Lanes(etc + i, stdx::element_aligned);
  }
};

/// The best two values seen with multiplicity (lowest, or highest when
/// kLargest); before a second value, second is the identity.
template <typename V>
struct Two {
  V best;
  V second;
};

// GCC will not inline an ordinary function holding libstdc++'s packed min
// and max (they carry an optimize attribute) into a default-options caller,
// so every step would be a call: these steps are always inlined.
template <bool kLargest, typename V>
[[gnu::always_inline]] inline V better(const V& a, const V& b) noexcept {
  if constexpr (std::is_same_v<V, double>) {
    return kLargest ? std::max(a, b) : std::min(a, b);
  } else {
    return kLargest ? stdx::max(a, b) : stdx::min(a, b);
  }
}

/// Takes x into s: second = better(second, worse(best, x)), so x == best
/// gives second == best and a repeated best counts twice.
template <bool kLargest, typename V>
[[gnu::always_inline]] inline Two<V> take(const Two<V>& s,
                                          const V& x) noexcept {
  return {better<kLargest>(s.best, x),
          better<kLargest>(s.second, better<!kLargest>(s.best, x))};
}

/// The same network over two states.
template <bool kLargest, typename V>
[[gnu::always_inline]] inline Two<V> merge(const Two<V>& a,
                                           const Two<V>& b) noexcept {
  return {better<kLargest>(a.best, b.best),
          better<kLargest>(better<kLargest>(a.second, b.second),
                           better<!kLargest>(a.best, b.best))};
}

/// The best two of x[0] .. x[n - 1]: four packed accumulators (chains that
/// overlap in the pipeline) take groups of 4 * kLanes values, one takes the
/// remaining whole vectors, and a scalar state its lanes and the tail.
/// min and max are associative and commutative over non-NaN values, so no
/// grouping or lane width changes a result beyond the sign of a zero.
template <bool kLargest, typename Row>
[[gnu::always_inline]] inline Two<double> best_two(const Row& x,
                                                   std::size_t n) noexcept {
  const Lanes identity(kLargest ? -std::numeric_limits<double>::infinity()
                                : std::numeric_limits<double>::infinity());
  Two<Lanes> a0{identity, identity};
  std::size_t i = 0;
  if (n >= 4 * kLanes) {
    Two<Lanes> a1 = a0;
    Two<Lanes> a2 = a0;
    Two<Lanes> a3 = a0;
    for (; i + 4 * kLanes <= n; i += 4 * kLanes) {
      a0 = take<kLargest>(a0, x.pack(i));
      a1 = take<kLargest>(a1, x.pack(i + kLanes));
      a2 = take<kLargest>(a2, x.pack(i + 2 * kLanes));
      a3 = take<kLargest>(a3, x.pack(i + 3 * kLanes));
    }
    a0 = merge<kLargest>(merge<kLargest>(a0, a1), merge<kLargest>(a2, a3));
  }
  for (; i + kLanes <= n; i += kLanes) a0 = take<kLargest>(a0, x.pack(i));
  Two<double> s{a0.best[0], a0.second[0]};
  for (std::size_t j = 1; j < kLanes; ++j) {
    s = merge<kLargest>(s, Two<double>{a0.best[j], a0.second[j]});
  }
  for (; i < n; ++i) s = take<kLargest>(s, x[i]);
  return s;
}

/// The first i in [0, n) with x[i] == value, or n.
template <typename Row>
[[gnu::always_inline]] inline std::size_t find_first(
    const Row& x, std::size_t n, double value) noexcept {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const Lanes::mask_type hit = x.pack(i) == value;
    if (stdx::any_of(hit)) {
      return i + static_cast<std::size_t>(stdx::find_first_set(hit));
    }
  }
  while (i < n && x[i] != value) ++i;
  return i;
}

/// Calls visit(i) for each i in [0, n) with x[i] == best, in ascending
/// order: one packed compare per vector, then the tail.
template <typename Row, typename Visit>
void for_each_tied(const Row& x, std::size_t n, double best,
                   Visit visit) noexcept {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const Lanes::mask_type hit = x.pack(i) == best;
    if (stdx::none_of(hit)) continue;
    for (std::size_t j = 0; j < kLanes; ++j) {
      if (hit[j]) visit(i + j);
    }
  }
  for (; i < n; ++i) {
    if (x[i] == best) visit(i);
  }
}

}  // namespace hcsched::rng
