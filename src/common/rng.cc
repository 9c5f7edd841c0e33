#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace corropt::common {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng::result_type Rng::operator()() {
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

Rng Rng::fork() { return Rng((*this)() ^ 0xd1b54a32d192ed03ULL); }

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  assert(n > 0);
  // Lemire's nearly-divisionless bounded sampling with rejection.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = -n % n;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::log_uniform(double lo, double hi) {
  assert(lo > 0.0 && lo < hi);
  return std::exp(uniform(std::log(lo), std::log(hi)));
}

double Rng::exponential(double mean) {
  assert(mean > 0.0);
  // 1 - uniform() is in (0, 1], so the log is finite.
  return -mean * std::log(1.0 - uniform());
}

std::uint64_t Rng::poisson(double mean) {
  assert(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean > 64.0) {
    const double draw = normal(mean, std::sqrt(mean));
    return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
  }
  // Knuth's method.
  const double limit = std::exp(-mean);
  std::uint64_t count = 0;
  double product = uniform();
  while (product > limit) {
    ++count;
    product *= uniform();
  }
  return count;
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // Guard against rounding.
}

namespace {

// The splitmix64 output function alone (no state advance).
std::uint64_t splitmix64_finalize(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

CounterRng::CounterRng(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t counter) {
  // Three finalizer rounds, folding in one key word per round: a change
  // in any word of (seed, stream, counter) reseats the whole starting
  // point, so adjacent directions/epochs land on unrelated subsequences.
  std::uint64_t h = splitmix64_finalize(seed ^ 0x6c62272e07bb0142ULL);
  h = splitmix64_finalize(h ^ stream);
  h = splitmix64_finalize(h ^ counter);
  x_ = h;
}

CounterRng::result_type CounterRng::operator()() {
  x_ += 0x9e3779b97f4a7c15ULL;
  return splitmix64_finalize(x_);
}

double CounterRng::uniform() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double CounterRng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

bool CounterRng::bernoulli(double p) { return uniform() < p; }

double CounterRng::normal() {
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  return u * std::sqrt(-2.0 * std::log(s) / s);
}

double CounterRng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

std::uint64_t CounterRng::poisson(double mean) {
  assert(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean > 64.0) {
    const double draw = normal(mean, std::sqrt(mean));
    return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
  }
  // Knuth's method.
  const double limit = std::exp(-mean);
  std::uint64_t count = 0;
  double product = uniform();
  while (product > limit) {
    ++count;
    product *= uniform();
  }
  return count;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  assert(k <= n);
  // Partial Fisher-Yates over an index vector; O(n) memory, O(n + k) time.
  std::vector<std::size_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) indices[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + uniform_index(n - i);
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

template <class Self, class Codec>
void Rng::walk(Self& self, Codec& c) {
  c.section(snap::tag('R', 'N', 'G', '0'), 1, "rng");
  for (auto& word : self.state_) c.u64(word);
  c.boolean(self.has_cached_normal_);
  c.f64(self.cached_normal_);
}

void Rng::snapshot_to(snap::Writer& w) const { walk(*this, w); }
void Rng::restore_from(snap::Reader& r) { walk(*this, r); }

}  // namespace corropt::common
