// Deterministic random number generation.
//
// Every stochastic component takes an explicit Rng so that whole scenarios
// are reproducible from a single seed. The generator is xoshiro256**,
// which is fast, has 256 bits of state, and passes BigCrush; distribution
// helpers mirror the subset of <random> the project needs without the
// cross-platform non-determinism of the standard distributions.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/snapshot.h"

namespace corropt::common {

class Rng {
 public:
  using result_type = std::uint64_t;

  // Seeds the state via splitmix64 so that nearby seeds give unrelated
  // streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  result_type operator()();

  // Derives an independent child generator; used to give each subsystem
  // its own stream so that adding draws in one does not perturb another.
  [[nodiscard]] Rng fork();

  // Uniform double in [0, 1).
  double uniform();
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  // Bernoulli trial with success probability p (clamped to [0, 1]).
  bool bernoulli(double p);
  // Standard normal via Marsaglia polar method.
  double normal();
  double normal(double mean, double stddev);
  // Log-uniform in [lo, hi); requires 0 < lo < hi.
  double log_uniform(double lo, double hi);
  // Exponential with the given mean (> 0).
  double exponential(double mean);
  // Poisson with the given mean (>= 0); exact for small means, normal
  // approximation above 64.
  std::uint64_t poisson(double mean);
  // Samples an index according to non-negative weights (at least one > 0).
  std::size_t weighted_index(std::span<const double> weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[uniform_index(i)]);
    }
  }

  // Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  // Checkpointing (DESIGN.md §14): the complete generator state — the
  // four xoshiro words plus the Marsaglia cached second normal, which
  // is genuine hidden state (dropping it would shift every later
  // normal() draw by one).
  void snapshot_to(snap::Writer& w) const;
  void restore_from(snap::Reader& r);

 private:
  template <class Self, class Codec>
  static void walk(Self& self, Codec& c);

  std::array<std::uint64_t, 4> state_{};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

// Counter-based generator for shard-parallel synthesis.
//
// Rng is a sequential stream: every draw depends on how many draws came
// before it, so splitting work across threads perturbs the output unless
// the iteration order is frozen. CounterRng is keyed instead: the triple
// (seed, stream, counter) — e.g. (study seed, direction id, epoch start)
// — fully determines the values drawn, so any sample of a sharded
// computation is independently computable in any order on any thread.
// The key is hashed through three rounds of the splitmix64 finalizer
// (the same mixer bench::derive_seed uses) and draws then walk the
// splitmix64 sequence from that point, which keeps distinct keys on
// statistically unrelated subsequences.
//
// The distribution helpers use the same algorithms as Rng (53-bit
// uniform, Marsaglia polar normal, Knuth/normal-approximation Poisson)
// but are not sequence-compatible with it; code that depends on Rng's
// historical draw sequence is unaffected by this class.
class CounterRng {
 public:
  using result_type = std::uint64_t;

  CounterRng(std::uint64_t seed, std::uint64_t stream,
             std::uint64_t counter);

  result_type operator()();

  // Uniform double in [0, 1).
  double uniform();
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Bernoulli trial with success probability p (clamped to [0, 1]).
  bool bernoulli(double p);
  // Standard normal via Marsaglia polar method (no cached second value:
  // keyed draws are cheap and statelessness keeps samples independent).
  double normal();
  double normal(double mean, double stddev);
  // Poisson with the given mean (>= 0); exact for small means, normal
  // approximation above 64 — the same split Rng::poisson uses.
  std::uint64_t poisson(double mean);

 private:
  std::uint64_t x_ = 0;
};

}  // namespace corropt::common
