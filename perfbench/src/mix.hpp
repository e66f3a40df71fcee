// The `server` workload's request mix: four kinds of request, each drawn
// from a small pool of seeded inputs whose answers are computed serially at
// set-up, so every request's answer is checked without redoing its work.
//   fib    spawn-per-call recursion, n in 13..16
//   sort   spawn-based merge sort of 4-8 K keys
//   pairs  spawn_range pair scoring of 32 sequences
//   lu     dense 5x5-block LU (16x16 blocks) under a DepScope
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class Mix {
 public:
  static constexpr unsigned kinds = 4;

  struct Req {
    unsigned kind = 0;
    unsigned idx = 0;  ///< input in that kind's pool
  };

  explicit Mix(std::uint64_t seed);

  /// Next request of the seeded stream (kinds uniformly mixed).
  [[nodiscard]] Req draw(std::uint64_t& rng) const;

  /// Every input of every kind, each kind equally often: the stream's
  /// expected mix, with no sampling noise in its cost.
  [[nodiscard]] std::vector<Req> balanced() const;

  /// Execute `r` in the calling context (a server request body, or plain
  /// serial code outside any region) and check its answer.
  [[nodiscard]] bool run(const Req& r) const;

 private:
  struct SortIn {
    std::vector<std::uint32_t> keys;
    std::vector<std::uint32_t> sorted;
  };
  struct PairsIn {
    std::vector<std::uint8_t> seqs;
    std::uint64_t total = 0;
  };
  struct LuIn {
    std::vector<float> a;       ///< nb*nb blocks of bs*bs, block-major
    std::vector<float> factored;
  };

  std::vector<int> fib_n_;
  std::vector<SortIn> sort_;
  std::vector<PairsIn> pairs_;
  std::vector<LuIn> lu_;
};

/// splitmix64 step: the benchmark's only source of randomness.
[[nodiscard]] std::uint64_t mix64(std::uint64_t& state) noexcept;

}  // namespace perfbench
