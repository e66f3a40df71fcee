#include "mix.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "phases.hpp"
#include "runtime/rt.hpp"

namespace perfbench {

namespace rt = bots::rt;

std::uint64_t mix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t x = state;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

constexpr unsigned kPool = 8;
constexpr std::size_t kSortLeaf = 256;
constexpr std::int64_t kSeqs = 32;
constexpr int kSeqLen = 48;
constexpr std::size_t kNb = 5;
constexpr std::size_t kBs = 16;

void msort(std::vector<std::uint32_t>& v, std::vector<std::uint32_t>& tmp,
           std::size_t lo, std::size_t hi) {
  if (hi - lo <= kSortLeaf) {
    std::sort(v.begin() + static_cast<std::ptrdiff_t>(lo),
              v.begin() + static_cast<std::ptrdiff_t>(hi));
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  rt::spawn([&v, &tmp, lo, mid] { msort(v, tmp, lo, mid); });
  rt::spawn([&v, &tmp, mid, hi] { msort(v, tmp, mid, hi); });
  rt::taskwait();
  std::merge(v.begin() + static_cast<std::ptrdiff_t>(lo),
             v.begin() + static_cast<std::ptrdiff_t>(mid),
             v.begin() + static_cast<std::ptrdiff_t>(mid),
             v.begin() + static_cast<std::ptrdiff_t>(hi),
             tmp.begin() + static_cast<std::ptrdiff_t>(lo));
  std::copy(tmp.begin() + static_cast<std::ptrdiff_t>(lo),
            tmp.begin() + static_cast<std::ptrdiff_t>(hi),
            v.begin() + static_cast<std::ptrdiff_t>(lo));
}

std::uint64_t score_pair(const std::vector<std::uint8_t>& seqs, std::int64_t i,
                         std::int64_t j) {
  std::uint64_t sc = 0;
  for (int k = 0; k < kSeqLen; ++k) {
    const std::uint8_t a = seqs[static_cast<std::size_t>(i * kSeqLen + k)];
    const std::uint8_t b = seqs[static_cast<std::size_t>(j * kSeqLen + k)];
    sc += a == b ? 3u : (a % 4 == b % 4 ? 1u : 0u);
  }
  return sc;
}

// Dense block LU without pivoting (the input is diagonally dominant), the
// four BOTS SparseLU block operations.
float* blk(std::vector<float>& m, std::size_t i, std::size_t j) {
  return m.data() + (i * kNb + j) * kBs * kBs;
}

void lu0(float* d) {
  for (std::size_t k = 0; k < kBs; ++k) {
    for (std::size_t i = k + 1; i < kBs; ++i) {
      d[i * kBs + k] /= d[k * kBs + k];
      for (std::size_t j = k + 1; j < kBs; ++j) {
        d[i * kBs + j] -= d[i * kBs + k] * d[k * kBs + j];
      }
    }
  }
}

void fwd(const float* d, float* c) {
  for (std::size_t k = 0; k < kBs; ++k) {
    for (std::size_t i = k + 1; i < kBs; ++i) {
      for (std::size_t j = 0; j < kBs; ++j) {
        c[i * kBs + j] -= d[i * kBs + k] * c[k * kBs + j];
      }
    }
  }
}

void bdiv(const float* d, float* r) {
  for (std::size_t i = 0; i < kBs; ++i) {
    for (std::size_t k = 0; k < kBs; ++k) {
      r[i * kBs + k] /= d[k * kBs + k];
      for (std::size_t j = k + 1; j < kBs; ++j) {
        r[i * kBs + j] -= r[i * kBs + k] * d[k * kBs + j];
      }
    }
  }
}

void bmod(const float* row, const float* col, float* t) {
  for (std::size_t i = 0; i < kBs; ++i) {
    for (std::size_t j = 0; j < kBs; ++j) {
      float acc = 0;
      for (std::size_t k = 0; k < kBs; ++k) acc += row[i * kBs + k] * col[k * kBs + j];
      t[i * kBs + j] -= acc;
    }
  }
}

void block_lu(std::vector<float>& m) {
  rt::DepScope sc;
  for (std::size_t kk = 0; kk < kNb; ++kk) {
    float* d = blk(m, kk, kk);
    sc.spawn(rt::Tiedness::tied, {rt::inout(d)}, [d] { lu0(d); });
    for (std::size_t jj = kk + 1; jj < kNb; ++jj) {
      float* c = blk(m, kk, jj);
      sc.spawn(rt::Tiedness::tied, {rt::in(d), rt::inout(c)}, [d, c] { fwd(d, c); });
    }
    for (std::size_t ii = kk + 1; ii < kNb; ++ii) {
      float* r = blk(m, ii, kk);
      sc.spawn(rt::Tiedness::tied, {rt::in(d), rt::inout(r)}, [d, r] { bdiv(d, r); });
    }
    for (std::size_t ii = kk + 1; ii < kNb; ++ii) {
      for (std::size_t jj = kk + 1; jj < kNb; ++jj) {
        const float* r = blk(m, ii, kk);
        const float* c = blk(m, kk, jj);
        float* t = blk(m, ii, jj);
        sc.spawn(rt::Tiedness::tied, {rt::in(r), rt::in(c), rt::inout(t)},
                 [r, c, t] { bmod(r, c, t); });
      }
    }
  }
  sc.wait();
}

}  // namespace

Mix::Mix(std::uint64_t seed) {
  std::uint64_t s = seed ^ 0x5EEDF00DULL;
  fib_n_ = {13, 14, 15, 16};
  for (unsigned p = 0; p < kPool; ++p) {
    SortIn in;
    in.keys.resize(4096 + mix64(s) % 4096);
    for (auto& k : in.keys) k = static_cast<std::uint32_t>(mix64(s));
    in.sorted = in.keys;
    std::sort(in.sorted.begin(), in.sorted.end());
    sort_.push_back(std::move(in));

    PairsIn pi;
    pi.seqs.resize(static_cast<std::size_t>(kSeqs * kSeqLen));
    for (auto& c : pi.seqs) c = static_cast<std::uint8_t>(mix64(s) % 20);
    for (std::int64_t i = 0; i < kSeqs; ++i) {
      for (std::int64_t j = 0; j < kSeqs; ++j) pi.total += score_pair(pi.seqs, i, j);
    }
    pairs_.push_back(std::move(pi));
  }
  for (unsigned p = 0; p < kPool / 2; ++p) {
    LuIn in;
    in.a.resize(kNb * kNb * kBs * kBs);
    for (std::size_t b = 0; b < kNb * kNb; ++b) {
      float* x = in.a.data() + b * kBs * kBs;
      for (std::size_t e = 0; e < kBs * kBs; ++e) {
        x[e] = static_cast<float>(static_cast<double>(mix64(s) % 2001) / 1000.0 - 1.0);
      }
      if (b % (kNb + 1) == 0) {  // diagonal block: dominant diagonal
        for (std::size_t d = 0; d < kBs; ++d) {
          x[d * kBs + d] += static_cast<float>(kNb * kBs);
        }
      }
    }
    in.factored = in.a;
    block_lu(in.factored);  // outside a region: runs serially in order
    lu_.push_back(std::move(in));
  }
}

Mix::Req Mix::draw(std::uint64_t& rng) const {
  const std::uint64_t x = mix64(rng);
  Req r;
  r.kind = static_cast<unsigned>(x % kinds);
  const std::uint64_t y = x >> 8;
  switch (r.kind) {
    case 0: r.idx = static_cast<unsigned>(y % fib_n_.size()); break;
    case 1: r.idx = static_cast<unsigned>(y % sort_.size()); break;
    case 2: r.idx = static_cast<unsigned>(y % pairs_.size()); break;
    default: r.idx = static_cast<unsigned>(y % lu_.size()); break;
  }
  return r;
}

std::vector<Mix::Req> Mix::balanced() const {
  const std::size_t pool[kinds] = {fib_n_.size(), sort_.size(), pairs_.size(), lu_.size()};
  std::vector<Req> out;
  for (std::size_t j = 0; j < kPool; ++j) {
    for (unsigned k = 0; k < kinds; ++k) out.push_back({k, static_cast<unsigned>(j % pool[k])});
  }
  return out;
}

bool Mix::run(const Req& r) const {
  switch (r.kind) {
    case 0: {
      const int n = fib_n_[r.idx];
      std::uint64_t v = 0;
      v = tree_fib(n);
      return v == fib_closed(n);
    }
    case 1: {
      const SortIn& in = sort_[r.idx];
      std::vector<std::uint32_t> v = in.keys;
      std::vector<std::uint32_t> tmp(v.size());
      msort(v, tmp, 0, v.size());
      return v == in.sorted;
    }
    case 2: {
      const PairsIn& in = pairs_[r.idx];
      std::atomic<std::uint64_t> total{0};
      rt::spawn_range(0, kSeqs * kSeqs, 8, [&](std::int64_t idx) {
        total.fetch_add(score_pair(in.seqs, idx / kSeqs, idx % kSeqs),
                        std::memory_order_relaxed);
      });
      rt::taskwait();
      return total.load() == in.total;
    }
    default: {
      const LuIn& in = lu_[r.idx];
      std::vector<float> m = in.a;
      block_lu(m);
      for (std::size_t e = 0; e < m.size(); ++e) {
        const float scale = std::max(1.0f, std::fabs(in.factored[e]));
        if (std::fabs(m[e] - in.factored[e]) > 1e-4f * scale) return false;
      }
      return true;
    }
  }
}

}  // namespace perfbench
