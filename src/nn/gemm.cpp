#include "nn/gemm.hpp"

#include <algorithm>
#include <vector>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace drift::nn {

namespace {

// Cache-blocking parameters.  kMc is also the parallel grain: output
// rows are handed to the pool in fixed chunks of kMc, so the chunk
// decomposition — and therefore every accumulation order — is
// independent of the thread count.  Each chunk writes only its own
// rows of C; no atomics, no sharing.
constexpr std::int64_t kMc = 32;   ///< row chunk (parallel grain)
constexpr std::int64_t kKc = 256;  ///< K block kept hot in L1/L2
constexpr std::int64_t kNc = 128;  ///< column block of C accumulated in registers/L1

}  // namespace

TensorF matmul(const TensorF& a, const TensorF& b) {
  DRIFT_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2,
              "matmul needs rank-2 operands");
  const std::int64_t M = a.shape().dim(0);
  const std::int64_t K = a.shape().dim(1);
  DRIFT_CHECK(b.shape().dim(0) == K, "inner dimension mismatch");
  const std::int64_t N = b.shape().dim(1);

  TensorF c(Shape{M, N});
  auto ad = a.data();
  auto bd = b.data();
  auto cd = c.data();
  util::parallel_for(0, M, kMc, [&](std::int64_t i0, std::int64_t i1) {
    // Per-chunk double accumulator tile: (<=kMc) x (<=kNc).  Double
    // accumulation in k-ascending order matches matmul_nt's policy and
    // is fixed regardless of blocking or threading.
    std::vector<double> acc(static_cast<std::size_t>(kMc * kNc));
    for (std::int64_t jc = 0; jc < N; jc += kNc) {
      const std::int64_t jend = std::min(jc + kNc, N);
      const std::int64_t jw = jend - jc;
      std::fill(acc.begin(),
                acc.begin() + static_cast<std::size_t>((i1 - i0) * jw), 0.0);
      for (std::int64_t kc = 0; kc < K; kc += kKc) {
        const std::int64_t kend = std::min(kc + kKc, K);
        for (std::int64_t i = i0; i < i1; ++i) {
          double* acc_row =
              acc.data() + static_cast<std::size_t>((i - i0) * jw);
          for (std::int64_t k = kc; k < kend; ++k) {
            const float aik = ad[static_cast<std::size_t>(i * K + k)];
            if (aik == 0.0f) continue;
            const double av = static_cast<double>(aik);
            const float* brow =
                bd.data() + static_cast<std::size_t>(k * N + jc);
            for (std::int64_t j = 0; j < jw; ++j) {
              acc_row[j] += av * static_cast<double>(brow[j]);
            }
          }
        }
      }
      for (std::int64_t i = i0; i < i1; ++i) {
        const double* acc_row =
            acc.data() + static_cast<std::size_t>((i - i0) * jw);
        float* crow = cd.data() + static_cast<std::size_t>(i * N + jc);
        for (std::int64_t j = 0; j < jw; ++j) {
          crow[j] = static_cast<float>(acc_row[j]);
        }
      }
    }
  });
  return c;
}

TensorF matmul_nt(const TensorF& a, const TensorF& w) {
  DRIFT_CHECK(a.shape().rank() == 2 && w.shape().rank() == 2,
              "matmul_nt needs rank-2 operands");
  const std::int64_t K = a.shape().dim(1);
  DRIFT_CHECK(w.shape().dim(1) == K, "inner dimension mismatch");
  const std::int64_t N = w.shape().dim(0);

  // Transpose w once and run the shared blocked kernel.  The previous
  // one-chain-per-output loop ran at less than half of matmul's
  // throughput: with w row-major every inner step walks N strided
  // weight streams, where matmul streams its operand row-contiguously
  // with L1 reuse across the row chunk.  One O(N*K) transpose is noise
  // next to the O(M*N*K) multiply, and the two entry points share a
  // single accumulation policy, so matmul_nt(A, W) == matmul(A, W^T)
  // bit for bit (the property suite pins exactly this identity).
  constexpr std::int64_t kTile = 32;
  TensorF wt(Shape{K, N});
  auto wd = w.data();
  auto td = wt.data();
  for (std::int64_t jt = 0; jt < N; jt += kTile) {
    const std::int64_t jend = std::min(jt + kTile, N);
    for (std::int64_t kt = 0; kt < K; kt += kTile) {
      const std::int64_t kend = std::min(kt + kTile, K);
      for (std::int64_t j = jt; j < jend; ++j) {
        for (std::int64_t k = kt; k < kend; ++k) {
          td[static_cast<std::size_t>(k * N + j)] =
              wd[static_cast<std::size_t>(j * K + k)];
        }
      }
    }
  }
  return matmul(a, wt);
}

void add_bias(TensorF& c, const TensorF& bias) {
  DRIFT_CHECK(c.shape().rank() == 2, "add_bias needs a rank-2 tensor");
  DRIFT_CHECK(bias.shape().rank() == 1 &&
                  bias.shape().dim(0) == c.shape().dim(1),
              "bias width mismatch");
  const std::int64_t M = c.shape().dim(0);
  const std::int64_t N = c.shape().dim(1);
  auto cd = c.data();
  auto bd = bias.data();
  util::parallel_for(0, M, kMc, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      float* crow = cd.data() + static_cast<std::size_t>(i * N);
      for (std::int64_t j = 0; j < N; ++j) {
        crow[j] += bd[static_cast<std::size_t>(j)];
      }
    }
  });
}

}  // namespace drift::nn
