#include "tensor/gemm.hpp"

#include <cstring>

namespace teamnet {

// The accumulate kernels start on a 64-byte boundary, so where their inner
// loops fall relative to cache-line and fetch-window boundaries depends
// only on this file, not on how much code the linker places before them.
// Unaligned, an unrelated change elsewhere in the binary can shift
// gemm_accumulate; on a 4-vCPU VM (GCC 12, -O2) one such shift cost the
// forward pass about a third of its GEMM throughput.
[[gnu::aligned(64)]] void gemm_accumulate(const float* a, const float* b,
                                          float* c, std::int64_t m,
                                          std::int64_t k, std::int64_t n) {
  // i-k-j ordering keeps the inner loop streaming over contiguous rows of B
  // and C, which the compiler auto-vectorizes.
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n) {
  std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  gemm_accumulate(a, b, c, m, k, n);
}

[[gnu::aligned(64)]] void gemm_tn_accumulate(const float* a, const float* b,
                                             float* c, std::int64_t m,
                                             std::int64_t k, std::int64_t n) {
  // C[i,j] += sum_p A[p,i] * B[p,j]; iterate p outermost so both B and C rows
  // stream contiguously.
  for (std::int64_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

[[gnu::aligned(64)]] void gemm_nt_accumulate(const float* a, const float* b,
                                             float* c, std::int64_t m,
                                             std::int64_t k, std::int64_t n) {
  // C[i,j] += dot(A[i,:], B[j,:]) — both operands row-contiguous.
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

}  // namespace teamnet
