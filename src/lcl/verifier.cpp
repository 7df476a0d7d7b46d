#include "lcl/verifier.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

// Runtime-dispatched wide clones of the bit-sliced word loops, following
// the transpose's dispatch mechanism in label_planes.cpp: baseline builds
// compile the AVX2/AVX-512 workers with target attributes and select them
// per call from bitslice::simdTier() (which folds in the LCLGRID_SIMD cap
// and the host CPU). Every tier produces bit-identical counts.
#if defined(__SSE2__)
#include <immintrin.h>
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define LCLGRID_VERIFY_AVX2 1
#define LCLGRID_VERIFY_AVX512 1
#endif
#endif

namespace lclgrid {

namespace {

using verifier_detail::kOutOfRange;

/// Row y of an nRows x n row-major labelling, wrapping cyclically for
/// y in [-nRows, 2 * nRows).
const int* rowAt(const int* labels, int n, int nRows, int y) {
  const int wrapped = y < 0 ? y + nRows : (y >= nRows ? y - nRows : y);
  return labels + static_cast<std::size_t>(wrapped) * n;
}

/// Table-driven kernel over grid rows [yBegin, yEnd) of one labelling, laid
/// out row-major (node y*n+x). Neighbour lookups use row pointers instead
/// of Torus2D::step, so the inner loop is a handful of loads, one table row
/// fetch and a bit test per node. Rows y-1 and y are checked before the
/// loop and row y+1 before row y reads it, so no out-of-range label indexes
/// the table (kOutOfRange instead). The row-range form is what the engine's
/// sharded verifier distributes across threads (per-shard accumulators,
/// combined in shard order, hence bit-identical to one serial sweep).
template <bool StopAtFirst>
std::int64_t tableViolations(const LclTable& table, int n, const int* labels,
                             int yBegin, int yEnd) {
  const auto rowOk = [&](int y) {
    return verifier_detail::allLabelsInRange(
        table.sigma(),
        std::span<const int>(rowAt(labels, n, n, y),
                             static_cast<std::size_t>(n)));
  };
  if (yBegin < yEnd && (!rowOk(yBegin - 1) || !rowOk(yBegin))) {
    return kOutOfRange;
  }
  std::int64_t bad = 0;
  for (int y = yBegin; y < yEnd; ++y) {
    if (!rowOk(y + 1)) return kOutOfRange;
    const int* row = labels + static_cast<std::size_t>(y) * n;
    const int* rowNorth = rowAt(labels, n, n, y + 1);
    const int* rowSouth = rowAt(labels, n, n, y - 1);
    for (int x = 0; x < n; ++x) {
      const int east = row[x + 1 == n ? 0 : x + 1];
      const int west = row[x == 0 ? n - 1 : x - 1];
      const std::uint64_t mask =
          table.centreMask(rowNorth[x], east, rowSouth[x], west);
      if (!((mask >> row[x]) & 1u)) {
        if constexpr (StopAtFirst) return 1;
        ++bad;
      }
    }
  }
  return bad;
}

// --- wide row workers for the fused notEqual kernel ------------------------
// One call processes one grid row: pass 1 fills hE[w] (the horizontal
// east-pair stream, wrap bit in the last word), pass 2 derives the west
// stream from hE, fuses the vertical streams and counts, writing vUp for
// reuse as the next row's down stream. The scalar single-pass loop in
// notEqualPlanesViolations computes the same words in a different order;
// the counts are identical bit for bit. Workers take a runtime plane count
// B so one function pointer type covers every alphabet.

using NotEqualRowFn = std::int64_t (*)(const std::uint64_t* curP,
                                       const std::uint64_t* nextP,
                                       const std::uint64_t* vPrev,
                                       std::uint64_t* vUp, std::uint64_t* hE,
                                       int B, std::size_t W,
                                       std::uint64_t tail, int topShift,
                                       bool stopAtFirst);

#if defined(LCLGRID_VERIFY_AVX2)

#if !defined(__AVX2__)
__attribute__((target("avx2")))
#endif
std::int64_t notEqualRowAvx2(const std::uint64_t* curP,
                             const std::uint64_t* nextP,
                             const std::uint64_t* vPrev, std::uint64_t* vUp,
                             std::uint64_t* hE, int B, std::size_t W,
                             std::uint64_t tail, int topShift,
                             bool stopAtFirst) {
  // Pass 1: hE. The vector body reads plane[w + 1 .. w + 4], so it stops
  // before the last word, whose east stream needs the wrap bit anyway.
  std::size_t w = 0;
  for (; w + 5 <= W; w += 4) {
    __m256i h = _mm256_setzero_si256();
    for (int b = 0; b < B; ++b) {
      const std::uint64_t* plane = curP + static_cast<std::size_t>(b) * W;
      const __m256i c =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(plane + w));
      const __m256i shifted =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(plane + w + 1));
      const __m256i east = _mm256_or_si256(_mm256_srli_epi64(c, 1),
                                           _mm256_slli_epi64(shifted, 63));
      h = _mm256_or_si256(h, _mm256_xor_si256(c, east));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(hE + w), h);
  }
  for (; w < W; ++w) {
    std::uint64_t h = 0;
    for (int b = 0; b < B; ++b) {
      const std::uint64_t* plane = curP + static_cast<std::size_t>(b) * W;
      std::uint64_t east = plane[w] >> 1;
      if (w + 1 < W) {
        east |= plane[w + 1] << 63;
      } else {
        east |= (plane[0] & 1u) << topShift;
      }
      h |= plane[w] ^ east;
    }
    hE[w] = h;
  }
  // Pass 2: west from hE, vertical streams, count. Word 0 and the tail
  // words run scalar (wrap carry / tail mask).
  std::int64_t bad = 0;
  {
    const std::uint64_t hW = (hE[0] << 1) | ((hE[W - 1] >> topShift) & 1u);
    std::uint64_t vU = 0;
    for (int b = 0; b < B; ++b) {
      vU |= curP[static_cast<std::size_t>(b) * W] ^
            nextP[static_cast<std::size_t>(b) * W];
    }
    vUp[0] = vU;
    const std::uint64_t ok = hE[0] & hW & vU & vPrev[0];
    const std::uint64_t violated = ~ok & (W == 1 ? tail : ~std::uint64_t{0});
    if (violated != 0) {
      if (stopAtFirst) return 1;
      bad += std::popcount(violated);
    }
  }
  std::size_t v = 1;
  for (; v + 4 < W; v += 4) {
    const __m256i he =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hE + v));
    const __m256i hePrev =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hE + v - 1));
    const __m256i hw = _mm256_or_si256(_mm256_slli_epi64(he, 1),
                                       _mm256_srli_epi64(hePrev, 63));
    __m256i vu = _mm256_setzero_si256();
    for (int b = 0; b < B; ++b) {
      const std::size_t off = static_cast<std::size_t>(b) * W + v;
      vu = _mm256_or_si256(
          vu, _mm256_xor_si256(_mm256_loadu_si256(
                                   reinterpret_cast<const __m256i*>(curP + off)),
                               _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                                   nextP + off))));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(vUp + v), vu);
    const __m256i ok = _mm256_and_si256(
        _mm256_and_si256(he, hw),
        _mm256_and_si256(vu, _mm256_loadu_si256(
                                 reinterpret_cast<const __m256i*>(vPrev + v))));
    const __m256i violated = _mm256_andnot_si256(ok, _mm256_set1_epi64x(-1));
    if (!_mm256_testz_si256(violated, violated)) {
      if (stopAtFirst) return 1;
      alignas(32) std::uint64_t lanes[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), violated);
      bad += std::popcount(lanes[0]) + std::popcount(lanes[1]) +
             std::popcount(lanes[2]) + std::popcount(lanes[3]);
    }
  }
  for (; v < W; ++v) {
    const std::uint64_t hW = (hE[v] << 1) | (hE[v - 1] >> 63);
    std::uint64_t vU = 0;
    for (int b = 0; b < B; ++b) {
      vU |= curP[static_cast<std::size_t>(b) * W + v] ^
            nextP[static_cast<std::size_t>(b) * W + v];
    }
    vUp[v] = vU;
    const std::uint64_t ok = hE[v] & hW & vU & vPrev[v];
    const std::uint64_t violated =
        ~ok & (v + 1 == W ? tail : ~std::uint64_t{0});
    if (violated != 0) {
      if (stopAtFirst) return 1;
      bad += std::popcount(violated);
    }
  }
  return bad;
}

#endif  // LCLGRID_VERIFY_AVX2

#if defined(LCLGRID_VERIFY_AVX512)

#if !defined(__AVX512F__) || !defined(__AVX512VPOPCNTDQ__)
__attribute__((target("avx512f,avx512vpopcntdq")))
#endif
std::int64_t notEqualRowAvx512(const std::uint64_t* curP,
                               const std::uint64_t* nextP,
                               const std::uint64_t* vPrev, std::uint64_t* vUp,
                               std::uint64_t* hE, int B, std::size_t W,
                               std::uint64_t tail, int topShift,
                               bool stopAtFirst) {
  std::size_t w = 0;
  for (; w + 9 <= W; w += 8) {
    __m512i h = _mm512_setzero_si512();
    for (int b = 0; b < B; ++b) {
      const std::uint64_t* plane = curP + static_cast<std::size_t>(b) * W;
      const __m512i c = _mm512_loadu_si512(plane + w);
      const __m512i shifted = _mm512_loadu_si512(plane + w + 1);
      const __m512i east =
          _mm512_or_si512(_mm512_maskz_srli_epi64(0xFF, c, 1),
                          _mm512_maskz_slli_epi64(0xFF, shifted, 63));
      h = _mm512_or_si512(h, _mm512_xor_si512(c, east));
    }
    _mm512_storeu_si512(hE + w, h);
  }
  for (; w < W; ++w) {
    std::uint64_t h = 0;
    for (int b = 0; b < B; ++b) {
      const std::uint64_t* plane = curP + static_cast<std::size_t>(b) * W;
      std::uint64_t east = plane[w] >> 1;
      if (w + 1 < W) {
        east |= plane[w + 1] << 63;
      } else {
        east |= (plane[0] & 1u) << topShift;
      }
      h |= plane[w] ^ east;
    }
    hE[w] = h;
  }
  std::int64_t bad = 0;
  {
    const std::uint64_t hW = (hE[0] << 1) | ((hE[W - 1] >> topShift) & 1u);
    std::uint64_t vU = 0;
    for (int b = 0; b < B; ++b) {
      vU |= curP[static_cast<std::size_t>(b) * W] ^
            nextP[static_cast<std::size_t>(b) * W];
    }
    vUp[0] = vU;
    const std::uint64_t ok = hE[0] & hW & vU & vPrev[0];
    const std::uint64_t violated = ~ok & (W == 1 ? tail : ~std::uint64_t{0});
    if (violated != 0) {
      if (stopAtFirst) return 1;
      bad += std::popcount(violated);
    }
  }
  std::size_t v = 1;
  for (; v + 8 < W; v += 8) {
    const __m512i he = _mm512_loadu_si512(hE + v);
    const __m512i hePrev = _mm512_loadu_si512(hE + v - 1);
    const __m512i hw =
        _mm512_or_si512(_mm512_maskz_slli_epi64(0xFF, he, 1),
                        _mm512_maskz_srli_epi64(0xFF, hePrev, 63));
    __m512i vu = _mm512_setzero_si512();
    for (int b = 0; b < B; ++b) {
      const std::size_t off = static_cast<std::size_t>(b) * W + v;
      vu = _mm512_or_si512(vu,
                           _mm512_xor_si512(_mm512_loadu_si512(curP + off),
                                            _mm512_loadu_si512(nextP + off)));
    }
    _mm512_storeu_si512(vUp + v, vu);
    const __m512i ok = _mm512_and_si512(
        _mm512_and_si512(he, hw),
        _mm512_and_si512(vu, _mm512_loadu_si512(vPrev + v)));
    const __m512i violated = _mm512_xor_si512(ok, _mm512_set1_epi64(-1));
    if (_mm512_test_epi64_mask(violated, violated) != 0) {
      if (stopAtFirst) return 1;
      alignas(64) std::uint64_t lanes[8];
      _mm512_store_si512(lanes, _mm512_popcnt_epi64(violated));
      for (const std::uint64_t count : lanes) {
        bad += static_cast<std::int64_t>(count);
      }
    }
  }
  for (; v < W; ++v) {
    const std::uint64_t hW = (hE[v] << 1) | (hE[v - 1] >> 63);
    std::uint64_t vU = 0;
    for (int b = 0; b < B; ++b) {
      vU |= curP[static_cast<std::size_t>(b) * W + v] ^
            nextP[static_cast<std::size_t>(b) * W + v];
    }
    vUp[v] = vU;
    const std::uint64_t ok = hE[v] & hW & vU & vPrev[v];
    const std::uint64_t violated =
        ~ok & (v + 1 == W ? tail : ~std::uint64_t{0});
    if (violated != 0) {
      if (stopAtFirst) return 1;
      bad += std::popcount(violated);
    }
  }
  return bad;
}

#endif  // LCLGRID_VERIFY_AVX512

/// The widest worker worth running at this row width (the vector bodies
/// need enough words to engage; below the floor the scalar loop wins), or
/// nullptr for the scalar path. simdTier() folds in the LCLGRID_SIMD cap
/// and host support, so a capped process takes the exact fallback path a
/// narrower machine would.
NotEqualRowFn selectNotEqualRowFn(std::size_t W) {
#if defined(LCLGRID_VERIFY_AVX512)
  if (W >= 12 && bitslice::simdTier() >= bitslice::SimdTier::kAvx512) {
    return &notEqualRowAvx512;
  }
#endif
#if defined(LCLGRID_VERIFY_AVX2)
  if (W >= 6 && bitslice::simdTier() >= bitslice::SimdTier::kAvx2) {
    return &notEqualRowAvx2;
  }
#endif
  (void)W;
  return nullptr;
}

/// Fused fast path of the pair-planes kernel for colouring-shaped tables:
/// both networks are `lo != hi`, so a pair stream is one XOR + OR per
/// plane and the whole row collapses into a single word pass -- the east
/// stream is read from the pre-shifted planes, the west stream is derived
/// from the east stream with a carried bit instead of a buffer pass, and
/// the up stream is stored for reuse as the next row's down stream.
/// Compile-time B keeps the plane loops unrolled. Wide rows dispatch each
/// row to the AVX2/AVX-512 worker selected above instead.
template <bool StopAtFirst, int B>
std::int64_t notEqualPlanesViolations(int sigma, int n, int nRows,
                                      const int* labels, int yBegin,
                                      int yEnd) {
  const std::size_t W = bitslice::wordsPerRow(n);
  const std::uint64_t tail = bitslice::rowTailMask(n);
  const int topShift = (n - 1) & 63;
  const NotEqualRowFn rowFn = selectNotEqualRowFn(W);
  std::vector<std::uint64_t> store(
      (static_cast<std::size_t>(B) * 3 + 3) * W);
  std::uint64_t* prevP = store.data();
  std::uint64_t* curP = prevP + static_cast<std::size_t>(B) * W;
  std::uint64_t* nextP = curP + static_cast<std::size_t>(B) * W;
  std::uint64_t* vUp = nextP + static_cast<std::size_t>(B) * W;
  std::uint64_t* vPrev = vUp + W;
  std::uint64_t* hBuf = vPrev + W;  // hE scratch of the wide workers
  // East word w of plane b, in-sweep: the one-bit cyclic shift of the
  // cur plane, with the wrap bit (x = n-1 <- x = 0) landing in the last
  // word -- no shifted-plane buffer pass needed.
  const auto eastWord = [&](const std::uint64_t* plane, std::size_t w) {
    std::uint64_t word = plane[w] >> 1;
    if (w + 1 < W) {
      word |= plane[w + 1] << 63;
    } else {
      word |= (plane[0] & 1u) << topShift;
    }
    return word;
  };
  // The transpose range-checks each row as it loads it.
  const auto transpose = [&](int y, std::uint64_t* out) {
    return bitslice::transposeRow(rowAt(labels, n, nRows, y), n, B, sigma,
                                  out);
  };
  if (!transpose(yBegin - 1, prevP) || !transpose(yBegin, curP)) {
    return kOutOfRange;
  }
  for (std::size_t w = 0; w < W; ++w) {
    std::uint64_t diff = 0;
    for (int b = 0; b < B; ++b) {
      diff |= prevP[static_cast<std::size_t>(b) * W + w] ^
              curP[static_cast<std::size_t>(b) * W + w];
    }
    vPrev[w] = diff;
  }
  std::int64_t bad = 0;
  for (int y = yBegin; y < yEnd; ++y) {
    if (!transpose(y + 1, nextP)) return kOutOfRange;
    if (rowFn != nullptr) {
      const std::int64_t rowBad = rowFn(curP, nextP, vPrev, vUp, hBuf, B, W,
                                        tail, topShift, StopAtFirst);
      if (rowBad != 0) {
        if constexpr (StopAtFirst) return 1;
        bad += rowBad;
      }
    } else {
      // The west stream needs the east stream's wrap bit (x = n-1, always
      // in the last word) before the forward sweep reaches it.
      std::uint64_t hLast = 0;
      for (int b = 0; b < B; ++b) {
        const std::uint64_t* plane = curP + static_cast<std::size_t>(b) * W;
        hLast |= plane[W - 1] ^ eastWord(plane, W - 1);
      }
      std::uint64_t carry = (hLast >> topShift) & 1u;
      for (std::size_t w = 0; w < W; ++w) {
        std::uint64_t hE;
        if (w + 1 == W) {
          hE = hLast;
        } else {
          hE = 0;
          for (int b = 0; b < B; ++b) {
            const std::uint64_t* plane =
                curP + static_cast<std::size_t>(b) * W;
            hE |= plane[w] ^ eastWord(plane, w);
          }
        }
        const std::uint64_t hW = (hE << 1) | carry;
        carry = hE >> 63;
        std::uint64_t vU = 0;
        for (int b = 0; b < B; ++b) {
          vU |= curP[static_cast<std::size_t>(b) * W + w] ^
                nextP[static_cast<std::size_t>(b) * W + w];
        }
        vUp[w] = vU;
        const std::uint64_t ok = hE & hW & vU & vPrev[w];
        const std::uint64_t violated =
            ~ok & (w + 1 == W ? tail : ~std::uint64_t{0});
        if (violated != 0) {
          if constexpr (StopAtFirst) return 1;
          bad += std::popcount(violated);
        }
      }
    }
    std::uint64_t* spare = prevP;
    prevP = curP;
    curP = nextP;
    nextP = spare;
    std::swap(vPrev, vUp);
  }
  return bad;
}

/// Bit-sliced kernel, pair-planes shape, over grid rows [yBegin, yEnd) of
/// an nRows x n row-major labelling (rows wrap cyclically, so a shard is
/// self-contained). Rows are transposed into rolling prev/cur/next
/// bit-plane buffers; the h/v pair networks then decide 64 nodes per word:
/// node x of row y is feasible iff
///   H(c[x-1], c[x]) & H(c[x], c[x+1]) & V(c[y-1][x], c) & V(c, c[y+1][x]),
/// where the west stream is the east stream shifted one bit and the
/// down stream is the previous row's up stream (both rolled, so every
/// pair network evaluates once per row).
template <bool StopAtFirst>
std::int64_t pairPlanesViolations(const bitslice::BitslicePlan& plan,
                                  int sigma, int n, int nRows,
                                  const int* labels, int yBegin, int yEnd) {
  if (plan.h.notEqual && plan.v.notEqual) {
    switch (plan.planes) {
      case 1:
        return notEqualPlanesViolations<StopAtFirst, 1>(sigma, n, nRows,
                                                        labels, yBegin, yEnd);
      case 2:
        return notEqualPlanesViolations<StopAtFirst, 2>(sigma, n, nRows,
                                                        labels, yBegin, yEnd);
      case 3:
        return notEqualPlanesViolations<StopAtFirst, 3>(sigma, n, nRows,
                                                        labels, yBegin, yEnd);
      default:
        break;  // unreachable for sigma <= 8; fall through to generic
    }
  }
  const int B = plan.planes;
  const std::size_t W = bitslice::wordsPerRow(n);
  const std::uint64_t tail = bitslice::rowTailMask(n);
  std::vector<std::uint64_t> store(
      (static_cast<std::size_t>(B) * 4 + 4) * W);
  std::uint64_t* prevP = store.data();
  std::uint64_t* curP = prevP + static_cast<std::size_t>(B) * W;
  std::uint64_t* nextP = curP + static_cast<std::size_t>(B) * W;
  std::uint64_t* eastP = nextP + static_cast<std::size_t>(B) * W;
  std::uint64_t* hEast = eastP + static_cast<std::size_t>(B) * W;
  std::uint64_t* hWest = hEast + W;
  std::uint64_t* vUp = hWest + W;
  std::uint64_t* vPrev = vUp + W;
  // The transpose range-checks each row as it loads it.
  const auto transpose = [&](int y, std::uint64_t* out) {
    return bitslice::transposeRow(rowAt(labels, n, nRows, y), n, B, sigma,
                                  out);
  };
  if (!transpose(yBegin - 1, prevP) || !transpose(yBegin, curP)) {
    return kOutOfRange;
  }
  plan.v.eval(prevP, curP, W, vPrev);  // bit x = V(c[y-1][x], c[y][x])
  std::int64_t bad = 0;
  for (int y = yBegin; y < yEnd; ++y) {
    if (!transpose(y + 1, nextP)) return kOutOfRange;
    for (int b = 0; b < B; ++b) {
      bitslice::shiftUpCyclic(curP + static_cast<std::size_t>(b) * W,
                              eastP + static_cast<std::size_t>(b) * W, n);
    }
    plan.h.eval(curP, eastP, W, hEast);   // bit x = H(c[x], c[x+1])
    bitslice::shiftDownCyclic(hEast, hWest, n);  // bit x = H(c[x-1], c[x])
    plan.v.eval(curP, nextP, W, vUp);     // bit x = V(c[y][x], c[y+1][x])
    for (std::size_t w = 0; w < W; ++w) {
      const std::uint64_t ok = hEast[w] & hWest[w] & vUp[w] & vPrev[w];
      const std::uint64_t violated =
          ~ok & (w + 1 == W ? tail : ~std::uint64_t{0});
      if (violated != 0) {
        if constexpr (StopAtFirst) return 1;
        bad += std::popcount(violated);
      }
    }
    std::uint64_t* spare = prevP;
    prevP = curP;
    curP = nextP;
    nextP = spare;
    std::swap(vPrev, vUp);
  }
  return bad;
}

// --- packed-label helpers (the sigma <= 4 non-decomposable tier) ---------

std::size_t byteWords(int n) {
  return (static_cast<std::size_t>(n) + 7) / 8;
}

std::uint64_t byteTailMask(int n) {
  const int rem = n % 8;
  return rem == 0 ? ~std::uint64_t{0}
                  : (std::uint64_t{1} << (8 * rem)) - 1;
}

/// Packs one row of n labels into byte lanes, 8 per word; lanes >= n are
/// zero. Checks the labels on the same loads, as bitslice::transposeRow
/// does: returns false, with `out` unspecified, iff some label lies
/// outside [0, sigma) (sigma <= 4).
bool packByteRow(const int* labels, int n, int sigma, std::uint64_t* out) {
  const unsigned top = static_cast<unsigned>(sigma) - 1u;
  unsigned outside = 0;
  const std::size_t W8 = byteWords(n);
  std::size_t w = 0;
#if defined(__SSE2__)
  // Whole words: two pack stages narrow 8 labels to their 8 byte lanes;
  // the check tests the saturated int16 lanes of the first.
  const __m128i top16 = _mm_set1_epi16(static_cast<short>(top));
  __m128i outsideV = _mm_setzero_si128();
  for (; (w + 1) * 8 <= static_cast<std::size_t>(n); ++w) {
    const int* p = labels + w * 8;
    const __m128i halves = _mm_packs_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 4)));
    outsideV = _mm_or_si128(
        outsideV, _mm_or_si128(halves, _mm_sub_epi16(top16, halves)));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + w),
                     _mm_packus_epi16(halves, halves));
  }
  if ((_mm_movemask_epi8(outsideV) & 0xAAAA) != 0) return false;
#endif
  for (; w < W8; ++w) {
    const int base = static_cast<int>(w) * 8;
    const int m = std::min(8, n - base);
    std::uint64_t word = 0;
    for (int i = 0; i < m; ++i) {
      const unsigned label = static_cast<unsigned>(labels[base + i]);
      outside |= label | (top - label);
      word |= static_cast<std::uint64_t>(label & 0xFFu) << (8 * i);
    }
    out[w] = word;
  }
  return (outside >> 31) == 0;
}

/// dst lane x = src lane (x + 1 mod n) / (x - 1 mod n): the byte-lane
/// siblings of the bit shifts in label_planes.hpp.
void shiftByteUp(const std::uint64_t* src, std::uint64_t* dst, int n) {
  const std::size_t W8 = byteWords(n);
  for (std::size_t w = 0; w + 1 < W8; ++w) {
    dst[w] = (src[w] >> 8) | (src[w + 1] << 56);
  }
  dst[W8 - 1] = src[W8 - 1] >> 8;
  const int top = n - 1;
  dst[top / 8] |= (src[0] & 0xFFu) << (8 * (top % 8));
}

void shiftByteDown(const std::uint64_t* src, std::uint64_t* dst, int n) {
  const std::size_t W8 = byteWords(n);
  for (std::size_t w = W8; w-- > 1;) {
    dst[w] = (src[w] << 8) | (src[w - 1] >> 56);
  }
  dst[0] = src[0] << 8;
  const int top = n - 1;
  dst[0] |= (src[top / 8] >> (8 * (top % 8))) & 0xFFu;
  dst[W8 - 1] &= byteTailMask(n);
}

// --- wide row workers for the nibble-LUT kernel ----------------------------
// One call decides one packed row. The AVX2 worker gathers 8 LUT entries
// per word from a 32-bit-expanded copy of the table and variable-shifts by
// the west lanes; the AVX-512 worker holds the whole 256-byte table in
// four registers and resolves 64 nodes per step with two byte permutes, a
// sign-bit blend and a byte test. Tail lanes run the scalar extraction, so
// counts are bit-identical to the scalar loop on every row width.

using NibbleRowFn = std::int64_t (*)(const std::uint8_t* byWest,
                                     const std::uint32_t* lut32,
                                     const std::uint64_t* south,
                                     const std::uint64_t* cur,
                                     const std::uint64_t* north,
                                     const std::uint64_t* east,
                                     const std::uint64_t* west, int n,
                                     bool stopAtFirst);

/// The scalar per-lane extraction over words [wBegin, byteWords(n)), shared
/// by the wide workers' tails.
std::int64_t nibbleLanesScalar(const std::uint8_t* byWest,
                               const std::uint64_t* south,
                               const std::uint64_t* cur,
                               const std::uint64_t* north,
                               const std::uint64_t* east,
                               const std::uint64_t* west, int n,
                               std::size_t wBegin, bool stopAtFirst) {
  std::int64_t bad = 0;
  const std::size_t W8 = byteWords(n);
  for (std::size_t w = wBegin; w < W8; ++w) {
    std::uint64_t key =
        cur[w] | (north[w] << 2) | (east[w] << 4) | (south[w] << 6);
    std::uint64_t wv = west[w];
    const int m = std::min(8, n - static_cast<int>(w) * 8);
    for (int i = 0; i < m; ++i) {
      if (!((byWest[static_cast<std::size_t>(key & 0xFFu)] >> (wv & 3u)) &
            1u)) {
        if (stopAtFirst) return 1;
        ++bad;
      }
      key >>= 8;
      wv >>= 8;
    }
  }
  return bad;
}

#if defined(LCLGRID_VERIFY_AVX2)

#if !defined(__AVX2__)
__attribute__((target("avx2")))
#endif
std::int64_t nibbleRowAvx2(const std::uint8_t* byWest,
                           const std::uint32_t* lut32,
                           const std::uint64_t* south,
                           const std::uint64_t* cur,
                           const std::uint64_t* north,
                           const std::uint64_t* east,
                           const std::uint64_t* west, int n,
                           bool stopAtFirst) {
  std::int64_t bad = 0;
  const __m256i one = _mm256_set1_epi32(1);
  std::size_t w = 0;
  for (; (w + 1) * 8 <= static_cast<std::size_t>(n); ++w) {
    // Disjoint two-bit fields, so the lane-parallel ORs cannot carry.
    const std::uint64_t key =
        cur[w] | (north[w] << 2) | (east[w] << 4) | (south[w] << 6);
    const __m256i keys = _mm256_cvtepu8_epi32(
        _mm_cvtsi64_si128(static_cast<long long>(key)));
    const __m256i wests = _mm256_cvtepu8_epi32(
        _mm_cvtsi64_si128(static_cast<long long>(west[w])));
    const __m256i entry = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(lut32), keys, 4);
    const __m256i bit =
        _mm256_and_si256(_mm256_srlv_epi32(entry, wests), one);
    const __m256i violated =
        _mm256_cmpeq_epi32(bit, _mm256_setzero_si256());
    const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(violated));
    if (mask != 0) {
      if (stopAtFirst) return 1;
      bad += std::popcount(static_cast<unsigned>(mask));
    }
  }
  const std::int64_t tailBad =
      nibbleLanesScalar(byWest, south, cur, north, east, west, n, w,
                        stopAtFirst);
  if (stopAtFirst && tailBad > 0) return 1;
  return bad + tailBad;
}

#endif  // LCLGRID_VERIFY_AVX2

#if defined(LCLGRID_VERIFY_AVX512)

#if !defined(__AVX512F__) || !defined(__AVX512BW__) || !defined(__AVX512VBMI__)
__attribute__((target("avx512f,avx512bw,avx512vbmi")))
#endif
std::int64_t nibbleRowAvx512(const std::uint8_t* byWest,
                             const std::uint32_t* /*lut32*/,
                             const std::uint64_t* south,
                             const std::uint64_t* cur,
                             const std::uint64_t* north,
                             const std::uint64_t* east,
                             const std::uint64_t* west, int n,
                             bool stopAtFirst) {
  std::int64_t bad = 0;
  // The whole 256-entry table in four registers; permutex2var reads index
  // bits [6:0] and the key's bit 7 blends the halves.
  const __m512i z0 = _mm512_loadu_si512(byWest);
  const __m512i z1 = _mm512_loadu_si512(byWest + 64);
  const __m512i z2 = _mm512_loadu_si512(byWest + 128);
  const __m512i z3 = _mm512_loadu_si512(byWest + 192);
  // shuffle_epi8 indexes within 16-byte groups, so {1, 2, 4, 8} repeated
  // per dword turns a west lane (0..3) into its bit mask 1 << west.
  const __m512i westBitTable = _mm512_set1_epi32(0x08040201);
  std::size_t w = 0;
  for (; (w + 8) * 8 <= static_cast<std::size_t>(n); w += 8) {
    const __m512i c = _mm512_loadu_si512(cur + w);
    const __m512i nrt = _mm512_loadu_si512(north + w);
    const __m512i e = _mm512_loadu_si512(east + w);
    const __m512i s = _mm512_loadu_si512(south + w);
    const __m512i wst = _mm512_loadu_si512(west + w);
    const __m512i key = _mm512_or_si512(
        _mm512_or_si512(c, _mm512_maskz_slli_epi64(0xFF, nrt, 2)),
        _mm512_or_si512(_mm512_maskz_slli_epi64(0xFF, e, 4),
                        _mm512_maskz_slli_epi64(0xFF, s, 6)));
    const __mmask64 high = _mm512_movepi8_mask(key);
    const __m512i lowVal = _mm512_permutex2var_epi8(z0, key, z1);
    const __m512i highVal = _mm512_permutex2var_epi8(z2, key, z3);
    const __m512i entry = _mm512_mask_blend_epi8(high, lowVal, highVal);
    const __m512i westBit = _mm512_shuffle_epi8(westBitTable, wst);
    const __mmask64 ok = _mm512_test_epi8_mask(entry, westBit);
    const std::uint64_t violated = ~static_cast<std::uint64_t>(ok);
    if (violated != 0) {
      if (stopAtFirst) return 1;
      bad += std::popcount(violated);
    }
  }
  const std::int64_t tailBad =
      nibbleLanesScalar(byWest, south, cur, north, east, west, n, w,
                        stopAtFirst);
  if (stopAtFirst && tailBad > 0) return 1;
  return bad + tailBad;
}

#endif  // LCLGRID_VERIFY_AVX512

/// Widest nibble worker worth running at this row length (floors keep rows
/// with no full vector word on the scalar loop), or nullptr for scalar.
NibbleRowFn selectNibbleRowFn(int n) {
#if defined(LCLGRID_VERIFY_AVX512)
  if (n >= 64 && bitslice::simdTier() >= bitslice::SimdTier::kAvx512) {
    return &nibbleRowAvx512;
  }
#endif
#if defined(LCLGRID_VERIFY_AVX2)
  if (n >= 16 && bitslice::simdTier() >= bitslice::SimdTier::kAvx2) {
    return &nibbleRowAvx2;
  }
#endif
  (void)n;
  return nullptr;
}

/// Bit-sliced kernel, nibble-LUT shape: rows packed into byte lanes
/// (rolling south/cur/north buffers plus shifted east/west views of the
/// current row). The two-bit label fields c, n, e, s are fused into one
/// key byte per node lane-parallel (three shift+ors per word of 8 nodes),
/// so the per-node work is one byte extraction into a 256-entry table of
/// per-west-label validity bits -- the LUT's low 8 index bits, with the
/// west label selecting the bit. Long rows dispatch to the gather/permute
/// workers above instead.
template <bool StopAtFirst>
std::int64_t nibbleViolations(const bitslice::NibbleLut& lut, int sigma,
                              int n, int nRows, const int* labels,
                              int yBegin, int yEnd) {
  const std::array<std::uint8_t, 256>& byW = lut.byWest;
  const NibbleRowFn rowFn = selectNibbleRowFn(n);
  std::array<std::uint32_t, 256> lut32{};
  if (rowFn != nullptr) {
    // The AVX2 gather reads 32-bit entries; widen the byte table once.
    for (std::size_t i = 0; i < byW.size(); ++i) lut32[i] = byW[i];
  }
  const std::size_t W8 = byteWords(n);
  std::vector<std::uint64_t> store(5 * W8);
  std::uint64_t* south = store.data();
  std::uint64_t* cur = south + W8;
  std::uint64_t* north = cur + W8;
  std::uint64_t* east = north + W8;
  std::uint64_t* west = east + W8;
  // The packing range-checks each row as it loads it.
  const auto pack = [&](int y, std::uint64_t* out) {
    return packByteRow(rowAt(labels, n, nRows, y), n, sigma, out);
  };
  if (!pack(yBegin - 1, south) || !pack(yBegin, cur)) return kOutOfRange;
  std::int64_t bad = 0;
  for (int y = yBegin; y < yEnd; ++y) {
    if (!pack(y + 1, north)) return kOutOfRange;
    shiftByteUp(cur, east, n);
    shiftByteDown(cur, west, n);
    if (rowFn != nullptr) {
      const std::int64_t rowBad = rowFn(byW.data(), lut32.data(), south, cur,
                                        north, east, west, n, StopAtFirst);
      if (rowBad != 0) {
        if constexpr (StopAtFirst) return 1;
        bad += rowBad;
      }
    } else {
      for (std::size_t w = 0; w < W8; ++w) {
        // Disjoint two-bit fields, so the lane-parallel ORs cannot carry.
        std::uint64_t key =
            cur[w] | (north[w] << 2) | (east[w] << 4) | (south[w] << 6);
        std::uint64_t wv = west[w];
        const int m = std::min(8, n - static_cast<int>(w) * 8);
        for (int i = 0; i < m; ++i) {
          if (!((byW[static_cast<std::size_t>(key & 0xFFu)] >> (wv & 3u)) &
                1u)) {
            if constexpr (StopAtFirst) return 1;
            ++bad;
          }
          key >>= 8;
          wv >>= 8;
        }
      }
    }
    std::uint64_t* spare = south;
    south = cur;
    cur = north;
    north = spare;
  }
  return bad;
}

template <bool StopAtFirst>
std::int64_t bitsliceViolations(const bitslice::BitslicePlan& plan, int sigma,
                                int n, int nRows, const int* labels,
                                int yBegin, int yEnd) {
  if (plan.kind == bitslice::BitslicePlan::Kind::kPairPlanes) {
    return pairPlanesViolations<StopAtFirst>(plan, sigma, n, nRows, labels,
                                             yBegin, yEnd);
  }
  return nibbleViolations<StopAtFirst>(plan.nibble, sigma, n, nRows, labels,
                                       yBegin, yEnd);
}

}  // namespace

std::vector<Violation> listViolations(const Torus2D& torus, const GridLcl& lcl,
                                      std::span<const int> labels,
                                      int maxReported) {
  if (static_cast<int>(labels.size()) != torus.size()) {
    throw std::invalid_argument("listViolations: labelling size mismatch");
  }
  std::vector<Violation> violations;
  for (int v = 0; v < torus.size() &&
                  static_cast<int>(violations.size()) < maxReported;
       ++v) {
    int c = labels[static_cast<std::size_t>(v)];
    if (c < 0 || c >= lcl.sigma()) {
      violations.push_back({v, "label out of alphabet"});
      continue;
    }
    int n = labels[static_cast<std::size_t>(torus.step(v, Dir::North))];
    int e = labels[static_cast<std::size_t>(torus.step(v, Dir::East))];
    int s = labels[static_cast<std::size_t>(torus.step(v, Dir::South))];
    int w = labels[static_cast<std::size_t>(torus.step(v, Dir::West))];
    if (!lcl.allows(c, n, e, s, w)) {
      std::ostringstream os;
      auto [x, y] = torus.xy(v);
      os << "constraint violated at (" << x << "," << y << "): c="
         << lcl.labelName(c) << " n=" << lcl.labelName(n) << " e="
         << lcl.labelName(e) << " s=" << lcl.labelName(s) << " w="
         << lcl.labelName(w);
      violations.push_back({v, os.str()});
    }
  }
  return violations;
}

namespace verifier_detail {

bool allLabelsInRange(int sigma, std::span<const int> labels) {
  // Branch-free so it vectorises: in unsigned arithmetic label |
  // (sigma - 1 - label) has its top bit set exactly when the label is
  // negative or above sigma - 1, and the OR over the span keeps that bit.
  const unsigned top = static_cast<unsigned>(sigma) - 1u;
  unsigned outside = 0;
  for (const int label : labels) {
    const unsigned value = static_cast<unsigned>(label);
    outside |= value | (top - value);
  }
  return (outside >> 31) == 0;
}

std::int64_t tableViolationRows(const LclTable& table, int n,
                                const int* labels, int yBegin, int yEnd,
                                bool stopAtFirst) {
  return stopAtFirst
             ? tableViolations<true>(table, n, labels, yBegin, yEnd)
             : tableViolations<false>(table, n, labels, yBegin, yEnd);
}

std::int64_t bitsliceViolationRows(const LclTable& table, int n, int nRows,
                                   const int* labels, int yBegin, int yEnd,
                                   bool stopAtFirst) {
  const bitslice::BitslicePlan& plan = *table.bitslicePlan();
  return stopAtFirst ? bitsliceViolations<true>(plan, table.sigma(), n, nRows,
                                                labels, yBegin, yEnd)
                     : bitsliceViolations<false>(plan, table.sigma(), n,
                                                 nRows, labels, yBegin, yEnd);
}

}  // namespace verifier_detail

std::string renderLabelling(const Torus2D& torus, const GridLcl& lcl,
                            std::span<const int> labels) {
  std::ostringstream os;
  for (int y = torus.n() - 1; y >= 0; --y) {
    for (int x = 0; x < torus.n(); ++x) {
      if (x > 0) os << " ";
      os << lcl.labelName(labels[static_cast<std::size_t>(torus.id(x, y))]);
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace lclgrid
