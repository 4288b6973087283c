#include "blas/packing.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "support/str.hpp"

namespace lamb::blas {

using la::ConstMatrixView;
using la::index_t;

namespace {

/// The one runtime-to-compile-time width switch: returns
/// pack(std::integral_constant<index_t, W>{}) for the W among `Widths` that
/// equals `width`, and fails a LAMB_CHECK for any other width.
template <index_t... Widths, typename Pack>
const double* at_width(index_t width, const char* what, Pack&& pack) {
  const double* out = nullptr;
  const bool supported =
      ((width == Widths &&
        (out = pack(std::integral_constant<index_t, Widths>{}), true)) ||
       ...);
  LAMB_CHECK(supported, support::strf("%s: unsupported micro-panel width %td",
                                      what, width));
  return out;
}

/// Packs a panel whose packed row p is the contiguous source run
/// src[p * ld, p * ld + n), n <= W: one W-wide copy per p, zero-padded past
/// n. Plain A (runs down a column of A) and B^T (runs down a column of B)
/// both pack this way.
template <index_t W>
void pack_runs(const double* src, index_t ld, index_t n, index_t kc,
               double* dst) {
  if (n == W) {
    // A constant-size memcpy compiles to a few vector moves, no call; GCC 12
    // vectorises the equivalent element loop worse at W = 6 (0.6x).
    for (index_t p = 0; p < kc; ++p) {
      std::memcpy(dst + p * W, src + p * ld, W * sizeof(double));
    }
    return;
  }
  for (index_t p = 0; p < kc; ++p) {
    for (index_t i = 0; i < W; ++i) {
      dst[p * W + i] = 0.0;
    }
    for (index_t i = 0; i < n; ++i) {
      dst[p * W + i] = src[p * ld + i];
    }
  }
}

/// Packs a panel whose packed row p is src[p + j * ld] for j < n <= W: the n
/// source columns are read side by side and each packed row is written
/// contiguously, zero-padded past n. Plain B packs this way.
template <index_t W>
void pack_columns(const double* src, index_t ld, index_t n, index_t kc,
                  double* dst) {
  if (n == W) {
    for (index_t p = 0; p < kc; ++p) {
      for (index_t j = 0; j < W; ++j) {
        dst[p * W + j] = src[p + j * ld];
      }
    }
    return;
  }
  for (index_t p = 0; p < kc; ++p) {
    for (index_t j = 0; j < W; ++j) {
      dst[p * W + j] = 0.0;
    }
    for (index_t j = 0; j < n; ++j) {
      dst[p * W + j] = src[p + j * ld];
    }
  }
}

/// pack_a at a compile-time panel width MR.
template <index_t MR>
void pack_a_panels(ReadA read, ConstMatrixView a, index_t ic, index_t pc,
                   index_t mc, index_t kc, double* dst) {
  for (index_t i0 = ic; i0 < ic + mc; i0 += MR, dst += MR * kc) {
    const index_t rows = std::min(MR, ic + mc - i0);
    if (read == ReadA::kPlain) {
      // Panel column p is a contiguous run down column pc+p of A.
      pack_runs<MR>(&a(i0, pc), a.ld(), rows, kc, dst);
      continue;
    }
    // Element (i, p) is read mirrored, as A(pc+p, i0+i), where p - i >
    // diag: above a symmetric A's diagonal and everywhere for op(A) = A^T.
    // The other rows of panel column p, [p - diag, rows), are a contiguous
    // run down column pc+p of A. A partial panel's columns are zeroed first,
    // at full width, so its fringe rows stay zero.
    const index_t diag = read == ReadA::kSymmetric ? i0 - pc : -MR;
    for (index_t p = 0; p < kc; ++p) {
      double* panel_col = dst + p * MR;
      if (rows < MR) {
        for (index_t i = 0; i < MR; ++i) {
          panel_col[i] = 0.0;
        }
      }
      for (index_t i = std::clamp(p - diag, index_t{0}, rows); i < rows; ++i) {
        panel_col[i] = a(i0 + i, pc + p);
      }
    }
    // Mirrored runs are contiguous down column i0+i of A, so they are copied
    // i outer / p inner.
    for (index_t i = 0; i < rows; ++i) {
      for (index_t p = std::clamp(i + diag + 1, index_t{0}, kc); p < kc; ++p) {
        dst[p * MR + i] = a(pc + p, i0 + i);
      }
    }
  }
}

}  // namespace

double* PackBuffer::reserve(index_t n) {
  if (n > capacity_) {
    data_ = std::make_unique_for_overwrite<double[]>(
        static_cast<std::size_t>(n));
    capacity_ = n;
  }
  return data_.get();
}

const double* pack_a(ReadA read, ConstMatrixView a, index_t ic, index_t pc,
                     index_t mc, index_t kc, index_t mr, PackBuffer& buf) {
  return at_width<4, 8, 16>(mr, "pack_a", [&](auto width) {
    constexpr index_t MR = decltype(width)::value;
    double* const out = buf.reserve((mc + MR - 1) / MR * MR * kc);
    pack_a_panels<MR>(read, a, ic, pc, mc, kc, out);
    return out;
  });
}

const double* pack_b(bool trans, ConstMatrixView b, index_t pc, index_t jc,
                     index_t kc, index_t nc, index_t nr, PackBuffer& buf) {
  return at_width<6, 8>(nr, "pack_b", [&](auto width) {
    constexpr index_t NR = decltype(width)::value;
    double* const out = buf.reserve((nc + NR - 1) / NR * NR * kc);
    double* dst = out;
    for (index_t j0 = 0; j0 < nc; j0 += NR, dst += NR * kc) {
      const index_t cols = std::min(NR, nc - j0);
      if (trans) {
        // op(B) = B^T: packed row p is b(jc+j0 .. jc+j0+cols-1, pc+p), a
        // contiguous run down column pc+p of B.
        pack_runs<NR>(&b(jc + j0, pc), b.ld(), cols, kc, dst);
      } else {
        // Packed row p is row pc+p of the cols source columns from jc+j0.
        pack_columns<NR>(&b(pc, jc + j0), b.ld(), cols, kc, dst);
      }
    }
    return out;
  });
}

}  // namespace lamb::blas
