#include "blas/packing.hpp"

#include <algorithm>
#include <cstring>

namespace lamb::blas {

using la::ConstMatrixView;
using la::index_t;

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
  const index_t panels = (mc + mr - 1) / mr;
  double* const out = buf.reserve(panels * mr * kc);
  double* dst = out;
  for (index_t ip = 0; ip < panels; ++ip) {
    const index_t i0 = ic + ip * mr;
    const index_t rows = std::min(mr, mc - ip * mr);
    // Element (i, p) is read mirrored, as A(pc+p, i0+i), where p - i >
    // diag: above a symmetric A's diagonal, everywhere for op(A) = A^T and
    // nowhere for a plain A. Mirrored runs are contiguous down column i0+i
    // of A, so they are copied i outer / p inner.
    const index_t diag = read == ReadA::kSymmetric ? i0 - pc
                         : read == ReadA::kPlain   ? kc
                                                   : -mr;
    for (index_t i = 0; i < rows; ++i) {
      for (index_t p = std::clamp(i + diag + 1, index_t{0}, kc); p < kc; ++p) {
        dst[p * mr + i] = a(pc + p, i0 + i);
      }
    }
    // The rest of panel column p, rows [split, rows), is a contiguous run of
    // column pc+p of A; the fringe rows of a partial panel are zeroed.
    for (index_t p = 0; p < kc; ++p) {
      const index_t split = std::clamp(p - diag, index_t{0}, rows);
      double* panel_col = dst + p * mr;
      if (split < rows) {
        std::memcpy(panel_col + split, &a(i0 + split, pc + p),
                    static_cast<std::size_t>(rows - split) * sizeof(double));
      }
      for (index_t i = rows; i < mr; ++i) {
        panel_col[i] = 0.0;
      }
    }
    dst += mr * kc;
  }
  return out;
}

const double* pack_b(bool trans, ConstMatrixView b, index_t pc, index_t jc,
                     index_t kc, index_t nc, index_t nr, PackBuffer& buf) {
  const index_t panels = (nc + nr - 1) / nr;
  double* const out = buf.reserve(panels * nr * kc);
  double* dst = out;
  for (index_t jp = 0; jp < panels; ++jp) {
    const index_t j0 = jp * nr;
    const index_t cols = std::min(nr, nc - j0);
    if (trans) {
      // op(B) = B^T: element (p, j) comes from b(jc+j, pc+p); the p-run is
      // a contiguous source column per j, so walk j outer / p inner.
      for (index_t j = 0; j < cols; ++j) {
        const double* src = &b(jc + j0 + j, pc);
        const index_t ldb = b.ld();
        for (index_t p = 0; p < kc; ++p) {
          dst[p * nr + j] = src[p * ldb];
        }
      }
    } else {
      // Source column (pc.., jc+j0+j) is contiguous over p per j.
      for (index_t j = 0; j < cols; ++j) {
        const double* src = &b(pc, jc + j0 + j);
        for (index_t p = 0; p < kc; ++p) {
          dst[p * nr + j] = src[p];
        }
      }
    }
    if (cols < nr) {
      for (index_t p = 0; p < kc; ++p) {
        for (index_t j = cols; j < nr; ++j) {
          dst[p * nr + j] = 0.0;
        }
      }
    }
    dst += nr * kc;
  }
  return out;
}

}  // namespace lamb::blas
