#include "tensor/gemm.hh"

#include "common/logging.hh"
#include "common/parallel.hh"
#include "tensor/gemm_kernels.hh"

namespace pipelayer {
namespace gemm {

void
gemmNN(int64_t m, int64_t n, int64_t k, const float *a, int64_t lda,
       const float *b, int64_t ldb, const float *bias, float *c,
       int64_t ldc)
{
    // Parallel over columns of C: a chunk owns a disjoint column
    // stripe of every output row and hands it to the active target's
    // output-vectorised kernel.  Each output is reduced on its own, so
    // a chunk that starts off a vector boundary only regroups outputs
    // into vectors; no output changes a bit.
    const gemmk::Kernels &kern = gemmk::activeKernels();
    parallel_for(0, n, /*work_per_index=*/m * k,
                 [&](int64_t j0, int64_t j1) {
        kern.gemm_nn(m, j1 - j0, k, a, lda, b + j0, ldb, bias, c + j0,
                     ldc);
    });
}

void
gemv(int64_t m, int64_t n, const float *w, int64_t ldw, const float *x,
     float *y)
{
    // One lane-based dot product per row; rows are independent.
    const gemmk::Kernels &kern = gemmk::activeKernels();
    parallel_for(0, m, /*work_per_index=*/n, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            y[i] = kern.dot_lanes(w + i * ldw, x, n, 0.0);
    });
}

void
gevm(int64_t m, int64_t n, const float *w, int64_t ldw, const float *x,
     float *y)
{
    // Float accumulation directly into y, rows in ascending order —
    // the historical matVecT recipe.  Chunks own disjoint column
    // ranges, so no accumulator is shared; the axpy vectorises across
    // independent columns without reordering any column's row walk.
    const gemmk::Kernels &kern = gemmk::activeKernels();
    parallel_for(0, n, /*work_per_index=*/m, [&](int64_t j0, int64_t j1) {
        for (int64_t i = 0; i < m; ++i)
            kern.axpy_f32(y + j0, w + i * ldw + j0, x[i], j1 - j0);
    });
}

void
ger(int64_t m, int64_t n, const float *x, const float *y, float *c,
    int64_t ldc)
{
    const gemmk::Kernels &kern = gemmk::activeKernels();
    parallel_for(0, m, /*work_per_index=*/n, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            kern.scale_f32(c + i * ldc, y, x[i], n);
    });
}

} // namespace gemm
} // namespace pipelayer

namespace pipelayer {
namespace gemmk {

const Kernels &
kernelsFor(isa::Target t)
{
    switch (t) {
    case isa::Target::Scalar:
        return scalarKernels();
#if defined(__x86_64__) || defined(_M_X64)
    case isa::Target::Avx2:
        return avx2Kernels();
    case isa::Target::Avx512:
        return avx512Kernels();
#endif
    default:
        break;
    }
    PL_ASSERT(false, "ISA target '%s' is not compiled into this binary",
              isa::name(t));
    return scalarKernels();
}

} // namespace gemmk
} // namespace pipelayer
