/**
 * @file
 * AVX2 matvec kernels — the forward W x and the two f64 backward
 * halves — bit-identical to the scalar reference.
 *
 * The forward vectorization is *across rows*: 4 rows share one
 * 256-bit accumulator, one row per lane. Each step loads a
 * square block of the weight matrix, transposes it in registers to
 * column vectors, and accumulates column k against the broadcast
 * x[k] with separate mul and add intrinsics — so every lane performs
 * exactly the scalar kernel's operation sequence: products and sums
 * rounded individually, in k-ascending order, per row. Remainder
 * columns gather scalars into a vector (same arithmetic); remainder
 * rows run the plain scalar loop (a row's sum does not depend on the
 * blocking). The f64 forward is bound by that transpose, not by its
 * arithmetic, so the lanes entry transposes each 4 x 4 block once
 * and applies it to up to 8 vectors before moving on. Groups of up
 * to 4 vectors, the single-vector f64 entry included, take two row
 * blocks per pass for more independent add chains.
 *
 * The backward vectorization is *across columns*: a block of up to
 * 32 output columns is held in 8 ymm accumulators (8 independent add
 * chains, enough to cover the add latency) while the terms — rows of
 * W for xgrad += W^T dz, records for the outer-product flush —
 * stream past in order, each broadcast scale applied with a separate
 * mul and add. The dz == 0.0 terms are skipped by a branch exactly
 * as in the scalar kernel (a multiply by zero would turn an inf or
 * NaN x into NaN and a -0.0 sum into +0.0). Remainder columns use
 * fewer 4-wide accumulators, then scalars.
 *
 * No FMA is used and the file is compiled with -ffp-contract=off, so
 * the compiler cannot fuse a mul+add into one rounding.
 *
 * Built only when the compiler accepts -mavx2 (the dispatcher gets
 * a null provider otherwise) and *executed* only after cpuid
 * reports AVX2 (nn/matvec_dispatch.cc).
 */

#include "nn/matvec_dispatch.hh"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstddef>

namespace difftune::nn
{

namespace
{

/**
 * Columns k .. k+3 of the rows w[0..3] as four column vectors,
 * c[j][i] = w[i][k + j]. Each 256-bit register is built from two
 * 128-bit half loads (rows 0/2 and 1/3), so one in-lane unpack per
 * column finishes the transpose: no cross-lane permute, whose
 * latency and single shuffle port would bound the kernel.
 */
[[gnu::always_inline]] inline void
transposeBlock(const double *const *w, int k, __m256d c[4])
{
    const auto halves = [](const double *lo, const double *hi) {
        return _mm256_insertf128_pd(
            _mm256_castpd128_pd256(_mm_loadu_pd(lo)), _mm_loadu_pd(hi),
            1);
    };
    // a = [w0[k], w0[k+1], w2[k], w2[k+1]], b likewise for rows 1/3.
    const __m256d a01 = halves(w[0] + k, w[2] + k);
    const __m256d b01 = halves(w[1] + k, w[3] + k);
    const __m256d a23 = halves(w[0] + k + 2, w[2] + k + 2);
    const __m256d b23 = halves(w[1] + k + 2, w[3] + k + 2);
    c[0] = _mm256_unpacklo_pd(a01, b01);
    c[1] = _mm256_unpackhi_pd(a01, b01);
    c[2] = _mm256_unpacklo_pd(a23, b23);
    c[3] = _mm256_unpackhi_pd(a23, b23);
}

/**
 * out[l][r .. r + 4 NB) = W[r .. r + 4 NB, :] x[l] for l < NL: NB
 * blocks of 4 rows, each transposed once per 4 columns and applied
 * to all NL vectors, NB x NL independent ymm accumulators (at most
 * 8). Every accumulator lane adds its row's products one column at
 * a time in k-ascending order with separate mul and add, which is
 * the scalar kernel's operation sequence.
 */
template <int NB, int NL>
[[gnu::always_inline]] inline void
rowBlockLanes(const double *w, int r, int cols, const double *const *x,
              double *const *out)
{
    static_assert(NB * NL <= 8, "accumulators must stay in registers");
    const double *wr[4 * NB];
#pragma GCC unroll 8
    for (int i = 0; i < 4 * NB; ++i)
        wr[i] = w + size_t(r + i) * cols;
    __m256d acc[NB][NL];
#pragma GCC unroll 8
    for (int b = 0; b < NB; ++b)
#pragma GCC unroll 8
        for (int l = 0; l < NL; ++l)
            acc[b][l] = _mm256_setzero_pd();
    int k = 0;
    for (; k + 4 <= cols; k += 4) {
        __m256d c[NB][4];
#pragma GCC unroll 2
        for (int b = 0; b < NB; ++b)
            transposeBlock(wr + 4 * b, k, c[b]);
#pragma GCC unroll 4
        for (int j = 0; j < 4; ++j)
#pragma GCC unroll 8
            for (int l = 0; l < NL; ++l) {
                const __m256d xv = _mm256_set1_pd(x[l][k + j]);
#pragma GCC unroll 2
                for (int b = 0; b < NB; ++b)
                    acc[b][l] = _mm256_add_pd(
                        acc[b][l], _mm256_mul_pd(c[b][j], xv));
            }
    }
    for (; k < cols; ++k) {
        __m256d col[NB];
#pragma GCC unroll 2
        for (int b = 0; b < NB; ++b)
            col[b] = _mm256_set_pd(wr[4 * b + 3][k], wr[4 * b + 2][k],
                                   wr[4 * b + 1][k], wr[4 * b][k]);
#pragma GCC unroll 8
        for (int l = 0; l < NL; ++l) {
            const __m256d xv = _mm256_set1_pd(x[l][k]);
#pragma GCC unroll 2
            for (int b = 0; b < NB; ++b)
                acc[b][l] = _mm256_add_pd(acc[b][l],
                                          _mm256_mul_pd(col[b], xv));
        }
    }
#pragma GCC unroll 8
    for (int l = 0; l < NL; ++l)
#pragma GCC unroll 2
        for (int b = 0; b < NB; ++b)
            _mm256_storeu_pd(out[l] + r + 4 * b, acc[b][l]);
}

/** A row outside the 4-row blocks: the scalar kernel's loop. */
inline double
rowDot(const double *wr, const double *x, int cols)
{
    double sum = 0;
    for (int k = 0; k < cols; ++k)
        sum += wr[k] * x[k];
    return sum;
}

/**
 * All rows of W against the NL vectors x[0 .. NL). Up to 4 vectors
 * take two row blocks per pass, so even one vector has two
 * independent add chains to hide the add latency.
 */
template <int NL>
void
lanesGroup(const double *w, const double *const *x, double *const *out,
           int rows, int cols)
{
    int r = 0;
    if constexpr (NL <= 4) {
        for (; r + 8 <= rows; r += 8)
            rowBlockLanes<2, NL>(w, r, cols, x, out);
    }
    for (; r + 4 <= rows; r += 4)
        rowBlockLanes<1, NL>(w, r, cols, x, out);
    for (; r < rows; ++r)
        for (int l = 0; l < NL; ++l)
            out[l][r] = rowDot(w + size_t(r) * cols, x[l], cols);
}

void
avx2F64(const double *w, const double *x, double *out, int rows,
        int cols)
{
    lanesGroup<1>(w, &x, &out, rows, cols);
}

void
avx2LanesF64(const double *w, const double *const *x,
             double *const *out, int lanes, int rows, int cols)
{
    for (int l0 = 0; l0 < lanes; l0 += 8) {
        const double *const *xg = x + l0;
        double *const *og = out + l0;
        switch (lanes - l0) {
        case 1:
            lanesGroup<1>(w, xg, og, rows, cols);
            break;
        case 2:
            lanesGroup<2>(w, xg, og, rows, cols);
            break;
        case 3:
            lanesGroup<3>(w, xg, og, rows, cols);
            break;
        case 4:
            lanesGroup<4>(w, xg, og, rows, cols);
            break;
        case 5:
            lanesGroup<5>(w, xg, og, rows, cols);
            break;
        case 6:
            lanesGroup<6>(w, xg, og, rows, cols);
            break;
        case 7:
            lanesGroup<7>(w, xg, og, rows, cols);
            break;
        default:
            lanesGroup<8>(w, xg, og, rows, cols);
            break;
        }
    }
}

/**
 * out[k0 .. k0 + 4N) += v(r)[k0 .. k0 + 4N) * d(r) for r = 0 ..
 * count-1 in order, the d(r) == 0 terms skipped: N independent ymm
 * chains, each lane adding the scalar kernel's products in the
 * scalar kernel's order.
 */
template <int N, typename Scale, typename Row>
[[gnu::always_inline]] inline void
accumulateBlock(double *__restrict out, int k0, size_t count,
                const Scale &d, const Row &v)
{
    __m256d acc[N];
#pragma GCC unroll 8
    for (int j = 0; j < N; ++j)
        acc[j] = _mm256_loadu_pd(out + k0 + 4 * j);
    for (size_t r = 0; r < count; ++r) {
        const double dr = d(r);
        if (dr == 0.0)
            continue;
        const __m256d dv = _mm256_set1_pd(dr);
        const double *vr = v(r) + k0;
#pragma GCC unroll 8
        for (int j = 0; j < N; ++j)
            acc[j] = _mm256_add_pd(
                acc[j], _mm256_mul_pd(_mm256_loadu_pd(vr + 4 * j), dv));
    }
#pragma GCC unroll 8
    for (int j = 0; j < N; ++j)
        _mm256_storeu_pd(out + k0 + 4 * j, acc[j]);
}

/**
 * accumulateRows (nn/matvec_inl.hh) at AVX2 width: 32-column blocks,
 * then one block of the remaining 4-column groups, then scalars.
 */
template <typename Scale, typename Row>
[[gnu::always_inline]] inline void
accumulateRowsAvx2(double *__restrict out, int cols, size_t count,
                   const Scale &d, const Row &v)
{
    int k0 = 0;
    for (; k0 + 32 <= cols; k0 += 32)
        accumulateBlock<8>(out, k0, count, d, v);
    const int quads = (cols - k0) / 4;
    switch (quads) {
    case 7:
        accumulateBlock<7>(out, k0, count, d, v);
        break;
    case 6:
        accumulateBlock<6>(out, k0, count, d, v);
        break;
    case 5:
        accumulateBlock<5>(out, k0, count, d, v);
        break;
    case 4:
        accumulateBlock<4>(out, k0, count, d, v);
        break;
    case 3:
        accumulateBlock<3>(out, k0, count, d, v);
        break;
    case 2:
        accumulateBlock<2>(out, k0, count, d, v);
        break;
    case 1:
        accumulateBlock<1>(out, k0, count, d, v);
        break;
    default:
        break;
    }
    for (k0 += 4 * quads; k0 < cols; ++k0) {
        double acc = out[k0];
        for (size_t r = 0; r < count; ++r) {
            const double dr = d(r);
            if (dr == 0.0)
                continue;
            acc += v(r)[k0] * dr;
        }
        out[k0] = acc;
    }
}

void
avx2InputGradF64(const double *w, const double *dz, double *xgrad,
                 int rows, int cols)
{
    accumulateRowsAvx2(
        xgrad, cols, size_t(rows), [&](size_t i) { return dz[i]; },
        [&](size_t i) { return w + i * size_t(cols); });
}

void
avx2OuterF64(double *grad, const double *const *dz,
             const double *const *x, size_t count, int rows, int cols)
{
    for (int i = 0; i < rows; ++i)
        accumulateRowsAvx2(
            grad + size_t(i) * cols, cols, count,
            [&](size_t r) { return dz[r][i]; },
            [&](size_t r) { return x[r]; });
}

const MatvecKernels avx2Kernels{avx2F64, avx2LanesF64, avx2InputGradF64,
                                avx2OuterF64, "avx2"};

} // namespace

const MatvecKernels *
matvecAvx2Kernels()
{
    return &avx2Kernels;
}

} // namespace difftune::nn

#else // !__AVX2__

namespace difftune::nn
{

const MatvecKernels *
matvecAvx2Kernels()
{
    return nullptr;
}

} // namespace difftune::nn

#endif // __AVX2__
