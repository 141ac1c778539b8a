/**
 * @file
 * The matrix-vector kernels shared by the autograd engine
 * (nn/graph.cc), the batched forward executor (nn/batched.cc) and
 * the snapshot projection tables (nn/snapshot.cc), and the portable
 * scalar bodies of the dispatched forward and backward entries.
 *
 * Internal header: include only from nn/ translation units. Every
 * engine must run the *same* kernel so their results are
 * bit-identical by construction — matvecForward, matvecLanes and
 * the autograd backward route through the one runtime dispatch
 * point (nn/matvec_dispatch.hh), which selects the scalar or the AVX2
 * implementation once per process. Both implementations keep each
 * element's accumulation in the reference order with no FMA
 * contraction, so the selection can never change results, only
 * speed; if you change the accumulation order anywhere you change
 * the numerics contract of every engine (see tests/golden/).
 */

#ifndef DIFFTUNE_NN_MATVEC_INL_HH
#define DIFFTUNE_NN_MATVEC_INL_HH

#include <cstddef>

#include "nn/matvec_dispatch.hh"

namespace difftune::nn
{

/**
 * Portable reference kernel: out = W x for a column vector x,
 * blocked eight rows at a time — eight independent accumulator
 * chains give the FMA units ILP while each row's sum keeps the
 * reference k-ascending order, so the blocking is bit-transparent.
 */
template <typename T>
inline void
matvecForwardScalarT(const T *__restrict w, const T *__restrict x,
                     T *__restrict out, int rows, int cols)
{
    int r = 0;
    for (; r + 8 <= rows; r += 8) {
        const T *w0 = w + size_t(r) * cols;
        const T *w1 = w0 + cols;
        const T *w2 = w1 + cols;
        const T *w3 = w2 + cols;
        const T *w4 = w3 + cols;
        const T *w5 = w4 + cols;
        const T *w6 = w5 + cols;
        const T *w7 = w6 + cols;
        T s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        T s4 = 0, s5 = 0, s6 = 0, s7 = 0;
        for (int k = 0; k < cols; ++k) {
            const T xk = x[k];
            s0 += w0[k] * xk;
            s1 += w1[k] * xk;
            s2 += w2[k] * xk;
            s3 += w3[k] * xk;
            s4 += w4[k] * xk;
            s5 += w5[k] * xk;
            s6 += w6[k] * xk;
            s7 += w7[k] * xk;
        }
        out[r] = s0;
        out[r + 1] = s1;
        out[r + 2] = s2;
        out[r + 3] = s3;
        out[r + 4] = s4;
        out[r + 5] = s5;
        out[r + 6] = s6;
        out[r + 7] = s7;
    }
    for (; r + 4 <= rows; r += 4) {
        const T *w0 = w + size_t(r) * cols;
        const T *w1 = w0 + cols;
        const T *w2 = w1 + cols;
        const T *w3 = w2 + cols;
        T s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        for (int k = 0; k < cols; ++k) {
            const T xk = x[k];
            s0 += w0[k] * xk;
            s1 += w1[k] * xk;
            s2 += w2[k] * xk;
            s3 += w3[k] * xk;
        }
        out[r] = s0;
        out[r + 1] = s1;
        out[r + 2] = s2;
        out[r + 3] = s3;
    }
    for (; r < rows; ++r) {
        const T *wr = w + size_t(r) * cols;
        T sum = 0;
        for (int k = 0; k < cols; ++k)
            sum += wr[k] * x[k];
        out[r] = sum;
    }
}

/**
 * Portable reference for the lanes entry: out[j] = W x[j], one
 * matvecForwardScalarT call per vector, so each lane has the
 * single-vector bits by construction.
 */
template <typename T>
inline void
matvecLanesScalarT(const T *w, const T *const *x, T *const *out,
                   int lanes, int rows, int cols)
{
    for (int j = 0; j < lanes; ++j)
        matvecForwardScalarT(w, x[j], out[j], rows, cols);
}

/**
 * Portable backward kernel body: out[k] += v(r)[k] * d(r) for
 * r = 0 .. count-1 in order, the d(r) == 0 terms skipped, for every
 * k < cols. Each kChunk-wide slice of out is loaded once,
 * accumulates every term in a register block, and is stored once.
 * Per element that is the same sequence of multiplies and adds as
 * one pass over out per term, so the bits match. Both scalar
 * backward entries (nn/matvec_dispatch.cc) are built from it:
 * xgrad += W^T dz takes the rows of W as terms, and each gradient
 * row of an outer-product flush takes the records' x vectors.
 */
template <typename Scale, typename Row>
inline void
accumulateRows(double *__restrict out, int cols, size_t count,
               const Scale &d, const Row &v)
{
    constexpr int kChunk = 16;
    int k0 = 0;
    for (; k0 + kChunk <= cols; k0 += kChunk) {
        double acc[kChunk];
        for (int j = 0; j < kChunk; ++j)
            acc[j] = out[k0 + j];
        for (size_t r = 0; r < count; ++r) {
            const double dr = d(r);
            if (dr == 0.0)
                continue;
            const double *vr = v(r) + k0;
            for (int j = 0; j < kChunk; ++j)
                acc[j] += vr[j] * dr;
        }
        for (int j = 0; j < kChunk; ++j)
            out[k0 + j] = acc[j];
    }
    for (; k0 < cols; ++k0) {
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

/**
 * The dispatch point every nn/ engine calls: routes through the
 * process-wide selected kernels (scalar until AVX2 is both compiled
 * in and reported by cpuid; DIFFTUNE_FORCE_SCALAR pins scalar).
 * Bit-identical across paths — see matvec_dispatch.hh.
 */
inline void
matvecForward(const double *w, const double *x, double *out, int rows,
              int cols)
{
    matvecKernels().f64(w, x, out, rows, cols);
}

/**
 * out[j] = W x[j] for j < lanes through the dispatch point's lanes
 * entry (on AVX2 each weight block is loaded once per group of
 * vectors); out[j] has the bits of matvecForward on x[j].
 */
inline void
matvecLanes(const double *w, const double *const *x,
            double *const *out, int lanes, int rows, int cols)
{
    matvecKernels().lanesF64(w, x, out, lanes, rows, cols);
}

} // namespace difftune::nn

#endif // DIFFTUNE_NN_MATVEC_INL_HH
