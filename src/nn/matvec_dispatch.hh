/**
 * @file
 * Runtime-dispatched matvec kernels, all double precision: the
 * forward W x (for one vector or a group of them) and the two halves
 * of its backward.
 *
 * One process-wide selection, made on first use, routes every
 * kernel call (autograd engine, batched executor, snapshot
 * projections — all via nn/matvec_inl.hh) to either the portable
 * scalar kernels or the AVX2 kernels. Each entry point:
 *
 *  - f64            out = W x. AVX2 vectorizes *across rows* (4 rows
 *                   per 256-bit register) with each lane's
 *                   accumulation kept in k-ascending order.
 *  - lanesF64       out_j = W x_j for several vectors x_j at once (the
 *                   batched executor's lane groups). AVX2 transposes
 *                   each 4 x 4 block of W once and applies it to up
 *                   to 8 vectors, so a weight block is loaded once
 *                   per group instead of once per vector; every out_j
 *                   has the bits of the f64 entry run on x_j alone.
 *  - inputGradF64   xgrad += W^T dz, the input half of a matvec
 *                   backward.
 *  - outerF64       grad += sum_r dz_r x_r^T over an ordered list of
 *                   records, the weight half (the autograd engine's
 *                   deferred flush, and one record for an immediate
 *                   update).
 *
 * The two backward entries accumulate *across columns*: a block of
 * output columns stays in registers (8 ymm chains of 4 doubles on
 * AVX2, 16 doubles on the scalar path) while the terms stream past
 * in order. Per element both paths perform the same multiplies and
 * adds in the same order with no FMA contraction, and skip the
 * dz == 0.0 terms (-0.0 included) with a branch. The forward
 * kernels likewise keep each row's k order, so every AVX2 entry is
 * bit-identical to its scalar counterpart
 * (tests/test_frontend.cc proves it per entry; the golden suites
 * re-prove it end to end). AVX2 is selected only when the kernels
 * were compiled in AND cpuid reports AVX2.
 *
 * Because every caller goes through the one dispatch point, the
 * bit-exactness contract (batched == sequential reference) holds
 * per selected path by construction — both sides of any comparison
 * always run the same kernel.
 *
 * Setting DIFFTUNE_FORCE_SCALAR (non-empty, not "0") pins the
 * scalar path for every entry; CI runs the nn + serve suites both
 * ways.
 */

#ifndef DIFFTUNE_NN_MATVEC_DISPATCH_HH
#define DIFFTUNE_NN_MATVEC_DISPATCH_HH

#include <cstddef>

namespace difftune::nn
{

/** out = W x (row-major W, rows x cols) in double precision. */
using MatvecF64Fn = void (*)(const double *w, const double *x,
                             double *out, int rows, int cols);
/**
 * out[j] = W x[j] for j < lanes (row-major W, rows x cols; each x[j]
 * has cols entries, each out[j] rows), every out[j] bit-identical to
 * the f64 entry applied to x[j]. The out[j] must not overlap W, any
 * x or each other.
 */
using MatvecLanesF64Fn = void (*)(const double *w,
                                  const double *const *x,
                                  double *const *out, int lanes,
                                  int rows, int cols);
/**
 * xgrad += W^T dz (row-major W, rows x cols): row i adds
 * W[i,:] * dz[i], rows ascending, the dz[i] == 0 rows skipped.
 */
using InputGradF64Fn = void (*)(const double *w, const double *dz,
                                double *xgrad, int rows, int cols);
/**
 * grad += sum_r dz[r] x[r]^T (grad row-major, rows x cols; dz[r]
 * has rows entries, x[r] has cols) for r = 0 .. count-1 in order:
 * grad row i adds x[r] * dz[r][i], the dz[r][i] == 0 terms skipped.
 */
using OuterF64Fn = void (*)(double *grad, const double *const *dz,
                            const double *const *x, size_t count,
                            int rows, int cols);

/** One selectable kernel set. */
struct MatvecKernels
{
    MatvecF64Fn f64 = nullptr;
    MatvecLanesF64Fn lanesF64 = nullptr;
    InputGradF64Fn inputGradF64 = nullptr;
    OuterF64Fn outerF64 = nullptr;
    const char *name = "";
};

/**
 * The process-wide selected kernels. The choice is made once, on
 * first call (cpuid probe + DIFFTUNE_FORCE_SCALAR override), and
 * never changes — switching mid-process would break the
 * bit-stability of cached predictions.
 */
const MatvecKernels &matvecKernels();

/** Name of the selected path: "avx2", "scalar", "scalar (forced)". */
const char *matvecPathName();

/** The portable scalar kernels (always available). */
const MatvecKernels &matvecScalarKernels();

/**
 * The AVX2 kernels, or null when the build had no -mavx2 support.
 * Callers must check cpuSupportsAvx2() before executing them.
 */
const MatvecKernels *matvecAvx2Kernels();

/** Whether this CPU reports AVX2 (false on non-x86). */
bool cpuSupportsAvx2();

} // namespace difftune::nn

#endif // DIFFTUNE_NN_MATVEC_DISPATCH_HH
