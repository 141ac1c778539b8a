/**
 * @file
 * Runtime matvec path selection: scalar unless AVX2 kernels were
 * compiled in AND cpuid reports AVX2, with DIFFTUNE_FORCE_SCALAR
 * pinning the scalar path. Selected once per process (bit-stability
 * of cached predictions forbids switching mid-run). Also the home
 * of the scalar kernel set, instantiated from nn/matvec_inl.hh.
 */

#include "nn/matvec_dispatch.hh"

#include "base/env.hh"
#include "nn/matvec_inl.hh"

namespace difftune::nn
{

namespace
{

void
scalarF64(const double *w, const double *x, double *out, int rows,
          int cols)
{
    matvecForwardScalarT(w, x, out, rows, cols);
}

void
scalarLanesF64(const double *w, const double *const *x,
               double *const *out, int lanes, int rows, int cols)
{
    matvecLanesScalarT(w, x, out, lanes, rows, cols);
}

void
scalarInputGradF64(const double *w, const double *dz, double *xgrad,
                   int rows, int cols)
{
    accumulateRows(
        xgrad, cols, size_t(rows), [&](size_t i) { return dz[i]; },
        [&](size_t i) { return w + i * size_t(cols); });
}

void
scalarOuterF64(double *grad, const double *const *dz,
               const double *const *x, size_t count, int rows,
               int cols)
{
    for (int i = 0; i < rows; ++i)
        accumulateRows(
            grad + size_t(i) * cols, cols, count,
            [&](size_t r) { return dz[r][i]; },
            [&](size_t r) { return x[r]; });
}

const MatvecKernels scalarKernels{scalarF64, scalarLanesF64,
                                  scalarInputGradF64, scalarOuterF64,
                                  "scalar"};
const MatvecKernels forcedKernels{scalarF64, scalarLanesF64,
                                  scalarInputGradF64, scalarOuterF64,
                                  "scalar (forced)"};

const MatvecKernels &
selectKernels()
{
    const std::string force =
        envString("DIFFTUNE_FORCE_SCALAR", "");
    if (!force.empty() && force != "0")
        return forcedKernels;
    if (const MatvecKernels *avx2 = matvecAvx2Kernels();
        avx2 && cpuSupportsAvx2())
        return *avx2;
    return scalarKernels;
}

} // namespace

bool
cpuSupportsAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

const MatvecKernels &
matvecScalarKernels()
{
    return scalarKernels;
}

const MatvecKernels &
matvecKernels()
{
    // Magic static: the probe runs once, on first use, thread-safely.
    static const MatvecKernels &selected = selectKernels();
    return selected;
}

const char *
matvecPathName()
{
    return matvecKernels().name;
}

} // namespace difftune::nn
