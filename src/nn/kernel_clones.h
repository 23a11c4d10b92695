/**
 * @file
 * Compile attributes shared by the nn library's two register-blocked
 * kernels: the training GEMM (matrix.cc) and the single-sample dense
 * layer of MlpClassifier::forward (mlp.cc).
 *
 * Both kernels are built for GCC's superword (SLP) vectorizer: with
 * the loop vectorizer on, GCC 12 vectorizes the GEMM's reduction over
 * p instead and spills the accumulators (0.22 vs 0.16 ns/MAC,
 * docs/cycles.md). On x86-64 each is also compiled a second time for
 * AVX2, picked at load time. "avx2" carries no FMA, so neither clone
 * can contract a * b + c into one rounding: both produce the default
 * clone's bytes. Clang and COTTAGE_NO_SIMD builds compile the default
 * clone only, and so do ThreadSanitizer builds: the clone's ifunc
 * resolver runs before the TSan runtime is up and crashes the program
 * at load.
 */

#ifndef COTTAGE_NN_KERNEL_CLONES_H
#define COTTAGE_NN_KERNEL_CLONES_H

#if defined(__GNUC__) && !defined(__clang__)
#define COTTAGE_NN_SLP_ONLY __attribute__((optimize("no-tree-loop-vectorize")))
#if defined(__x86_64__) && !defined(COTTAGE_NO_SIMD) &&                     \
    !defined(__SANITIZE_THREAD__)
#define COTTAGE_NN_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef COTTAGE_NN_SLP_ONLY
#define COTTAGE_NN_SLP_ONLY
#endif
#ifndef COTTAGE_NN_CLONES
#define COTTAGE_NN_CLONES
#endif

#endif // COTTAGE_NN_KERNEL_CLONES_H
