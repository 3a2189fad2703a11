// Package wavelet implements the wavelet machinery that WALRUS is built on:
//
//   - the two-dimensional non-standard Haar decomposition (Figure 2 of the
//     paper) with the averaging convention of Section 3.1, and its
//     inverse, which the tests use as an oracle;
//   - naive per-window signature computation, which applies the full
//     two-dimensional transform to every sliding window independently
//     (O(N·ω²) for an N-pixel image and ω×ω windows);
//   - the dynamic-programming sliding-window algorithm of Section 5.2
//     (Figures 3–5), which computes s×s low-frequency signatures for every
//     window size that is a power of two up to ωmax in O(N·s²·log ωmax)
//     time by assembling each window's transform from the transforms of
//     its four subwindows;
//   - a Daubechies-4 transform used by the WBIIS baseline.
//
// All transforms operate on square matrices whose side is a power of two.
// Pixel values are plain float64s; callers normalize to whatever range they
// need (WALRUS uses [0,1]).
package wavelet
