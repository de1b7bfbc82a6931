// Package gemm holds the dense row-major matrix-multiply inner kernels
// shared by internal/tensor (the autograd engine's MatMul) and
// internal/linalg (the MAP machinery's Mul). Two kernels are provided:
//
//   - Naive: the retained reference kernel, an ikj triple loop that streams
//     B row-wise. It defines the repo's floating-point contract for matrix
//     products: each output cell (i, c) accumulates a[i][j]*b[j][c] over j
//     in ascending order, skipping terms whose a[i][j] is exactly zero.
//
//   - Blocked: the fast kernel — B is packed once into contiguous column
//     panels (the transposed-panel layout of classical GEBP blocking) and
//     the product is computed panel by panel with a register-tiled micro
//     kernel that keeps panelWidth accumulators live per A row. BlockedAcc
//     is the same kernel resuming from the values already in dst, so one
//     product can be split along k without changing a bit.
//
// Blocked is bit-identical to Naive by construction, not by tolerance: for
// every output cell it performs the exact same sequence of IEEE-754
// multiply and add operations on the exact same values (the k-innermost
// ascending summation order and the skip-on-zero of the reference kernel
// are both preserved; only the association of loop levels around that
// per-cell sequence changes). The package's tests pin this bitwise, across
// ragged shapes that do not divide the panel width.
//
//deepbat:deterministic
package gemm

// panelWidth is the register-tile width of the micro kernel: the number of
// output columns (and accumulators) processed per pass over a row of A.
// Eight float64 accumulators fit comfortably in registers on amd64/arm64
// and give the dependent-add chains enough instruction-level parallelism to
// hide floating-point add latency.
const panelWidth = 8

// BlockedThreshold is the multiply-add volume (n*k*m) above which Blocked
// is expected to beat Naive (below it, the packing pass and panel
// bookkeeping dominate). Callers dispatching between kernels use it;
// because the kernels are bit-identical the cutoff affects speed only.
const BlockedThreshold = 1 << 15

// Naive computes dst = A (n×k) × B (k×m) for rows [lo, hi) of the output
// with the reference ikj loop: row-wise streaming of B, per-cell ascending
// summation over j, skipping zero A entries. dst rows in [lo, hi) are
// overwritten.
func Naive(dst, a, b []float64, lo, hi, k, m int) {
	for i := lo; i < hi; i++ {
		dOff := i * m
		aOff := i * k
		row := dst[dOff : dOff+m]
		for c := range row {
			row[c] = 0
		}
		for j := 0; j < k; j++ {
			av := a[aOff+j]
			if av == 0 {
				continue
			}
			bOff := j * m
			for c := 0; c < m; c++ {
				row[c] += av * b[bOff+c]
			}
		}
	}
}

// PackedLen returns the scratch length Pack needs for a k×m matrix. The
// packed layout is exactly k*m floats (a permutation of B), so callers can
// reuse one buffer across equally sized products.
func PackedLen(k, m int) int { return k * m }

// Pack copies the k×m matrix b into dst in column-panel order: the columns
// are split into tiles of panelWidth (the last tile may be ragged), and
// tile t (covering columns [c0, c0+w)) occupies dst[c0*k : (c0+w)*k] in
// row-major (j, cc) order — dst[c0*k + j*w + cc] = b[j*m + c0 + cc]. Within
// a panel every micro-kernel step j reads w contiguous floats, so the fast
// kernel streams one buffer linearly instead of striding across B.
func Pack(dst, b []float64, k, m int) {
	if len(dst) < k*m {
		panic("gemm: Pack scratch too small")
	}
	for c0 := 0; c0 < m; c0 += panelWidth {
		w := m - c0
		if w > panelWidth {
			w = panelWidth
		}
		panel := dst[c0*k : c0*k+w*k]
		for j := 0; j < k; j++ {
			src := b[j*m+c0 : j*m+c0+w]
			copy(panel[j*w:j*w+w], src)
		}
	}
}

// Blocked computes dst = A (n×k) × B (k×m) for rows [lo, hi) of the output
// from a packed copy of B (see Pack). It is bit-identical to Naive over the
// same rows. packed is read-only, so one packed buffer may be shared by
// concurrent row-range workers.
func Blocked(dst, a, packed []float64, lo, hi, k, m int) {
	for c0 := 0; c0 < m; c0 += panelWidth {
		w := m - c0
		if w > panelWidth {
			w = panelWidth
		}
		panel := packed[c0*k : c0*k+w*k]
		if w == panelWidth {
			for i := lo; i < hi; i++ {
				mulPanel8(dst[i*m+c0:i*m+c0+panelWidth], a[i*k:i*k+k], panel)
			}
		} else {
			for i := lo; i < hi; i++ {
				mulPanelW(dst[i*m+c0:i*m+c0+w], a[i*k:i*k+k], panel, w)
			}
		}
	}
}

// mulPanel8 computes one full-width micro-kernel tile: dst[0..7] =
// sum_j a[j] * panel[j*8 + 0..7], accumulating in ascending j with one
// separately rounded add per term, exactly as the reference kernel does
// cell by cell. The eight accumulators live in registers, so the inner loop
// performs no loads or stores against dst.
func mulPanel8(dst, a, panel []float64) {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for j, av := range a {
		if av == 0 {
			continue
		}
		p := panel[j*panelWidth : j*panelWidth+panelWidth : j*panelWidth+panelWidth]
		s0 += av * p[0]
		s1 += av * p[1]
		s2 += av * p[2]
		s3 += av * p[3]
		s4 += av * p[4]
		s5 += av * p[5]
		s6 += av * p[6]
		s7 += av * p[7]
	}
	dst[0], dst[1], dst[2], dst[3] = s0, s1, s2, s3
	dst[4], dst[5], dst[6], dst[7] = s4, s5, s6, s7
}

// mulPanelW is the ragged-tile micro kernel for the last column tile when m
// is not a multiple of panelWidth (w < panelWidth accumulators, held in a
// small stack array).
func mulPanelW(dst, a, panel []float64, w int) {
	var acc [panelWidth]float64
	for j, av := range a {
		if av == 0 {
			continue
		}
		p := panel[j*w : j*w+w]
		for cc, pv := range p {
			acc[cc] += av * pv
		}
	}
	copy(dst, acc[:w])
}

// BlockedAcc continues an accumulation: for rows [lo, hi) every output cell
// resumes from the value already in dst and adds a[i][j]*b[j][c] over j in
// ascending order, skipping zero A entries. When dst holds Blocked(A1, B1),
// BlockedAcc(dst, A2, B2) leaves exactly the bits Blocked([A1|A2], [B1;B2])
// would — the per-cell operation sequence is the same, only split across two
// calls — which is what lets a caller share the A1·B1 partial product
// between rows that differ only in A2.
func BlockedAcc(dst, a, packed []float64, lo, hi, k, m int) {
	for c0 := 0; c0 < m; c0 += panelWidth {
		w := m - c0
		if w > panelWidth {
			w = panelWidth
		}
		panel := packed[c0*k : c0*k+w*k]
		if w == panelWidth {
			for i := lo; i < hi; i++ {
				accPanel8(dst[i*m+c0:i*m+c0+panelWidth], a[i*k:i*k+k], panel)
			}
		} else {
			for i := lo; i < hi; i++ {
				accPanelW(dst[i*m+c0:i*m+c0+w], a[i*k:i*k+k], panel, w)
			}
		}
	}
}

// accPanel8 is mulPanel8 with the accumulators seeded from dst.
func accPanel8(dst, a, panel []float64) {
	s0, s1, s2, s3 := dst[0], dst[1], dst[2], dst[3]
	s4, s5, s6, s7 := dst[4], dst[5], dst[6], dst[7]
	for j, av := range a {
		if av == 0 {
			continue
		}
		p := panel[j*panelWidth : j*panelWidth+panelWidth : j*panelWidth+panelWidth]
		s0 += av * p[0]
		s1 += av * p[1]
		s2 += av * p[2]
		s3 += av * p[3]
		s4 += av * p[4]
		s5 += av * p[5]
		s6 += av * p[6]
		s7 += av * p[7]
	}
	dst[0], dst[1], dst[2], dst[3] = s0, s1, s2, s3
	dst[4], dst[5], dst[6], dst[7] = s4, s5, s6, s7
}

// accPanelW is mulPanelW with the accumulators seeded from dst.
func accPanelW(dst, a, panel []float64, w int) {
	var acc [panelWidth]float64
	copy(acc[:w], dst)
	for j, av := range a {
		if av == 0 {
			continue
		}
		p := panel[j*w : j*w+w]
		for cc, pv := range p {
			acc[cc] += av * pv
		}
	}
	copy(dst, acc[:w])
}
