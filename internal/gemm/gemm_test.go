package gemm

import (
	"math"
	"math/rand"
	"testing"
)

// raggedShapes stresses every panel configuration: widths below, at, and
// straddling panelWidth, single rows/columns, and sizes with ragged last
// tiles.
var raggedShapes = []struct{ n, k, m int }{
	{1, 1, 1},
	{1, 3, 7},
	{2, 5, 8},
	{3, 4, 9},
	{5, 2, 15},
	{7, 7, 16},
	{4, 9, 17},
	{13, 5, 11},
	{16, 16, 16},
	{31, 32, 33},
	{10, 64, 63},
	{6, 128, 40},
}

func randMat(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// sparsify zeroes a fraction of entries so the skip-on-zero path is
// exercised (ReLU activations make zero inputs common in practice).
func sparsify(rng *rand.Rand, xs []float64, frac float64) {
	for i := range xs {
		if rng.Float64() < frac {
			xs[i] = 0
		}
	}
}

// TestBlockedMatchesNaiveBitwise pins the package contract: the packed
// blocked kernel produces bit-identical output to the reference kernel for
// every shape, including ragged column tiles, and for sparse inputs.
func TestBlockedMatchesNaiveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, s := range raggedShapes {
		for _, frac := range []float64{0, 0.3} {
			a := randMat(rng, s.n*s.k)
			b := randMat(rng, s.k*s.m)
			sparsify(rng, a, frac)

			want := make([]float64, s.n*s.m)
			Naive(want, a, b, 0, s.n, s.k, s.m)

			packed := make([]float64, PackedLen(s.k, s.m))
			Pack(packed, b, s.k, s.m)
			got := make([]float64, s.n*s.m)
			Blocked(got, a, packed, 0, s.n, s.k, s.m)

			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("shape %v sparsity %g: cell %d = %v, want %v (bitwise)",
						s, frac, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBlockedRowRanges checks that computing the product in disjoint row
// ranges (as the parallel caller does) covers exactly the rows asked for
// and matches the full-range result bitwise.
func TestBlockedRowRanges(t *testing.T) {
	const n, k, m = 9, 6, 13
	rng := rand.New(rand.NewSource(42))
	a := randMat(rng, n*k)
	b := randMat(rng, k*m)
	packed := make([]float64, PackedLen(k, m))
	Pack(packed, b, k, m)

	want := make([]float64, n*m)
	Blocked(want, a, packed, 0, n, k, m)

	got := make([]float64, n*m)
	for _, split := range []int{0, 1, 4, n} {
		for i := range got {
			got[i] = math.NaN()
		}
		Blocked(got, a, packed, 0, split, k, m)
		Blocked(got, a, packed, split, n, k, m)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("split %d: cell %d = %v, want %v", split, i, got[i], want[i])
			}
		}
	}
}

// TestBlockedSpecialValues covers the IEEE edge cases the skip-on-zero rule
// exists for: a zero A entry against an infinite B entry must be skipped
// (not produce NaN), negative zeros must round-trip, and NaNs must
// propagate identically through both kernels.
func TestBlockedSpecialValues(t *testing.T) {
	const n, k, m = 2, 3, 9
	a := []float64{
		0, 1, math.Copysign(0, -1),
		2, math.NaN(), 0.5,
	}
	b := make([]float64, k*m)
	for i := range b {
		b[i] = float64(i) - 10
	}
	b[0] = math.Inf(1)
	b[m] = math.Copysign(0, -1)
	b[2*m+1] = math.Inf(-1)

	want := make([]float64, n*m)
	Naive(want, a, b, 0, n, k, m)
	packed := make([]float64, PackedLen(k, m))
	Pack(packed, b, k, m)
	got := make([]float64, n*m)
	Blocked(got, a, packed, 0, n, k, m)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("cell %d = %v (bits %x), want %v (bits %x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestBlockedAccSplitsAlongK pins BlockedAcc's contract: a product split
// along k into Blocked then BlockedAcc is bit-identical to the unsplit
// product, for every shape, every split point, and sparse inputs.
func TestBlockedAccSplitsAlongK(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, s := range raggedShapes {
		for _, frac := range []float64{0, 0.3} {
			a := randMat(rng, s.n*s.k)
			b := randMat(rng, s.k*s.m)
			sparsify(rng, a, frac)
			want := make([]float64, s.n*s.m)
			Naive(want, a, b, 0, s.n, s.k, s.m)

			for k1 := 0; k1 <= s.k; k1++ {
				k2 := s.k - k1
				a1, a2 := make([]float64, s.n*k1), make([]float64, s.n*k2)
				for i := 0; i < s.n; i++ {
					copy(a1[i*k1:(i+1)*k1], a[i*s.k:i*s.k+k1])
					copy(a2[i*k2:(i+1)*k2], a[i*s.k+k1:(i+1)*s.k])
				}
				top, bot := make([]float64, PackedLen(k1, s.m)), make([]float64, PackedLen(k2, s.m))
				Pack(top, b[:k1*s.m], k1, s.m)
				Pack(bot, b[k1*s.m:], k2, s.m)
				got := make([]float64, s.n*s.m)
				Blocked(got, a1, top, 0, s.n, k1, s.m)
				BlockedAcc(got, a2, bot, 0, s.n, k2, s.m)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("shape %v sparsity %g split %d: cell %d = %v, want %v (bitwise)",
							s, frac, k1, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestPackLayout pins the panel layout documented on Pack.
func TestPackLayout(t *testing.T) {
	const k, m = 3, 10 // one full tile of 8, one ragged tile of 2
	b := make([]float64, k*m)
	for i := range b {
		b[i] = float64(i)
	}
	packed := make([]float64, PackedLen(k, m))
	Pack(packed, b, k, m)
	for c0 := 0; c0 < m; c0 += panelWidth {
		w := m - c0
		if w > panelWidth {
			w = panelWidth
		}
		for j := 0; j < k; j++ {
			for cc := 0; cc < w; cc++ {
				want := b[j*m+c0+cc]
				got := packed[c0*k+j*w+cc]
				if got != want {
					t.Fatalf("panel c0=%d j=%d cc=%d: got %v want %v", c0, j, cc, got, want)
				}
			}
		}
	}
}

// FuzzBlockedMatchesNaive fuzzes shapes and data seeds, asserting bitwise
// kernel equivalence on every input the engine invents.
func FuzzBlockedMatchesNaive(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(17), false)
	f.Add(int64(9), uint8(16), uint8(8), uint8(8), true)
	f.Add(int64(77), uint8(1), uint8(1), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed int64, nr, kr, mr uint8, sparse bool) {
		n, k, m := int(nr%24)+1, int(kr%24)+1, int(mr%24)+1
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, n*k)
		b := randMat(rng, k*m)
		if sparse {
			sparsify(rng, a, 0.5)
			sparsify(rng, b, 0.2)
		}
		want := make([]float64, n*m)
		Naive(want, a, b, 0, n, k, m)
		packed := make([]float64, PackedLen(k, m))
		Pack(packed, b, k, m)
		got := make([]float64, n*m)
		Blocked(got, a, packed, 0, n, k, m)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d k=%d m=%d: cell %d = %v, want %v (bitwise)", n, k, m, i, got[i], want[i])
			}
		}
	})
}

func BenchmarkNaive256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randMat(rng, 256*256)
	y := randMat(rng, 256*256)
	dst := make([]float64, 256*256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Naive(dst, x, y, 0, 256, 256, 256)
	}
}

func BenchmarkBlocked256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randMat(rng, 256*256)
	y := randMat(rng, 256*256)
	packed := make([]float64, PackedLen(256, 256))
	dst := make([]float64, 256*256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pack(packed, y, 256, 256)
		Blocked(dst, x, packed, 0, 256, 256, 256)
	}
}
