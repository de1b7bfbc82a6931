package stats

import (
	"encoding/binary"
	"math"
	"testing"
)

func decodeFloats(data []byte) []float64 {
	var xs []float64
	for len(data) >= 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		xs = append(xs, v)
	}
	return xs
}

// FuzzPercentiles checks that percentile extraction never panics, respects
// ordering across levels, and stays within the sample's support.
func FuzzPercentiles(f *testing.F) {
	seed := make([]byte, 0, 40)
	for _, v := range []float64{1, 2, 3, -5, 100} {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		seed = append(seed, b[:]...)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		xs := decodeFloats(raw)
		if len(xs) == 0 {
			if _, err := Percentile(xs, 50); err != ErrEmpty {
				t.Fatal("empty sample should return ErrEmpty")
			}
			return
		}
		levels := []float64{0, 10, 50, 90, 95, 99, 100}
		ps, err := Percentiles(xs, levels)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		prev := math.Inf(-1)
		for i, p := range ps {
			if p < prev-1e-9 {
				t.Fatalf("percentiles not monotone: %v", ps)
			}
			if p < lo-1e-9 || p > hi+1e-9 {
				t.Fatalf("P%g = %v outside support [%v, %v]", levels[i], p, lo, hi)
			}
			prev = p
		}
	})
}

// FuzzIDC checks the dispersion estimator never panics or goes negative.
func FuzzIDC(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, raw []byte) {
		xs := decodeFloats(raw)
		for i, x := range xs {
			xs[i] = math.Abs(x)
		}
		if v := IDC(xs, 50); v < 0 || math.IsNaN(v) {
			t.Fatalf("IDC = %v", v)
		}
	})
}
