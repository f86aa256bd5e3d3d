package ndarray

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

func TestNewAndAt(t *testing.T) {
	a := New(2, 3)
	if a.Size() != 6 || a.NDim() != 2 || a.Dim(1) != 3 {
		t.Fatalf("shape accessors wrong: %v", a.Shape())
	}
	a.Set(7, 1, 2)
	if a.At(1, 2) != 7 || a.At(0, 0) != 0 {
		t.Fatal("Set/At roundtrip failed")
	}
}

func TestFromSlice(t *testing.T) {
	a := FromSlice(seq(6), 2, 3)
	if a.At(0, 0) != 0 || a.At(1, 2) != 5 {
		t.Fatal("row-major layout violated")
	}
	if a.At(1, 0) != 3 {
		t.Fatal("row-major layout violated at (1,0)")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FromSlice(seq(5), 2, 3)
}

func TestScalarArray(t *testing.T) {
	a := New()
	a.Set(42)
	if a.At() != 42 || a.Size() != 1 {
		t.Fatal("0-d array broken")
	}
}

func TestReshape(t *testing.T) {
	a := FromSlice(seq(12), 3, 4)
	b := a.Reshape(2, 6)
	if b.At(1, 0) != 6 {
		t.Fatalf("Reshape wrong: At(1,0)=%v", b.At(1, 0))
	}
	c := a.Reshape(4, -1)
	if c.Dim(1) != 3 {
		t.Fatalf("inferred dim = %d, want 3", c.Dim(1))
	}
	// Reshape of contiguous array is a view over the same buffer.
	b.Set(99, 0, 0)
	if a.At(0, 0) != 99 {
		t.Fatal("Reshape of contiguous array should alias")
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice(seq(6), 2, 3)
	b := a.Transpose()
	if b.Dim(0) != 3 || b.Dim(1) != 2 {
		t.Fatalf("Transpose shape %v", b.Shape())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != b.At(j, i) {
				t.Fatal("transpose values wrong")
			}
		}
	}
	// A transposed view aliases.
	b.Set(-1, 2, 1)
	if a.At(1, 2) != -1 {
		t.Fatal("Transpose should be a view")
	}
	if b.IsContiguous() {
		t.Fatal("transposed 2x3 should be non-contiguous")
	}
	c := b.Contiguous()
	if !AllClose(b, c, 0) {
		t.Fatal("Contiguous changed values")
	}
}

func TestTransposePerm3D(t *testing.T) {
	a := FromSlice(seq(24), 2, 3, 4)
	b := a.Transpose(2, 0, 1)
	if b.Dim(0) != 4 || b.Dim(1) != 2 || b.Dim(2) != 3 {
		t.Fatalf("perm shape %v", b.Shape())
	}
	if b.At(3, 1, 2) != a.At(1, 2, 3) {
		t.Fatal("permuted access wrong")
	}
}

func TestSliceView(t *testing.T) {
	a := FromSlice(seq(20), 4, 5)
	s := a.Slice(Range{1, 3}, Range{2, 5})
	if s.Dim(0) != 2 || s.Dim(1) != 3 {
		t.Fatalf("slice shape %v", s.Shape())
	}
	if s.At(0, 0) != a.At(1, 2) {
		t.Fatal("slice origin wrong")
	}
	s.Set(100, 1, 2)
	if a.At(2, 4) != 100 {
		t.Fatal("slice must be a view")
	}
}

func TestArithmetic(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if got := a.Scale(2).Data(); got[1] != 4 || got[3] != 8 {
		t.Fatalf("Scale = %v", got)
	}
	if a.At(0, 1) != 2 {
		t.Fatal("Scale modified its receiver")
	}
	// A strided view scales into a fresh contiguous array.
	if got := a.Transpose().Scale(10).Data(); got[1] != 30 {
		t.Fatalf("Scale of view = %v", got)
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice(seq(6), 2, 3) // [[0,1,2],[3,4,5]]
	if a.Sum() != 15 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	s0 := a.SumAxis(0)
	if !Equal(s0, FromSlice([]float64{3, 5, 7}, 3)) {
		t.Fatalf("SumAxis(0) = %v", s0)
	}
	s1 := a.SumAxis(1)
	if !Equal(s1, FromSlice([]float64{3, 12}, 2)) {
		t.Fatalf("SumAxis(1) = %v", s1)
	}
	m1 := a.MeanAxis(1)
	if !Equal(m1, FromSlice([]float64{1, 4}, 2)) {
		t.Fatalf("MeanAxis(1) = %v", m1)
	}
	if mx := a.MaxAxis(0); !Equal(mx, FromSlice([]float64{3, 4, 5}, 3)) {
		t.Fatalf("MaxAxis = %v", mx)
	}
	if mn := a.MinAxis(1); !Equal(mn, FromSlice([]float64{0, 3}, 2)) {
		t.Fatalf("MinAxis = %v", mn)
	}
}

func TestConcat(t *testing.T) {
	a := FromSlice(seq(4), 2, 2)
	b := FromSlice([]float64{10, 11, 12, 13, 14, 15}, 3, 2)
	c := Concat(0, a, b)
	if c.Dim(0) != 5 || c.Dim(1) != 2 {
		t.Fatalf("Concat shape %v", c.Shape())
	}
	if c.At(2, 0) != 10 || c.At(4, 1) != 15 || c.At(1, 1) != 3 {
		t.Fatal("Concat values wrong")
	}
	d := Concat(1, a, a)
	if d.Dim(1) != 4 || d.At(0, 2) != 0 || d.At(1, 3) != 3 {
		t.Fatal("Concat axis 1 wrong")
	}
}

func TestCopyIndependence(t *testing.T) {
	a := FromSlice(seq(4), 2, 2)
	b := a.Copy()
	b.Set(99, 0, 0)
	if a.At(0, 0) == 99 {
		t.Fatal("Copy aliases source")
	}
}

func TestEqualAllClose(t *testing.T) {
	a := FromSlice(seq(4), 2, 2)
	if !Equal(a, a.Copy()) {
		t.Fatal("Equal(a, copy) = false")
	}
	if Equal(a, a.Reshape(4)) {
		t.Fatal("Equal across shapes should be false")
	}
	b := a.Copy()
	for i := range b.Data() {
		b.Data()[i] += 1e-9
	}
	if Equal(a, b) {
		t.Fatal("Equal should be exact")
	}
	if !AllClose(a, b, 1e-8) {
		t.Fatal("AllClose tolerance not honored")
	}
	if AllClose(a, b, 1e-10) {
		t.Fatal("AllClose too lax")
	}
}

func TestFillOnView(t *testing.T) {
	a := New(3, 3)
	a.Slice(Range{1, 2}, Range{0, 3}).Fill(5)
	if a.At(1, 0) != 5 || a.At(1, 2) != 5 || a.At(0, 0) != 0 || a.At(2, 2) != 0 {
		t.Fatal("Fill on view leaked or missed")
	}
}

func TestEmptyArrays(t *testing.T) {
	a := New(0, 3)
	if a.Size() != 0 {
		t.Fatal("empty size")
	}
	if a.Sum() != 0 {
		t.Fatal("empty reductions")
	}
	b := a.Copy()
	if b.Size() != 0 {
		t.Fatal("empty copy")
	}
}

// Property: reshape then reshape back is the identity.
func TestReshapeRoundTripQuick(t *testing.T) {
	f := func(r, c uint8) bool {
		rows := int(r%8) + 1
		cols := int(c%8) + 1
		a := FromSlice(seq(rows*cols), rows, cols)
		back := a.Reshape(rows*cols).Reshape(rows, cols)
		return Equal(a, back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose twice is the identity; slice of a slice composes.
func TestTransposeInvolutionQuick(t *testing.T) {
	f := func(r, c uint8, vals []float64) bool {
		rows := int(r%6) + 1
		cols := int(c%6) + 1
		data := make([]float64, rows*cols)
		for i := range data {
			if i < len(vals) && !math.IsNaN(vals[i]) {
				data[i] = vals[i]
			}
		}
		a := FromSlice(data, rows, cols)
		return Equal(a, a.Transpose().Transpose().Copy())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Sum equals SumAxis composed over all axes.
func TestSumDecompositionQuick(t *testing.T) {
	f := func(r, c uint8) bool {
		rows := int(r%6) + 1
		cols := int(c%6) + 1
		rng := rand.New(rand.NewSource(int64(r)*997 + int64(c)))
		a := New(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				a.Set(rng.NormFloat64(), i, j)
			}
		}
		total := a.Sum()
		byAxis := a.SumAxis(0).Sum()
		return math.Abs(total-byAxis) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPanics(t *testing.T) {
	a := New(2, 2)
	for name, fn := range map[string]func(){
		"bad index":       func() { a.At(2, 0) },
		"wrong rank":      func() { a.At(0) },
		"bad reshape":     func() { a.Reshape(3) },
		"two inferred":    func() { a.Reshape(-1, -1) },
		"bad perm":        func() { a.Transpose(0, 0) },
		"bad slice":       func() { a.Slice(Range{0, 3}, All(2)) },
		"shape mismatch":  func() { a.CopyFrom(New(2, 3)) },
		"neg shape":       func() { New(-1) },
		"data on view":    func() { a.Transpose().Data() },
		"concat mismatch": func() { Concat(0, a, New(2, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
