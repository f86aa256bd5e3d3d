package ndarray

import (
	"testing"
)

func TestNewLabeled(t *testing.T) {
	a := FromSlice(seq(24), 2, 3, 4)
	l := NewLabeled(a, "t", "X", "Y")
	if l.axisOf("t") != 0 || l.axisOf("X") != 1 || l.axisOf("Y") != 2 {
		t.Fatal("axisOf wrong")
	}
}

func TestNewLabeledPanics(t *testing.T) {
	a := FromSlice(seq(6), 2, 3)
	for name, fn := range map[string]func(){
		"count":     func() { NewLabeled(a, "t") },
		"duplicate": func() { NewLabeled(a, "t", "t") },
		"missing":   func() { NewLabeled(a, "t", "X").axisOf("Y") },
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

func TestStackToMatrix(t *testing.T) {
	// 2x3 array labeled (X, Y); samples=Y, features=X as in the paper's
	// fit(gt, ["t","X","Y"], ["X"], ["Y"]).
	a := FromSlice(seq(6), 2, 3) // X=2, Y=3
	l := NewLabeled(a, "X", "Y")
	m := l.StackToMatrix([]string{"Y"}, []string{"X"})
	if m.Dim(0) != 3 || m.Dim(1) != 2 {
		t.Fatalf("matrix shape %v, want [3 2]", m.Shape())
	}
	// m[y][x] must equal a[x][y].
	for x := 0; x < 2; x++ {
		for y := 0; y < 3; y++ {
			if m.At(y, x) != a.At(x, y) {
				t.Fatalf("m[%d,%d]=%v, want %v", y, x, m.At(y, x), a.At(x, y))
			}
		}
	}
}

func TestStackToMatrixMultiDim(t *testing.T) {
	// 4-d (a,b,c,d): samples (a,c) flattened, features (b,d) flattened.
	arr := FromSlice(seq(2*3*4*5), 2, 3, 4, 5)
	l := NewLabeled(arr, "a", "b", "c", "d")
	m := l.StackToMatrix([]string{"a", "c"}, []string{"b", "d"})
	if m.Dim(0) != 8 || m.Dim(1) != 15 {
		t.Fatalf("matrix shape %v, want [8 15]", m.Shape())
	}
	// Row index = a*4+c; col index = b*5+d.
	if m.At(1*4+2, 1*5+3) != arr.At(1, 1, 2, 3) {
		t.Fatal("multidim fold wrong")
	}
}

func TestStackToMatrixPanicsOnPartialDims(t *testing.T) {
	a := FromSlice(seq(6), 2, 3)
	l := NewLabeled(a, "X", "Y")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unpartitioned dims")
		}
	}()
	l.StackToMatrix([]string{"Y"}, []string{"Y"})
}
