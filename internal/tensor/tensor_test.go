package tensor

import (
	"testing"
	"testing/quick"
)

func TestDTypeSize(t *testing.T) {
	cases := []struct {
		d    DType
		size int
		name string
	}{
		{Int8, 1, "INT8"},
		{Int16, 2, "INT16"},
		{Int32, 4, "INT32"},
	}
	for _, c := range cases {
		if got := c.d.Size(); got != c.size {
			t.Errorf("%v.Size() = %d, want %d", c.d, got, c.size)
		}
		if got := c.d.String(); got != c.name {
			t.Errorf("%v.String() = %q, want %q", c.d, got, c.name)
		}
	}
}

func TestDTypeSizePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown dtype")
		}
	}()
	DType(99).Size()
}

func TestShapeBasics(t *testing.T) {
	s := NewShape(10, 20, 3)
	if s.Elems() != 600 {
		t.Errorf("Elems = %d, want 600", s.Elems())
	}
	if s.Bytes(Int16) != 1200 {
		t.Errorf("Bytes(Int16) = %d, want 1200", s.Bytes(Int16))
	}
	if s.Empty() {
		t.Error("non-empty shape reported Empty")
	}
	if !NewShape(0, 20, 3).Empty() {
		t.Error("zero-H shape not Empty")
	}
	if s.String() != "10x20x3" {
		t.Errorf("String = %q", s.String())
	}
}

func TestShapeDimAccess(t *testing.T) {
	s := NewShape(4, 5, 6)
	if s.Dim(AxisH) != 4 || s.Dim(AxisW) != 5 || s.Dim(AxisC) != 6 {
		t.Errorf("Dim mismatch: %v", s)
	}
	s2 := s.WithDim(AxisW, 9)
	if s2.W != 9 || s.W != 5 {
		t.Errorf("WithDim should copy: got %v from %v", s2, s)
	}
}

func TestNewShapePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative extent")
		}
	}()
	NewShape(-1, 2, 3)
}

func TestAxisString(t *testing.T) {
	if AxisH.String() != "H" || AxisW.String() != "W" || AxisC.String() != "C" {
		t.Error("axis names wrong")
	}
	if !AxisH.Spatial() || !AxisW.Spatial() || AxisC.Spatial() {
		t.Error("Spatial classification wrong")
	}
}

func TestRegionIntersect(t *testing.T) {
	whole := WholeRegion(NewShape(10, 10, 8))
	r := Region{Off: NewShape(2, 3, 0), Ext: NewShape(4, 4, 8)}
	if !whole.Contains(r) {
		t.Error("whole should contain r")
	}
	q := Region{Off: NewShape(5, 5, 0), Ext: NewShape(5, 5, 8)}
	got := r.Intersect(q)
	want := Region{Off: NewShape(5, 5, 0), Ext: NewShape(1, 2, 8)}
	if got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	far := Region{Off: NewShape(9, 9, 0), Ext: NewShape(1, 1, 8)}
	if r.Overlaps(far) {
		t.Error("disjoint regions reported overlapping")
	}
	if !r.Overlaps(q) {
		t.Error("overlapping regions reported disjoint")
	}
}

func TestRegionGrowClamp(t *testing.T) {
	s := NewShape(10, 10, 4)
	r := Region{Off: NewShape(0, 4, 0), Ext: NewShape(5, 2, 4)}
	g := r.Grow(AxisH, 1, 1).ClampTo(s)
	// Growing below offset 0 clamps to 0; above grows normally.
	if g.Off.H != 0 || g.Ext.H != 6 {
		t.Errorf("Grow+Clamp H = [%d,+%d], want [0,+6]", g.Off.H, g.Ext.H)
	}
	g2 := r.Grow(AxisW, 2, 2).ClampTo(s)
	if g2.Off.W != 2 || g2.Ext.W != 6 {
		t.Errorf("Grow+Clamp W = [%d,+%d], want [2,+6]", g2.Off.W, g2.Ext.W)
	}
}

func TestRegionEndAndString(t *testing.T) {
	r := Region{Off: NewShape(1, 2, 3), Ext: NewShape(4, 5, 6)}
	if r.End(AxisH) != 5 || r.End(AxisW) != 7 || r.End(AxisC) != 9 {
		t.Errorf("End wrong: %v", r)
	}
	if r.String() != "[1:5,2:7,3:9]" {
		t.Errorf("String = %q", r.String())
	}
	if r.Elems() != 120 {
		t.Errorf("Elems = %d", r.Elems())
	}
	if r.Bytes(Int8) != 120 {
		t.Errorf("Bytes = %d", r.Bytes(Int8))
	}
}

func TestRoundUpDown(t *testing.T) {
	cases := []struct{ n, align, up int }{
		{0, 4, 0},
		{1, 4, 4},
		{4, 4, 4},
		{5, 4, 8},
		{7, 1, 7},
		{7, 0, 7},
		{15, 16, 16},
	}
	for _, c := range cases {
		if got := RoundUp(c.n, c.align); got != c.up {
			t.Errorf("RoundUp(%d,%d) = %d, want %d", c.n, c.align, got, c.up)
		}
	}
}

func TestSplitEvenExact(t *testing.T) {
	chunks := SplitEven(12, 3, 1)
	for i, c := range chunks {
		if c != 4 {
			t.Errorf("chunk %d = %d, want 4", i, c)
		}
	}
}

func TestSplitEvenAligned(t *testing.T) {
	chunks := SplitEven(100, 3, 16)
	sum := 0
	for i, c := range chunks {
		sum += c
		if i < len(chunks)-1 && c%16 != 0 {
			t.Errorf("chunk %d = %d not 16-aligned", i, c)
		}
	}
	if sum != 100 {
		t.Errorf("chunks sum to %d, want 100", sum)
	}
}

func TestSplitWeightedProportional(t *testing.T) {
	chunks := SplitWeighted(100, []float64{3, 1}, 1)
	if chunks[0] != 75 || chunks[1] != 25 {
		t.Errorf("chunks = %v, want [75 25]", chunks)
	}
}

func TestSplitWeightedTooSmall(t *testing.T) {
	// Extent smaller than one aligned unit per core: some cores get zero.
	chunks := SplitEven(3, 3, 16)
	sum := 0
	zero := 0
	for _, c := range chunks {
		sum += c
		if c == 0 {
			zero++
		}
	}
	if sum != 3 {
		t.Errorf("sum = %d, want 3", sum)
	}
	if zero == 0 {
		t.Error("expected at least one empty chunk for tiny extent")
	}
}

func TestSplitWeightedZeroWeights(t *testing.T) {
	chunks := SplitWeighted(10, []float64{0, 0}, 1)
	if chunks[0] != 10 || chunks[1] != 0 {
		t.Errorf("chunks = %v, want [10 0]", chunks)
	}
}

func TestSplitWeightedPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SplitWeighted(10, []float64{1, -1}, 1)
}

func TestChunksToRegions(t *testing.T) {
	whole := NewShape(10, 6, 8)
	regions := ChunksToRegions(whole, AxisH, []int{4, 6})
	if regions[0].Off.H != 0 || regions[0].Ext.H != 4 {
		t.Errorf("region 0 = %v", regions[0])
	}
	if regions[1].Off.H != 4 || regions[1].Ext.H != 6 {
		t.Errorf("region 1 = %v", regions[1])
	}
	for _, r := range regions {
		if r.Ext.W != 6 || r.Ext.C != 8 {
			t.Errorf("non-split axes altered: %v", r)
		}
	}
}

// Property: SplitWeighted chunks are non-negative, sum to total, and all
// interior boundaries are aligned.
func TestSplitWeightedProperties(t *testing.T) {
	f := func(total uint16, w1, w2, w3 uint8, alignSel uint8) bool {
		tot := int(total % 4096)
		weights := []float64{float64(w1%8) + 0.5, float64(w2 % 8), float64(w3 % 8)}
		aligns := []int{1, 2, 4, 8, 16, 32}
		align := aligns[int(alignSel)%len(aligns)]
		chunks := SplitWeighted(tot, weights, align)
		sum, bound := 0, 0
		for i, c := range chunks {
			if c < 0 {
				return false
			}
			sum += c
			bound += c
			if i < len(chunks)-1 && bound%align != 0 && bound != tot {
				return false
			}
		}
		return sum == tot
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Intersect is commutative and contained in both operands.
func TestIntersectProperties(t *testing.T) {
	f := func(o1, o2, e1, e2 uint8) bool {
		r := Region{Off: NewShape(int(o1%20), int(o2%20), 0), Ext: NewShape(int(e1%20)+1, int(e2%20)+1, 4)}
		q := Region{Off: NewShape(int(o2%20), int(o1%20), 0), Ext: NewShape(int(e2%20)+1, int(e1%20)+1, 4)}
		a := r.Intersect(q)
		b := q.Intersect(r)
		if a != b {
			return false
		}
		if a.Empty() {
			return true
		}
		return r.Contains(a) && q.Contains(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
