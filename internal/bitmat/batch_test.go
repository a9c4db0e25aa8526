package bitmat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randMatrix fills a rows × cols matrix with density-p random bits.
func randMatrix(rng *rand.Rand, rows, cols int, p float64) *Matrix {
	m := New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < p {
				m.Set(r, c)
			}
		}
	}
	return m
}

// TestMatchRowAgainstQuick is the batch-kernel property: on random FM rows
// and CM matrices — widths straddling word boundaries included — the 8-wide
// kernel agrees bit for bit with the one-row-at-a-time SubsetOf reference,
// and the output obeys the packed-row contract.
func TestMatchRowAgainstQuick(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{1, 3, 63, 64, 65, 100, 127, 128, 129}
		rows := dims[rng.Intn(len(dims))]
		cols := dims[rng.Intn(len(dims))]
		cm := randMatrix(rng, rows, cols, 0.8)
		fm := NewRow(cols)
		for c := 0; c < cols; c++ {
			if rng.Float64() < 0.3 {
				fm.Set(c)
			}
		}
		got, want := NewRow(rows), NewRow(rows)
		MatchRowAgainst(fm, cm, got)
		matchRowAgainstScalar(fm, cm, want)
		if !Equal(got, want) {
			t.Logf("seed %d: %dx%d batch/scalar disagree", seed, rows, cols)
			return false
		}
		for j := 0; j < rows; j++ {
			if got.Get(j) != SubsetOf(fm, cm.Row(j)) {
				t.Logf("seed %d: row %d wrong", seed, j)
				return false
			}
		}
		// Packed-row contract: no garbage bits past rows.
		if rem := rows % 64; rem != 0 && got[len(got)-1]>>uint(rem) != 0 {
			t.Logf("seed %d: trailing garbage bits", seed)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(26))}); err != nil {
		t.Fatal(err)
	}
}

// TestMatchRowAgainstOverwrites pins that out is fully overwritten, not
// OR-folded into.
func TestMatchRowAgainstOverwrites(t *testing.T) {
	cm := New(5, 10)
	cm.Fill()
	cm.Clear(2, 3)
	fm := NewRow(10)
	fm.Set(3)
	out := NewRow(5)
	out.Fill(5) // stale garbage
	MatchRowAgainst(fm, cm, out)
	for j := 0; j < 5; j++ {
		if out.Get(j) != (j != 2) {
			t.Fatalf("row %d: got %v", j, out.Get(j))
		}
	}
}

func TestMatchRowAgainstZeroCols(t *testing.T) {
	cm := New(7, 0)
	out := NewRow(7)
	MatchRowAgainst(NewRow(0), cm, out)
	if PopCount(out) != 7 {
		t.Fatalf("zero-column FM must match every row, got %d of 7", PopCount(out))
	}
}

// TestTransposeQuick is the column-major property: TransposeInto(m) viewed
// with Get agrees with the row-major source at every (r, c), across widths
// straddling word boundaries, and reusing the destination matrix across
// shrinking and growing shapes stays correct.
func TestTransposeQuick(t *testing.T) {
	var scratch *Matrix
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{1, 2, 63, 64, 65, 120, 128, 130}
		rows := dims[rng.Intn(len(dims))]
		cols := dims[rng.Intn(len(dims))]
		m := randMatrix(rng, rows, cols, 0.4)
		scratch = TransposeInto(scratch, m)
		if scratch.Rows != cols || scratch.Cols != rows {
			t.Logf("seed %d: transpose is %dx%d, want %dx%d", seed, scratch.Rows, scratch.Cols, cols, rows)
			return false
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if m.Get(r, c) != scratch.Get(c, r) {
					t.Logf("seed %d: mismatch at (%d,%d)", seed, r, c)
					return false
				}
			}
		}
		// Contract: each column row has no bits past the source row count.
		for c := 0; c < cols; c++ {
			row := scratch.Row(c)
			if rem := rows % 64; rem != 0 && row[len(row)-1]>>uint(rem) != 0 {
				t.Logf("seed %d: column %d has trailing garbage", seed, c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(95))}); err != nil {
		t.Fatal(err)
	}
}

// TestTransposeRoundTrip pins transpose(transpose(m)) == m.
func TestTransposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dim := range [][2]int{{5, 5}, {64, 64}, {65, 63}, {130, 70}} {
		m := randMatrix(rng, dim[0], dim[1], 0.5)
		back := Transpose(Transpose(m))
		for r := 0; r < dim[0]; r++ {
			if !Equal(m.Row(r), back.Row(r)) {
				t.Fatalf("%v: round trip broke row %d", dim, r)
			}
		}
	}
}

// TestRowIterators cross-checks NextSet / NextAndNot / AndNot / Fill against
// the naive per-column loops.
func TestRowIterators(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		cols := 1 + rng.Intn(200)
		a, b := NewRow(cols), NewRow(cols)
		for c := 0; c < cols; c++ {
			if rng.Intn(2) == 0 {
				a.Set(c)
			}
			if rng.Intn(2) == 0 {
				b.Set(c)
			}
		}
		from := rng.Intn(cols + 2)
		wantSet, wantAndNot := -1, -1
		for c := from; c < cols; c++ {
			if a.Get(c) && wantSet < 0 {
				wantSet = c
			}
			if a.Get(c) && !b.Get(c) && wantAndNot < 0 {
				wantAndNot = c
			}
		}
		if got := a.NextSet(from); got != wantSet {
			t.Fatalf("trial %d: NextSet(%d) = %d, want %d", trial, from, got, wantSet)
		}
		if got := NextAndNot(a, b, from); got != wantAndNot {
			t.Fatalf("trial %d: NextAndNot(%d) = %d, want %d", trial, from, got, wantAndNot)
		}
		u := NewRow(cols)
		copy(u, a)
		u.AndNot(b)
		for c := 0; c < cols; c++ {
			if u.Get(c) != (a.Get(c) && !b.Get(c)) {
				t.Fatalf("trial %d: AndNot mismatch at %d", trial, c)
			}
		}
		f := NewRow(cols)
		n := rng.Intn(cols + 1)
		f.Fill(n)
		if PopCount(f) != n {
			t.Fatalf("trial %d: Fill(%d) set %d bits", trial, n, PopCount(f))
		}
		if n < cols && f.Get(n) {
			t.Fatalf("trial %d: Fill(%d) set bit %d", trial, n, n)
		}
	}
}

// TestReshapeReuse pins that Reshape reuses capacity and zeroes stale bits.
func TestReshapeReuse(t *testing.T) {
	m := New(10, 100)
	m.Fill()
	backing := &m.bits[0]
	m.Reshape(4, 60)
	if m.Rows != 4 || m.Cols != 60 || m.words != 1 {
		t.Fatalf("reshape dims wrong: %+v", m)
	}
	if &m.bits[0] != backing {
		t.Fatal("reshape reallocated despite sufficient capacity")
	}
	for r := 0; r < 4; r++ {
		if m.Row(r).Any() {
			t.Fatalf("reshape left stale bits in row %d", r)
		}
	}
}

// BenchmarkMatchRowKernel measures candidate-bitset construction — one FM
// row against a 300-row CM — with the 8-wide batch kernel versus the
// per-pair SubsetOf loop it replaces.
func BenchmarkMatchRowKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const rows, cols = 300, 44 // alu4-scale fabric
	cm := randMatrix(rng, rows, cols, 0.9)
	fm := NewRow(cols)
	for c := 0; c < cols; c++ {
		if rng.Float64() < 0.25 {
			fm.Set(c)
		}
	}
	out := NewRow(rows)
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MatchRowAgainst(fm, cm, out)
		}
	})
	b.Run("perpair", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			matchRowAgainstScalar(fm, cm, out)
		}
	})
}

// BenchmarkTranspose measures the 64×64 block word transpose at fabric scale.
func BenchmarkTranspose(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := randMatrix(rng, 300, 44, 0.9)
	var dst *Matrix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = TransposeInto(dst, m)
	}
}
