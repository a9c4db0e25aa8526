package mapping

import (
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/defect"
	"repro/internal/randfunc"
	"repro/internal/xbar"
)

// benchProblem builds a mid-size random instance (8-input two-level layout,
// 10% stuck-open fabric) for the matcher micro-benches.
func benchProblem(b *testing.B) *Problem {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	cov, err := randfunc.Generate(randfunc.Params{Inputs: 8}, rng)
	if err != nil {
		b.Fatal(err)
	}
	l, err := xbar.NewTwoLevel(cov)
	if err != nil {
		b.Fatal(err)
	}
	dm, err := defect.Generate(l.Rows, l.Cols, defect.Params{POpen: 0.10}, rng)
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewProblem(l, dm)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkRowMatch compares the word-packed compatibility test against the
// retained scalar reference — the per-check speedup behind every mapping
// algorithm's hot loop.
func BenchmarkRowMatch(b *testing.B) {
	p := benchProblem(b)
	match := func(b *testing.B, fn func(int, int, *Stats) bool) {
		b.ReportAllocs()
		var stats Stats
		for i := 0; i < b.N; i++ {
			fm := i % p.Layout.Rows
			fn(fm, (i*7)%p.Defects.Rows, &stats)
		}
	}
	b.Run("packed", func(b *testing.B) { match(b, p.rowMatches) })
	b.Run("scalar", func(b *testing.B) { match(b, p.scalarRowMatches) })
}

// BenchmarkBatchRowMatch compares full candidate-set construction — the
// candidate bitset of every FM row over every usable CM row — via the
// matcher's batched fill (one MatchRowAgainst pass per row, ANDed with the
// availability mask) against per-pair loops over the packed matcher and
// the retained scalar reference.
func BenchmarkBatchRowMatch(b *testing.B) {
	p := benchProblem(b)
	var s Scratch
	cand := bitmat.New(p.Layout.Rows, p.Defects.Rows)
	perPair := func(fn func(int, int, *Stats) bool) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var stats Stats
			for i := 0; i < b.N; i++ {
				cand.Reshape(p.Layout.Rows, p.Defects.Rows)
				for fm := 0; fm < p.Layout.Rows; fm++ {
					row := cand.Row(fm)
					for cm := 0; cm < p.Defects.Rows; cm++ {
						if fn(fm, cm, &stats) {
							row.Set(cm)
						}
					}
				}
			}
		}
	}
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.match.reset(p.Layout.ActiveMatrix(), p.Defects.FunctionalMatrix(), s.usableRows(p), nil)
			for fm := 0; fm < p.Layout.Rows; fm++ {
				s.match.candidates(fm)
			}
		}
	})
	b.Run("perpair", perPair(p.rowMatches))
	b.Run("scalar", perPair(p.scalarRowMatches))
}

// BenchmarkBipartiteMatch times the assignment step on the instance
// BenchmarkMunkres solves with its reference oracle (300 FM rows × 300 CM
// rows, 40 % of pairs forbidden, the same seeded draws), so the snapshot
// records the matcher next to the float Hungarian method it replaced. The
// graph is stated as bit matrices (oneHot FM rows, CM row t holding the FM
// rows that fit t), so the time includes the candidate fills the
// augmenting search makes.
func BenchmarkBipartiteMatch(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 300
	cm := bitmat.New(n, n)
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
		for j := 0; j < n; j++ {
			if rng.Float64() >= 0.4 {
				cm.Set(j, i)
			}
		}
	}
	fm := oneHot(n)
	avail := bitmat.NewRow(n)
	avail.Fill(n)
	place := make([]int, n)
	var m matcher
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.match(fm, cm, rows, avail, place) {
			b.Fatal("instance must be matchable")
		}
	}
}
