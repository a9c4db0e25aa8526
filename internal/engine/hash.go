package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"repro/internal/bitmat"
)

// CanonicalHash returns the spec's canonical identity as a hex string —
// the same key (hex-encoded) the engine caches and journals results under
// and the replication feed reports. The gateway shards on it, and it is
// the idempotency token that makes retried submissions exactly-once: two
// specs with equal hashes resolve to one cached computation no matter how
// many members or retries saw them.
func (s JobSpec) CanonicalHash() string { return hex.EncodeToString([]byte(s.hashKey())) }

// mapResultVersion versions the result a map-hba or map-ea job returns.
// Both algorithms may pick any of several valid CM rows for a layout row, so
// a change to which one they pick bumps this constant, and so does a change
// to the effort counts the result reports: journals and caches then never
// serve a result the running code would not produce. It is
// folded into map keys only — synthesis results and Monte Carlo Psucc do not
// depend on which valid row a mapper picks, so their keys, and the journal
// records stored under them, stay valid.
//
// Version 2: the exact assignment step is bipartite matching instead of
// Munkres' method. Version 3: Stats.MatchChecks counts the pair tests
// actually made instead of layout rows × CM rows, so the match_checks a
// map job reports changed while every assignment stayed the same.
const mapResultVersion = 3

// hashKey is the canonical identity of a job: two specs with equal keys
// compute the same result and may share one cache entry. The key covers
// every field that influences the output — the function source (with the
// in-memory cover rendered to its deterministic PLA form), synthesis
// options, fabric parameters, Monte Carlo parameters and, for map jobs,
// mapResultVersion — and excludes scheduling-only fields (TimeoutMS).
func (s JobSpec) hashKey() string {
	h := sha256.New()
	hstr(h, string(s.Kind))
	if s.Kind == MapHBA || s.Kind == MapEA {
		hint(h, mapResultVersion)
	}
	switch {
	case s.Layout != nil:
		// The layout identity is its geometry, line kinds, and the packed
		// active words — the canonical serialization of the device
		// placement, hashed without rendering an intermediate string.
		hstr(h, "layout")
		hint(h, int64(s.Layout.Rows))
		hint(h, int64(s.Layout.Cols))
		hbool(h, s.Layout.MultiLevel)
		for _, k := range s.Layout.RowKinds {
			h.Write([]byte{byte(k)})
		}
		for _, k := range s.Layout.ColKinds {
			h.Write([]byte{byte(k)})
		}
		s.Layout.PackedWords(func(row bitmat.Row) {
			for _, w := range row {
				hint(h, int64(w))
			}
		})
	case s.Cover != nil:
		hstr(h, "cover")
		hint(h, int64(s.Cover.NumIn))
		hint(h, int64(s.Cover.NumOut))
		hstr(h, s.Cover.String())
	case s.Benchmark != "":
		hstr(h, "benchmark")
		hstr(h, s.Benchmark)
	default:
		hstr(h, "rows")
		hint(h, int64(s.Inputs))
		hint(h, int64(s.Outputs))
		hint(h, int64(len(s.Rows)))
		for _, r := range s.Rows {
			hstr(h, r)
		}
	}
	hbool(h, s.Minimize)
	hstr(h, s.Style)
	hint(h, int64(s.MaxFanin))
	hint(h, int64(len(s.DefectMap)))
	for _, r := range s.DefectMap {
		hstr(h, r)
	}
	hint(h, int64(s.SpareRows))
	hint(h, int64(math.Float64bits(s.OpenRate)))
	hint(h, int64(math.Float64bits(s.ClosedRate)))
	hint(h, s.Seed)
	hint(h, int64(s.Samples))
	hstr(h, s.Algorithm)
	return string(h.Sum(nil))
}

func hstr(h hash.Hash, s string) {
	hint(h, int64(len(s)))
	h.Write([]byte(s))
}

func hint(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func hbool(h hash.Hash, v bool) {
	if v {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}
