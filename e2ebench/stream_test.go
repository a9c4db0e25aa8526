package main

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// streamBytes serializes everything a stream sends: each batch's due time
// and body, phase by phase, plus gateway-hot's prepared spec space.
func streamBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	st, err := newStream(seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, phase := range [][]batchReq{st.Open, st.Closed} {
		binary.Write(&buf, binary.LittleEndian, int64(len(phase)))
		for _, b := range phase {
			binary.Write(&buf, binary.LittleEndian, int64(b.Due))
			buf.Write(b.Body)
		}
	}
	for _, s := range st.Space {
		buf.WriteString(s.CanonicalHash())
	}
	return buf.Bytes()
}

// TestStreamDeterminism pins the request stream as a pure function of
// (workload, seed): the same seed gives a byte-identical stream, a
// different seed a different one.
func TestStreamDeterminism(t *testing.T) {
	t.Run(gatewayHot, func(t *testing.T) {
		a, b := streamBytes(t, 7), streamBytes(t, 7)
		if len(a) == 0 {
			t.Fatal("empty stream")
		}
		if !bytes.Equal(a, b) {
			t.Fatal("same seed gave different streams")
		}
		if bytes.Equal(a, streamBytes(t, 8)) {
			t.Fatal("different seeds gave the same stream")
		}
	})
	t.Run(paperRepro, func(t *testing.T) {
		specs := func(seed int64) string {
			var s string
			for _, spec := range (&run{seed: seed}).paperSpecs() {
				s += spec.CanonicalHash()
			}
			return s
		}
		if specs(7) != specs(7) || specs(7) == specs(8) {
			t.Fatal("paper-repro jobs are not a function of the seed alone")
		}
	})
}
