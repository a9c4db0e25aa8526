package suite

import "repro/internal/logic"

// This file provides the structural stand-ins for t481 and cordic, the two
// Table I benchmarks where the paper's multi-level design *wins*. Their
// defining property — a huge two-level cover with a tiny factored form — is
// reproduced with AND-of-XOR functions; the exact product counts differ from
// the MCNC originals, so Table I prints no paper areas for these two rows.

// XorAndCover builds the single-output function
//
//	f = (x0 ⊕ x1) · (x2 ⊕ x3) · … · (x_{2k-2} ⊕ x_{2k-1}) [· x_{2k} …]
//
// over nIn inputs using k disjoint pairs; remaining inputs are AND'ed in
// directly. Its minimal SOP has 2^k products (every XOR chooses one of its
// two phases), while its factored form needs only a few gates per pair —
// the t481 phenomenon.
func XorAndCover(nIn, pairs int) *logic.Cover {
	if 2*pairs > nIn {
		panic("suite: more XOR pairs than inputs allow")
	}
	cov := logic.NewCover(nIn, 1)
	for pattern := 0; pattern < 1<<uint(pairs); pattern++ {
		cube := logic.NewCube(nIn, 1)
		cube.Out[0] = true
		for p := 0; p < pairs; p++ {
			a, b := 2*p, 2*p+1
			if pattern&(1<<uint(p)) != 0 {
				cube.In[a] = logic.LitPos
				cube.In[b] = logic.LitNeg
			} else {
				cube.In[a] = logic.LitNeg
				cube.In[b] = logic.LitPos
			}
		}
		for i := 2 * pairs; i < nIn; i++ {
			cube.In[i] = logic.LitPos
		}
		cov.Cubes = append(cov.Cubes, cube)
	}
	return cov
}

// XorAndComplement builds the complement of XorAndCover analytically:
// f̄ = Σ_p XNOR(x_{2p}, x_{2p+1}) + Σ_extra x̄_i, which is 2*pairs + extras
// products of at most 2 literals.
func XorAndComplement(nIn, pairs int) *logic.Cover {
	cov := logic.NewCover(nIn, 1)
	addCube := func(set func(cube *logic.Cube)) {
		cube := logic.NewCube(nIn, 1)
		cube.Out[0] = true
		set(&cube)
		cov.Cubes = append(cov.Cubes, cube)
	}
	for p := 0; p < pairs; p++ {
		a, b := 2*p, 2*p+1
		addCube(func(cube *logic.Cube) {
			cube.In[a] = logic.LitPos
			cube.In[b] = logic.LitPos
		})
		addCube(func(cube *logic.Cube) {
			cube.In[a] = logic.LitNeg
			cube.In[b] = logic.LitNeg
		})
	}
	for i := 2 * pairs; i < nIn; i++ {
		addCube(func(cube *logic.Cube) {
			cube.In[i] = logic.LitNeg
		})
	}
	return cov
}

// T481Standin is the 16-input single-output stand-in for t481: 8 XOR pairs,
// minimal SOP of 256 products, factored form of a handful of gates.
func T481Standin() *logic.Cover { return XorAndCover(16, 8) }

// T481StandinNeg is its analytic complement (16 products).
func T481StandinNeg() *logic.Cover { return XorAndComplement(16, 8) }

// CordicStandin is the 23-input two-output stand-in for cordic: output 0 is
// 11 XOR pairs AND the last input (2048 products); output 1 is the OR of the
// same pair XNORs (22 products), sharing input structure like the original's
// two outputs do.
func CordicStandin() *logic.Cover {
	out0 := XorAndCover(23, 11)
	out1 := XorAndComplement(22, 11) // over x0..x21 only
	cov := logic.NewCover(23, 2)
	for _, cube := range out0.Cubes {
		nc := logic.NewCube(23, 2)
		copy(nc.In, cube.In)
		nc.Out[0] = true
		cov.Cubes = append(cov.Cubes, nc)
	}
	for _, cube := range out1.Cubes {
		nc := logic.NewCube(23, 2)
		copy(nc.In[:22], cube.In)
		nc.Out[1] = true
		cov.Cubes = append(cov.Cubes, nc)
	}
	return cov
}

// CordicStandinNeg complements both outputs of CordicStandin analytically.
func CordicStandinNeg() *logic.Cover {
	out0 := XorAndComplement(23, 11) // includes the x̄22 term
	out1 := XorAndCover(22, 11)
	cov := logic.NewCover(23, 2)
	for _, cube := range out0.Cubes {
		nc := logic.NewCube(23, 2)
		copy(nc.In, cube.In)
		nc.Out[0] = true
		cov.Cubes = append(cov.Cubes, nc)
	}
	for _, cube := range out1.Cubes {
		nc := logic.NewCube(23, 2)
		copy(nc.In[:22], cube.In)
		nc.Out[1] = true
		cov.Cubes = append(cov.Cubes, nc)
	}
	return cov
}
