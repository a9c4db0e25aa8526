// Package suite provides the benchmark circuits of the paper's Tables I
// and II. The original IWLS'93/MCNC PLA files are not redistributable in
// this repository, so each circuit is reproduced one of two ways:
//
//   - Exact: circuits with an arithmetic definition (the rd-family bit
//     counters, sqrt8, squar5) are regenerated from their defining function;
//     the rd-family product counts match the paper exactly (2^n - 1).
//   - Profile: the remaining circuits are deterministic synthetic covers
//     matching the paper's published inputs, outputs, product count, and
//     inclusion ratio. The defect-mapping experiment of Table II depends
//     only on this geometry and density, so the profile preserves the
//     behaviour being measured. It matches only these four numbers, not
//     the original function, so a profile row's Psucc need not equal the
//     paper's.
package suite

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/lfg"
	"repro/internal/logic"
)

// Kind says how a circuit is reproduced.
type Kind uint8

const (
	// Exact circuits are regenerated from their defining arithmetic.
	Exact Kind = iota
	// Profile circuits are synthetic covers matching published geometry.
	Profile
)

// String names the kind.
func (k Kind) String() string {
	if k == Exact {
		return "exact"
	}
	return "profile"
}

// Circuit is one benchmark entry.
type Circuit struct {
	Name string
	Kind Kind
	// Inputs, Outputs, Products are the paper's published dimensions
	// (Table II columns I, O, P). The rd-family exact circuits regenerate
	// exactly these; sqrt8 and squar5 are regenerated as full minterm
	// lists (255 and 30 products) that callers minimize.
	Inputs   int
	Outputs  int
	Products int
	// IR is the paper's published inclusion ratio (0 when unpublished).
	IR float64
	// build constructs the cover.
	build func(c Circuit) *logic.Cover
}

// Build constructs the circuit's cover. Exact circuits are regenerated from
// their defining function; profile circuits are sampled deterministically
// from the circuit name.
func (c Circuit) Build() *logic.Cover { return c.build(c) }

// table2 lists the 16 benchmarks of Table II with the paper's I/O/P/IR.
var table2 = []Circuit{
	{Name: "rd53", Kind: Exact, Inputs: 5, Outputs: 3, Products: 31, IR: 0.33, build: buildRD},
	{Name: "squar5", Kind: Exact, Inputs: 5, Outputs: 8, Products: 25, IR: 0.16, build: buildSquar5},
	{Name: "bw", Kind: Profile, Inputs: 5, Outputs: 28, Products: 22, IR: 0.12, build: buildProfile},
	{Name: "inc", Kind: Profile, Inputs: 7, Outputs: 9, Products: 30, IR: 0.17, build: buildProfile},
	{Name: "misex1", Kind: Profile, Inputs: 8, Outputs: 7, Products: 12, IR: 0.19, build: buildProfile},
	{Name: "sqrt8", Kind: Exact, Inputs: 8, Outputs: 4, Products: 29, IR: 0.21, build: buildSqrt8},
	{Name: "sao2", Kind: Profile, Inputs: 10, Outputs: 4, Products: 58, IR: 0.29, build: buildProfile},
	{Name: "rd73", Kind: Exact, Inputs: 7, Outputs: 3, Products: 127, IR: 0.34, build: buildRD},
	{Name: "clip", Kind: Profile, Inputs: 9, Outputs: 5, Products: 120, IR: 0.23, build: buildProfile},
	{Name: "rd84", Kind: Exact, Inputs: 8, Outputs: 4, Products: 255, IR: 0.33, build: buildRD},
	{Name: "ex1010", Kind: Profile, Inputs: 10, Outputs: 10, Products: 284, IR: 0.23, build: buildProfile},
	{Name: "table3", Kind: Profile, Inputs: 14, Outputs: 14, Products: 175, IR: 0.25, build: buildProfile},
	{Name: "misex3c", Kind: Profile, Inputs: 14, Outputs: 14, Products: 197, IR: 0.13, build: buildProfile},
	{Name: "exp5", Kind: Profile, Inputs: 8, Outputs: 63, Products: 74, IR: 0.10, build: buildProfile},
	{Name: "apex4", Kind: Profile, Inputs: 9, Outputs: 19, Products: 436, IR: 0.21, build: buildProfile},
	{Name: "alu4", Kind: Profile, Inputs: 14, Outputs: 8, Products: 575, IR: 0.19, build: buildProfile},
}

// table1 lists the Table I benchmarks (two-level vs multi-level areas for
// the original circuit and its negation). Dimensions are back-derived from
// the paper's two-level areas via area = (P+O)(2I+2O).
var table1 = []Circuit{
	{Name: "rd53", Kind: Exact, Inputs: 5, Outputs: 3, Products: 31, IR: 0.33, build: buildRD},
	{Name: "con1", Kind: Profile, Inputs: 7, Outputs: 2, Products: 9, IR: 0.30, build: buildProfile},
	{Name: "misex1", Kind: Profile, Inputs: 8, Outputs: 7, Products: 12, IR: 0.19, build: buildProfile},
	{Name: "bw", Kind: Profile, Inputs: 5, Outputs: 28, Products: 22, IR: 0.12, build: buildProfile},
	{Name: "sqrt8", Kind: Exact, Inputs: 8, Outputs: 4, Products: 38, IR: 0.21, build: buildSqrt8},
	{Name: "rd84", Kind: Exact, Inputs: 8, Outputs: 4, Products: 255, IR: 0.33, build: buildRD},
	{Name: "b12", Kind: Profile, Inputs: 15, Outputs: 9, Products: 43, IR: 0.15, build: buildProfile},
	{Name: "t481", Kind: Profile, Inputs: 16, Outputs: 1, Products: 481, IR: 0.25, build: buildProfile},
	{Name: "cordic", Kind: Profile, Inputs: 23, Outputs: 2, Products: 914, IR: 0.20, build: buildProfile},
}

// Table2Circuits returns the Table II benchmark list in paper order.
func Table2Circuits() []Circuit { return append([]Circuit(nil), table2...) }

// Table1Circuits returns the Table I benchmark list in paper order.
func Table1Circuits() []Circuit { return append([]Circuit(nil), table1...) }

// ByName looks a circuit up across both tables (Table II entry preferred).
func ByName(name string) (Circuit, bool) {
	for _, c := range table2 {
		if c.Name == name {
			return c, true
		}
	}
	for _, c := range table1 {
		if c.Name == name {
			return c, true
		}
	}
	return Circuit{}, false
}

// Names lists every known circuit name, sorted.
func Names() []string {
	set := map[string]bool{}
	for _, c := range table2 {
		set[c.Name] = true
	}
	for _, c := range table1 {
		set[c.Name] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BuildProfileCircuit builds the synthetic profile cover for an ad-hoc
// circuit descriptor (used by the experiments package for the negated
// circuits of Table I, whose dimensions are back-derived from the paper).
func BuildProfileCircuit(c Circuit) *logic.Cover { return buildProfile(c) }

// buildRD regenerates an rd-family bit counter: the outputs are the binary
// digits of the input's population count, and the PLA is the full list of
// minterms with a non-zero output — exactly 2^n - 1 products, matching the
// paper's product counts for rd53 (31), rd73 (127) and rd84 (255).
func buildRD(c Circuit) *logic.Cover {
	cov := logic.NewCover(c.Inputs, c.Outputs)
	for m := 1; m < 1<<uint(c.Inputs); m++ {
		cube := logic.NewCube(c.Inputs, c.Outputs)
		ones := 0
		for i := 0; i < c.Inputs; i++ {
			if m&(1<<uint(i)) != 0 {
				cube.In[i] = logic.LitPos
				ones++
			} else {
				cube.In[i] = logic.LitNeg
			}
		}
		for j := 0; j < c.Outputs; j++ {
			cube.Out[j] = ones&(1<<uint(j)) != 0
		}
		cov.Cubes = append(cov.Cubes, cube)
	}
	return cov
}

// buildSqrt8 regenerates sqrt8: the 4 output bits are floor(sqrt(x)) of the
// 8-bit input, as the full minterm list (callers minimize as needed).
func buildSqrt8(c Circuit) *logic.Cover {
	cov := logic.NewCover(8, 4)
	for m := 0; m < 256; m++ {
		r := int(math.Sqrt(float64(m)))
		if r*r > m {
			r--
		}
		if r == 0 {
			continue
		}
		cube := logic.NewCube(8, 4)
		for i := 0; i < 8; i++ {
			if m&(1<<uint(i)) != 0 {
				cube.In[i] = logic.LitPos
			} else {
				cube.In[i] = logic.LitNeg
			}
		}
		for j := 0; j < 4; j++ {
			cube.Out[j] = r&(1<<uint(j)) != 0
		}
		cov.Cubes = append(cov.Cubes, cube)
	}
	return cov
}

// buildSquar5 regenerates squar5: the 8 output bits are the low byte of the
// 5-bit input squared, as the full minterm list.
func buildSquar5(c Circuit) *logic.Cover {
	cov := logic.NewCover(5, 8)
	for m := 0; m < 32; m++ {
		sq := (m * m) & 0xFF
		if sq == 0 {
			continue
		}
		cube := logic.NewCube(5, 8)
		for i := 0; i < 5; i++ {
			if m&(1<<uint(i)) != 0 {
				cube.In[i] = logic.LitPos
			} else {
				cube.In[i] = logic.LitNeg
			}
		}
		for j := 0; j < 8; j++ {
			cube.Out[j] = sq&(1<<uint(j)) != 0
		}
		cov.Cubes = append(cov.Cubes, cube)
	}
	return cov
}

// buildProfile deterministically samples a synthetic cover with the paper's
// published geometry (I, O, P) and a device budget split between literals
// and product-to-output connections so the layout's inclusion ratio
// approximates the published IR.
func buildProfile(c Circuit) *logic.Cover {
	rng := rand.New(lfg.New(profileSeed(c.Name)))
	area := float64((c.Products + c.Outputs) * (2*c.Inputs + 2*c.Outputs))
	// Devices = sum over products of (literals + output memberships) + 2*O.
	perProduct := 3.0 // default density when the paper publishes no IR
	if c.IR > 0 {
		perProduct = (c.IR*area - 2*float64(c.Outputs)) / float64(c.Products)
	}
	// Literals are capped below the input count: minimized PLAs always keep
	// don't-care positions, and all-literal products would make a crossbar
	// row with one fully-broken column pair unable to host anything (a
	// failure mode the real benchmarks do not exhibit). Density beyond the
	// cap is realized as multi-output products (heavily shared products are
	// how wide low-input circuits like bw reach their published IR).
	litsCap := 0.85 * float64(c.Inputs)
	if litsCap < 1 {
		litsCap = 1
	}
	outs := perProduct - litsCap
	if outs < 1 {
		outs = 1
	}
	if outs > float64(c.Outputs) {
		outs = float64(c.Outputs)
	}
	lits := perProduct - outs
	if lits < 1 {
		lits = 1
	}
	if lits > litsCap {
		lits = litsCap
	}
	probRound := func(v float64) int {
		n := int(math.Floor(v))
		if rng.Float64() < v-math.Floor(v) {
			n++
		}
		return n
	}
	cov := logic.NewCover(c.Inputs, c.Outputs)
	seen := map[string]bool{}
	for len(cov.Cubes) < c.Products {
		cube := logic.NewCube(c.Inputs, c.Outputs)
		n := probRound(lits)
		if n < 1 {
			n = 1
		}
		if n > c.Inputs {
			n = c.Inputs
		}
		perm := rng.Perm(c.Inputs)
		for _, v := range perm[:n] {
			if rng.Intn(2) == 0 {
				cube.In[v] = logic.LitNeg
			} else {
				cube.In[v] = logic.LitPos
			}
		}
		no := probRound(outs)
		if no < 1 {
			no = 1
		}
		if no > c.Outputs {
			no = c.Outputs
		}
		// The first membership walks the outputs round-robin so every
		// output is driven (P >= O holds after the stride fill below when
		// P < O); the rest are random distinct outputs.
		idx := len(cov.Cubes)
		for j := idx % c.Outputs; ; j = (j + c.Products) % c.Outputs {
			cube.Out[j] = true
			if c.Products >= c.Outputs || j+c.Products >= c.Outputs {
				break
			}
		}
		for _, j := range rng.Perm(c.Outputs)[:no] {
			cube.Out[j] = true
		}
		key := cube.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		cov.Cubes = append(cov.Cubes, cube)
	}
	return cov
}

// profileSeed derives a stable seed from the circuit name so profiles are
// reproducible across runs and platforms.
func profileSeed(name string) int64 {
	var h int64 = 1469598103934665603
	for _, r := range name {
		h ^= int64(r)
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h
}
