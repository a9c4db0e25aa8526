package logic

import (
	"fmt"
	"strings"
)

// Cover is a multi-output sum-of-products: a list of cubes over NumIn input
// variables and NumOut outputs. Output j computes the OR of the products of
// all cubes whose Out[j] bit is set.
type Cover struct {
	NumIn  int
	NumOut int
	Cubes  []Cube
}

// NewCover returns an empty cover (constant 0 on every output).
func NewCover(nIn, nOut int) *Cover {
	return &Cover{NumIn: nIn, NumOut: nOut}
}

// ParseCover builds a cover from PLA-style rows. Rows may omit the output
// part when nOut == 1.
func ParseCover(nIn, nOut int, rows ...string) (*Cover, error) {
	c := NewCover(nIn, nOut)
	for _, r := range rows {
		cube, err := ParseCube(r, nIn, nOut)
		if err != nil {
			return nil, err
		}
		c.Cubes = append(c.Cubes, cube)
	}
	return c, nil
}

// MustParseCover is ParseCover that panics on malformed input; intended for
// tests and package-internal literals.
func MustParseCover(nIn, nOut int, rows ...string) *Cover {
	c, err := ParseCover(nIn, nOut, rows...)
	if err != nil {
		panic(err)
	}
	return c
}

// Clone returns a deep copy of the cover.
func (c *Cover) Clone() *Cover {
	d := NewCover(c.NumIn, c.NumOut)
	d.Cubes = make([]Cube, len(c.Cubes))
	for i, cube := range c.Cubes {
		d.Cubes[i] = cube.Clone()
	}
	return d
}

// AddCube appends a cube; the cube must have matching dimensions.
func (c *Cover) AddCube(cube Cube) error {
	if len(cube.In) != c.NumIn || len(cube.Out) != c.NumOut {
		return fmt.Errorf("logic: cube dimensions %dx%d do not match cover %dx%d",
			len(cube.In), len(cube.Out), c.NumIn, c.NumOut)
	}
	c.Cubes = append(c.Cubes, cube)
	return nil
}

// Eval computes all outputs for the input assignment x.
func (c *Cover) Eval(x []bool) []bool {
	y := make([]bool, c.NumOut)
	for _, cube := range c.Cubes {
		if !cube.EvalInput(x) {
			continue
		}
		for j, b := range cube.Out {
			if b {
				y[j] = true
			}
		}
	}
	return y
}

// EvalOutput computes a single output for the input assignment x.
func (c *Cover) EvalOutput(j int, x []bool) bool {
	for _, cube := range c.Cubes {
		if cube.Out[j] && cube.EvalInput(x) {
			return true
		}
	}
	return false
}

// OutputCover extracts the single-output cover of output j: all cubes that
// belong to output j, re-labelled as a 1-output function.
func (c *Cover) OutputCover(j int) *Cover {
	d := NewCover(c.NumIn, 1)
	for _, cube := range c.Cubes {
		if !cube.Out[j] {
			continue
		}
		nc := Cube{In: append([]LitVal(nil), cube.In...), Out: []bool{true}}
		d.Cubes = append(d.Cubes, nc)
	}
	return d
}

// MergeOutputs assembles a multi-output cover from per-output single-output
// covers, sharing identical products across outputs. All inputs must agree
// on NumIn.
func MergeOutputs(perOut []*Cover) (*Cover, error) {
	if len(perOut) == 0 {
		return nil, fmt.Errorf("logic: MergeOutputs needs at least one cover")
	}
	nIn := perOut[0].NumIn
	nOut := len(perOut)
	merged := NewCover(nIn, nOut)
	index := map[string]int{} // product pattern -> cube index in merged
	for j, oc := range perOut {
		if oc.NumIn != nIn {
			return nil, fmt.Errorf("logic: output %d has %d inputs, want %d", j, oc.NumIn, nIn)
		}
		if oc.NumOut != 1 {
			return nil, fmt.Errorf("logic: output %d cover is not single-output", j)
		}
		for _, cube := range oc.Cubes {
			key := inputKey(cube.In)
			if k, ok := index[key]; ok {
				merged.Cubes[k].Out[j] = true
				continue
			}
			nc := NewCube(nIn, nOut)
			copy(nc.In, cube.In)
			nc.Out[j] = true
			index[key] = len(merged.Cubes)
			merged.Cubes = append(merged.Cubes, nc)
		}
	}
	return merged, nil
}

func inputKey(in []LitVal) string {
	b := make([]byte, len(in))
	for i, v := range in {
		b[i] = byte('0' + v)
	}
	return string(b)
}

// NumProducts reports the number of distinct product terms (cubes).
func (c *Cover) NumProducts() int { return len(c.Cubes) }

// TotalLiterals reports the total literal count across all cubes, the usual
// two-level cost metric.
func (c *Cover) TotalLiterals() int {
	n := 0
	for _, cube := range c.Cubes {
		n += cube.NumLiterals()
	}
	return n
}

// IsEmpty reports whether the cover has no cubes (constant 0).
func (c *Cover) IsEmpty() bool { return len(c.Cubes) == 0 }

// RemoveDuplicates deletes cubes whose input part and output part are both
// identical to an earlier cube's.
func (c *Cover) RemoveDuplicates() {
	seen := map[string]bool{}
	out := c.Cubes[:0]
	for _, cube := range c.Cubes {
		key := cube.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, cube)
	}
	c.Cubes = out
}

// SingleOutputContained deletes cubes (of a single-output cover) that are
// contained in another single cube of the cover.
func (c *Cover) SingleOutputContained() {
	keep := c.Cubes[:0]
	for i, cube := range c.Cubes {
		contained := false
		for k, other := range c.Cubes {
			if i == k {
				continue
			}
			if other.ContainsCube(cube) {
				// Break ties deterministically: drop the later, or the one
				// with more literals when mutual containment (duplicates).
				if !cube.ContainsCube(other) || k < i {
					contained = true
					break
				}
			}
		}
		if !contained {
			keep = append(keep, cube)
		}
	}
	c.Cubes = keep
}

// String renders the cover as newline-separated PLA rows.
func (c *Cover) String() string {
	var b strings.Builder
	for i, cube := range c.Cubes {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(cube.String())
	}
	return b.String()
}

// Cofactor returns the cover cofactored against cube p: the Shannon cofactor
// of the function with respect to the assignment p fixes.
func (c *Cover) Cofactor(p Cube) *Cover {
	d := NewCover(c.NumIn, c.NumOut)
	for _, cube := range c.Cubes {
		if r, ok := cube.CofactorCube(p); ok {
			d.Cubes = append(d.Cubes, r)
		}
	}
	return d
}

// CofactorVar returns the cofactor with respect to variable i set to the
// given polarity (true = positive).
func (c *Cover) CofactorVar(i int, positive bool) *Cover {
	p := NewCube(c.NumIn, c.NumOut)
	if positive {
		p.In[i] = LitPos
	} else {
		p.In[i] = LitNeg
	}
	return c.Cofactor(p)
}
