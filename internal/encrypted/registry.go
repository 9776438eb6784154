package encrypted

import (
	"fmt"
	"sort"

	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/collective"
)

// asWorld lifts a group-level encrypted all-gather to a world-level
// cluster.Algorithm.
func asWorld(sub func(*cluster.Proc, Group, block.Message) []block.Message) cluster.Algorithm {
	return func(p *cluster.Proc, mine block.Message) block.Message {
		parts := sub(p, collective.World(p.P()), mine)
		return block.AssembleByOrigin(parts...)
	}
}

// Builders for every encrypted algorithm in the paper, by the names used
// in its tables and figures. "naive" uses the MVAPICH-style dispatcher
// underneath, exactly like the paper's baseline; "naive-rd"/"naive-ring"
// pin the underlying collective for ablations.
var builders = map[string]func() cluster.Algorithm{
	"naive":      func() cluster.Algorithm { return Naive(collective.MVAPICH(0)) },
	"naive-rd":   func() cluster.Algorithm { return Naive(collective.RD) },
	"naive-ring": func() cluster.Algorithm { return Naive(collective.Ring) },
	"o-ring":     func() cluster.Algorithm { return asWorld(ORing) },
	"o-rd":       func() cluster.Algorithm { return asWorld(ORD) },
	"o-rd2":      func() cluster.Algorithm { return asWorld(ORD2) },
	"c-ring":     CRing,
	"c-rd":       CRD,
	"hs1":        HS1,
	"hs1-solo":   HS1SoloDecrypt, // ablation: leader-only decryption
	"hs2":        HS2,
}

// Names returns every encrypted algorithm name, sorted.
func Names() []string {
	out := make([]string, 0, len(builders))
	for name := range builders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// PaperNames returns the eight algorithms of Table II in the paper's
// column order.
func PaperNames() []string {
	return []string{"naive", "o-ring", "o-rd", "o-rd2", "c-ring", "c-rd", "hs1", "hs2"}
}

// Get builds an encrypted all-gather algorithm by name.
func Get(name string) (cluster.Algorithm, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("encrypted: unknown algorithm %q (have %v)", name, Names())
	}
	return b(), nil
}
