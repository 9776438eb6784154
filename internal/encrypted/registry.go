package encrypted

import (
	"fmt"
	"sort"

	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/collective"
)

// groupAllgather is an encrypted all-gather over a group: it returns
// one plaintext chunk per member, in member order, in the rank's arena.
type groupAllgather func(*cluster.Proc, Group, block.Message) block.Message

// asWorld lifts a group-level encrypted all-gather to a world-level
// cluster.Algorithm.
func asWorld(sub groupAllgather) cluster.Algorithm {
	return func(p *cluster.Proc, mine block.Message) block.Message {
		return p.Assemble(sub(p, Group{Ranks: p.World()}, mine))
	}
}

// algorithms holds every encrypted algorithm in the paper, by the names
// used in its tables and figures, each built once. "naive" uses the
// MVAPICH-style dispatcher underneath, exactly like the paper's
// baseline; "naive-rd"/"naive-ring" pin the underlying collective for
// ablations. Every value is a stateless closure, so one shared value
// serves any number of concurrent operations. The encag facade builds
// its one algorithm table from this registry at init.
var algorithms = map[string]cluster.Algorithm{
	"naive":      Naive(collective.MVAPICH(0)),
	"naive-rd":   Naive(collective.RD),
	"naive-ring": Naive(collective.Ring),
	"o-ring":     asWorld(ORing),
	"o-rd":       asWorld(ORD),
	"o-rd2":      asWorld(ORD2),
	"c-ring":     CRing(),
	"c-rd":       CRD(),
	"hs1":        HS1(),
	"hs1-solo":   HS1SoloDecrypt(), // ablation: leader-only decryption
	"hs2":        HS2(),
}

// Names returns every encrypted algorithm name, sorted.
func Names() []string {
	out := make([]string, 0, len(algorithms))
	for name := range algorithms {
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

// Get returns the encrypted all-gather algorithm of that name: the one
// shared value, not a fresh build.
func Get(name string) (cluster.Algorithm, error) {
	a, ok := algorithms[name]
	if !ok {
		return nil, fmt.Errorf("encrypted: unknown algorithm %q (have %v)", name, Names())
	}
	return a, nil
}
