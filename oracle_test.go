package encag_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"encag"
	"encag/internal/block"
)

// oracleDraw is one drawn cell of the cross-engine oracle: an algorithm
// on a shape, with uniform contributions of size[0] bytes (v false) or
// one size per rank (v true, zero-length blocks included).
type oracleDraw struct {
	alg   encag.Alg
	spec  encag.Spec
	v     bool
	sizes []int64
}

func (d oracleDraw) String() string {
	kind := "uniform"
	if d.v {
		kind = "v"
	}
	return fmt.Sprintf("alg=%s p=%d N=%d mapping=%s %s sizes=%v", d.alg, d.spec.Procs, d.spec.Nodes, d.spec.Mapping, kind, d.sizes)
}

// drawOracle draws cell i of the oracle from one fixed seed, so a
// failing cell repeats alone.
func drawOracle(i int, algs []encag.Alg) oracleDraw {
	rng := rand.New(rand.NewSource(int64(0x5eed + i)))
	n := 1 + rng.Intn(4)
	ell := 1 + rng.Intn(3)
	mapping := "block"
	if rng.Intn(2) == 1 {
		mapping = "cyclic"
	}
	d := oracleDraw{alg: algs[rng.Intn(len(algs))], spec: encag.Spec{Procs: n * ell, Nodes: n, Mapping: mapping}}
	sizes := []int64{0, 1, 700, 5000, 66 << 10} // 66 KiB spans two seal segments
	if d.v = rng.Intn(2) == 1; d.v {
		d.sizes = make([]int64, d.spec.Procs)
		for r := range d.sizes {
			d.sizes[r] = sizes[rng.Intn(len(sizes)-1)] // no segmented blocks: P of them under -race is slow
		}
	} else {
		d.sizes = []int64{sizes[1+rng.Intn(len(sizes)-1)]}
	}
	return d
}

// The paper's six metrics are counts fixed by the algorithm, the shape
// and the sizes: they depend on neither the engine nor how its events
// interleave. Each seeded draw runs one collective four ways, the
// simulator, a blocking and a started chan collective and a blocking TCP
// one, which must report identical Metrics; the real gathers must be
// byte-exact. A failure names the draw in a one-line repro.
func TestEnginesAgreeOnTheSixMetrics(t *testing.T) {
	algs := slices.DeleteFunc(encag.Algorithms(), func(a encag.Alg) bool { return a == encag.AlgAuto })
	draws := 48
	if testing.Short() {
		draws = 10
	}
	for i := 0; i < draws; i++ {
		d := drawOracle(i, algs)
		t.Run(fmt.Sprintf("draw=%d", i), func(t *testing.T) {
			repro := fmt.Sprintf("repro: go test -run 'TestEnginesAgreeOnTheSixMetrics/draw=%d$' . (%v)", i, d)
			if err := checkOracle(d); err != nil {
				t.Fatalf("%v\n%s", err, repro)
			}
		})
	}
}

// checkOracle runs d on every engine and compares what they report.
func checkOracle(d oracleDraw) error {
	ctx := context.Background()
	open := func(opts ...encag.Option) (*encag.Session, error) {
		return encag.OpenSession(ctx, d.spec, opts...)
	}
	sim, err := open(encag.WithEngine(encag.EngineSim), encag.WithProfile(encag.Noleland()))
	if err != nil {
		return err
	}
	defer sim.Close()
	ch, err := open(encag.WithEngine(encag.EngineChan))
	if err != nil {
		return err
	}
	defer ch.Close()
	tcp, err := open(encag.WithEngine(encag.EngineTCP))
	if err != nil {
		return err
	}
	defer tcp.Close()

	var want encag.Metrics
	var data [][]byte // the V draws' contributions
	if d.v {
		res, err := sim.SimulateV(ctx, d.alg, d.sizes)
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		want = res.Metrics
		data = make([][]byte, d.spec.Procs)
		for r, sz := range d.sizes {
			data[r] = block.FillPattern(r, sz)
		}
	} else {
		res, err := sim.Simulate(ctx, d.alg, d.sizes[0])
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		want = res.Metrics
	}
	real := []struct {
		name string
		run  func() (*encag.RunResult, error)
	}{
		{"chan run", func() (*encag.RunResult, error) { return gatherOn(ch, d, data) }},
		{"tcp run", func() (*encag.RunResult, error) { return gatherOn(tcp, d, data) }},
	}
	if !d.v {
		real = append(real, struct {
			name string
			run  func() (*encag.RunResult, error)
		}{"chan start", func() (*encag.RunResult, error) {
			h, err := ch.Start(ctx, d.alg, d.sizes[0])
			if err != nil {
				return nil, err
			}
			return h.Wait()
		}})
	}
	for _, e := range real {
		res, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if res.Metrics != want {
			return fmt.Errorf("%s metrics %+v, sim %+v", e.name, res.Metrics, want)
		}
		for r, view := range res.Gathered {
			for o, got := range view {
				var exp []byte
				if d.v {
					exp = data[o]
				} else {
					exp = block.FillPattern(o, d.sizes[0])
				}
				if !bytes.Equal(got, exp) {
					return fmt.Errorf("%s: rank %d holds a wrong block from origin %d", e.name, r, o)
				}
			}
		}
	}
	return nil
}

// gatherOn runs d blocking on a real-engine session: Run on the test
// patterns for a uniform draw, AllgatherV on data for a V draw.
func gatherOn(s *encag.Session, d oracleDraw, data [][]byte) (*encag.RunResult, error) {
	if d.v {
		return s.AllgatherV(context.Background(), d.alg, data)
	}
	return s.Run(context.Background(), d.alg, d.sizes[0])
}
