package bounds

import (
	"testing"
	"testing/quick"

	"encag/internal/cluster"
	"encag/internal/cost"
	"encag/internal/encrypted"
)

func TestLowerTableI(t *testing.T) {
	// p=128, N=8, l=16, m=1000: rc=7, sc=127000, re=1, se=1000,
	// rd=ceil(lg8/lg17)=1, sd=7000.
	lb := Lower(128, 8, 1000)
	want := Metrics{Rc: 7, Sc: 127000, Re: 1, Se: 1000, Rd: 1, Sd: 7000}
	if lb != want {
		t.Fatalf("Lower = %+v, want %+v", lb, want)
	}
	// With l=1, rd = lg N.
	lb = Lower(8, 8, 10)
	if lb.Rd != 3 {
		t.Fatalf("Lower(8,8).Rd = %d, want 3", lb.Rd)
	}
	// l >= N: a single decryption round suffices (cf. HS1).
	lb = Lower(64, 4, 10)
	if lb.Rd != 1 {
		t.Fatalf("Lower(64,4).Rd = %d, want 1", lb.Rd)
	}
}

func TestPredictRejectsNonPow2(t *testing.T) {
	if _, err := Predict("naive", 12, 3, 10); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	if _, err := Predict("unknown", 8, 2, 10); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// Every Table II prediction must dominate the Table I lower bounds.
func TestPredictionsRespectLowerBounds(t *testing.T) {
	for _, pn := range [][2]int{{8, 2}, {16, 4}, {128, 8}, {1024, 16}} {
		p, n := pn[0], pn[1]
		lb := Lower(p, n, 100)
		for _, alg := range encrypted.PaperNames() {
			pred, err := Predict(alg, p, n, 100)
			if err != nil {
				t.Fatal(err)
			}
			if pred.Rc < lb.Rc && alg != "hs1" && alg != "hs2" {
				// HS schemes beat rc/sc "bounds" because shared-memory
				// staging is not counted as communication (paper, Sec
				// IV.B).
				t.Errorf("%s p=%d N=%d: rc=%d below bound %d", alg, p, n, pred.Rc, lb.Rc)
			}
			if pred.Re < lb.Re || pred.Se < lb.Se || pred.Rd < lb.Rd || pred.Sd < lb.Sd {
				t.Errorf("%s p=%d N=%d: prediction %+v beats lower bound %+v", alg, p, n, pred, lb)
			}
		}
	}
}

// The headline theoretical claim: C-Ring, C-RD and HS2 meet the s_d
// lower bound exactly; HS1 meets it up to the max(N,l) rounding; Naive
// exceeds it by a factor of ~l.
func TestDecryptionOptimality(t *testing.T) {
	p, n, m := 128, 8, int64(4096)
	lb := Lower(p, n, m)
	for _, alg := range []string{"c-ring", "c-rd", "hs2"} {
		pred, err := Predict(alg, p, n, m)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Sd != lb.Sd {
			t.Errorf("%s sd = %d, want exactly the lower bound %d", alg, pred.Sd, lb.Sd)
		}
	}
	naive, _ := Predict("naive", p, n, m)
	if ratio := float64(naive.Sd) / float64(lb.Sd); ratio < 15 || ratio > 20 {
		t.Errorf("naive sd/bound = %.1f, want ~l*(p-1)/(p-l) ~ 18", ratio)
	}
}

// Cross-validation: simulated runs of every algorithm must reproduce the
// Table II closed forms exactly (power-of-two, block mapping).
func TestPredictMatchesMeasured(t *testing.T) {
	for _, pn := range [][2]int{{8, 2}, {16, 4}, {64, 8}} {
		spec := cluster.Spec{P: pn[0], N: pn[1], Mapping: cluster.BlockMapping}
		const m = 640
		for _, alg := range encrypted.PaperNames() {
			pred, err := Predict(alg, spec.P, spec.N, m)
			if err != nil {
				t.Fatal(err)
			}
			a, err := encrypted.Get(alg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: a, MsgSize: m})
			if err != nil {
				t.Fatalf("%s on %v: %v", alg, spec, err)
			}
			c := res.Critical
			if c.Rc != pred.Rc || c.Re != pred.Re || c.Se != pred.Se ||
				c.Rd != pred.Rd || c.Sd != pred.Sd {
				t.Errorf("%s on %v: measured rc=%d re=%d se=%d rd=%d sd=%d, predicted %+v",
					alg, spec, c.Rc, c.Re, c.Se, c.Rd, c.Sd, pred)
			}
			// sc: exact up to GCM framing (28 bytes per ciphertext).
			if c.Sc < pred.Sc || c.Sc > pred.Sc+28*int64(spec.P)*int64(pred.Rc+2) {
				t.Errorf("%s on %v: sc=%d vs predicted %d", alg, spec, c.Sc, pred.Sc)
			}
		}
	}
}

// Cross-validation of our own cyclic-mapping derivations: simulated runs
// under cyclic mapping must reproduce PredictCyclic exactly.
func TestPredictCyclicMatchesMeasured(t *testing.T) {
	for _, pn := range [][2]int{{8, 2}, {16, 4}, {64, 8}, {128, 8}} {
		spec := cluster.Spec{P: pn[0], N: pn[1], Mapping: cluster.CyclicMapping}
		const m = 768
		for _, alg := range encrypted.PaperNames() {
			pred, err := PredictCyclic(alg, spec.P, spec.N, m)
			if err != nil {
				t.Fatal(err)
			}
			a, err := encrypted.Get(alg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: a, MsgSize: m})
			if err != nil {
				t.Fatalf("%s on %v: %v", alg, spec, err)
			}
			c := res.Critical
			if c.Rc != pred.Rc || c.Re != pred.Re || c.Se != pred.Se ||
				c.Rd != pred.Rd || c.Sd != pred.Sd {
				t.Errorf("%s on %v cyclic: measured rc=%d re=%d se=%d rd=%d sd=%d, predicted %+v",
					alg, spec, c.Rc, c.Re, c.Se, c.Rd, c.Sd, pred)
			}
		}
	}
}

func TestPredictCyclicRejects(t *testing.T) {
	if _, err := PredictCyclic("o-rd", 12, 3, 8); err == nil {
		t.Fatal("non-pow2 accepted")
	}
	if _, err := PredictCyclic("o-rd", 8, 8, 8); err == nil {
		t.Fatal("l=1 accepted (cyclic == block there)")
	}
	if _, err := PredictCyclic("what", 8, 2, 8); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// Property: lower bounds are monotone in p, N, and m.
func TestQuickLowerMonotone(t *testing.T) {
	f := func(k1, k2 uint8, mm uint16) bool {
		n := 1 << (k1%4 + 1)
		l := 1 << (k2 % 4)
		p := n * l
		m := int64(mm) + 1
		a := Lower(p, n, m)
		b := Lower(p*2, n*2, m) // double everything
		c := Lower(p, n, m*2)
		return b.Sc >= a.Sc && b.Sd >= a.Sd && b.Rc >= a.Rc &&
			c.Sc == 2*a.Sc && c.Sd == 2*a.Sd && c.Se == 2*a.Se
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
