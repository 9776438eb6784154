package bench

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"encag"
	"encag/internal/bounds"
	"encag/internal/cluster"
	"encag/internal/seal"
)

var bg = context.Background()

// openSim opens the EngineSim session an experiment simulates on for as
// long as it stays with one (spec, profile).
func openSim(spec encag.Spec, prof encag.Profile) (*encag.Session, error) {
	return encag.OpenSession(bg, spec, encag.WithEngine(encag.EngineSim), encag.WithProfile(prof))
}

// Options tunes experiment execution.
type Options struct {
	// Quick trims large message sizes and large process counts so the
	// whole suite finishes in seconds; used by tests. Full runs (the
	// default) regenerate every published row.
	Quick bool
	// Iters overrides the iteration count of host-measuring experiments
	// (currently the overlap study); 0 keeps each experiment's default.
	Iters int
}

// Experiment regenerates one of the paper's tables or figures.
type Experiment struct {
	ID    string
	Title string
	Run   func(opts Options) ([]Table, error)
}

// All returns every experiment in paper order, plus the ablations.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Encryption vs ping-pong throughput (Noleland model + this host's real GCM)", Figure1},
		{"table1", "Lower bounds for encrypted all-gather (Table I)", TableI},
		{"table2", "Algorithm cost metrics, predicted vs measured (Table II)", TableII},
		{"table2c", "Cost metrics under cyclic mapping, our derivation vs measured", TableIICyclic},
		{"table3", "Noleland p=128 N=8 block mapping (Table III)", TableIII},
		{"table4", "Noleland p=128 N=8 cyclic mapping (Table IV)", TableIV},
		{"table5", "Noleland p=91 N=7 block mapping (Table V)", TableV},
		{"table6", "Bridges-2 p=1024 N=16 (Table VI)", TableVI},
		{"fig5", "Unencrypted counterparts, block mapping (Figure 5)", Figure5},
		{"fig6", "Unencrypted counterparts, cyclic mapping (Figure 6)", Figure6},
		{"fig7", "Encrypted algorithms, block mapping (Figure 7)", Figure7},
		{"fig8", "Encrypted algorithms, cyclic mapping (Figure 8)", Figure8},
		{"overlap", "Serialized vs multiplexed in-flight all-gathers (this host)", Overlap},
		{"ablation", "Design-choice ablations (DESIGN.md)", Ablations},
		{"sensitivity", "Overheads vs crypto/network speed ratio (extension study)", Sensitivity},
		{"breakdown", "Critical-rank time breakdown per algorithm (trace study)", Breakdown},
	}
}

// Get finds an experiment by ID.
func Get(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// IDs lists experiment identifiers in order.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}

func trimSizes(sizes []int64, opts Options) []int64 {
	if !opts.Quick {
		return sizes
	}
	var out []int64
	for _, s := range sizes {
		if s <= 32<<10 {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		out = sizes[:1]
	}
	return out
}

// Figure1 reproduces the motivation plot: single-stream ping-pong
// throughput vs AES-GCM throughput on the Noleland model, next to this
// host's real Go AES-GCM throughput (the same 2:1 shape on any machine
// with AES-NI).
func Figure1(opts Options) ([]Table, error) {
	prof := encag.Noleland()
	t := Table{
		ID:      "fig1",
		Title:   "Throughput (MB/s) by message size",
		YUnit:   "throughput (MB/s)",
		Headers: []string{"size", "ping-pong(model)", "encryption(model)", "gcm-seal(host)", "gcm-open(host)"},
		Notes: []string{
			"model columns are the calibrated Noleland profile (paper Fig. 1: ping-pong ~11000 MB/s, encryption ~5500 MB/s)",
			"host columns measure Go's crypto AES-GCM on this machine for shape comparison",
		},
	}
	slr, err := seal.NewRandomSealer()
	if err != nil {
		return nil, err
	}
	// Figure 1 needs no trimming: it is closed-form plus a bounded-work
	// host measurement even at 2MB.
	for _, m := range sizesFig1 {
		sealMBps, openMBps, err := hostGCMThroughput(slr, m)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			SizeName(m),
			fmt.Sprintf("%.4g", prof.PingPongThroughput(m)/1e6),
			fmt.Sprintf("%.4g", prof.EncryptThroughput(m)/1e6),
			fmt.Sprintf("%.4g", sealMBps),
			fmt.Sprintf("%.4g", openMBps),
		})
	}
	return []Table{t}, nil
}

// hostGCMThroughput measures real AES-GCM seal/open throughput for
// m-byte buffers on this machine (MB/s).
func hostGCMThroughput(slr *seal.Sealer, m int64) (sealMBps, openMBps float64, err error) {
	buf := make([]byte, m)
	for i := range buf {
		buf[i] = byte(i)
	}
	iters := int(math.Max(4, math.Min(4096, float64(8<<20)/float64(m+1))))
	blobs := make([][]byte, iters)
	start := time.Now()
	for i := 0; i < iters; i++ {
		blobs[i], err = slr.Seal(buf, nil)
		if err != nil {
			return 0, 0, err
		}
	}
	sealMBps = float64(m) * float64(iters) / time.Since(start).Seconds() / 1e6
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err = slr.Open(blobs[i], nil); err != nil {
			return 0, 0, err
		}
	}
	openMBps = float64(m) * float64(iters) / time.Since(start).Seconds() / 1e6
	return sealMBps, openMBps, nil
}

// TableI renders the lower bounds for the paper's two cluster setups.
func TableI(opts Options) ([]Table, error) {
	t := Table{
		ID:      "table1",
		Title:   "Lower bounds (m = 1024 bytes)",
		Headers: []string{"setup", "rc", "sc", "re", "se", "rd", "sd"},
	}
	for _, s := range []struct {
		name string
		p, n int
	}{
		{"p=128 N=8 l=16", 128, 8},
		{"p=1024 N=16 l=64", 1024, 16},
		{"p=8 N=8 l=1", 8, 8},
	} {
		lb := bounds.Lower(s.p, s.n, 1024)
		t.Rows = append(t.Rows, []string{
			s.name,
			fmt.Sprint(lb.Rc), fmt.Sprint(lb.Sc), fmt.Sprint(lb.Re),
			fmt.Sprint(lb.Se), fmt.Sprint(lb.Rd), fmt.Sprint(lb.Sd),
		})
	}
	return []Table{t}, nil
}

// TableII renders the closed-form metric predictions next to measured
// counters from instrumented simulation runs (p=128, N=8, block mapping,
// m=1KB), verifying the paper's Table II.
func TableII(opts Options) ([]Table, error) {
	p, n := 128, 8
	if opts.Quick {
		p, n = 32, 4
	}
	const m = 1024
	spec := encag.Spec{Procs: p, Nodes: n}
	t := Table{
		ID:    "table2",
		Title: fmt.Sprintf("Predicted vs measured metrics (p=%d N=%d m=%s, block mapping)", p, n, SizeName(m)),
		Headers: []string{"algorithm",
			"rc(pred)", "rc(meas)", "re(pred)", "re(meas)", "se(pred)", "se(meas)",
			"rd(pred)", "rd(meas)", "sd(pred)", "sd(meas)"},
		Notes: []string{
			"O-RD rd follows the paper's body text (N-1); its Table II cell p-l conflicts with the table's own sd column (DESIGN.md)",
		},
	}
	s, err := openSim(spec, encag.Noleland())
	if err != nil {
		return nil, err
	}
	defer s.Close()
	for _, alg := range encag.PaperAlgorithms() {
		pred, err := bounds.Predict(string(alg), p, n, m)
		if err != nil {
			return nil, err
		}
		res, err := s.Simulate(bg, alg, m)
		if err != nil {
			return nil, err
		}
		c := res.Metrics
		t.Rows = append(t.Rows, []string{string(alg),
			fmt.Sprint(pred.Rc), fmt.Sprint(c.Rc),
			fmt.Sprint(pred.Re), fmt.Sprint(c.Re),
			fmt.Sprint(pred.Se), fmt.Sprint(c.Se),
			fmt.Sprint(pred.Rd), fmt.Sprint(c.Rd),
			fmt.Sprint(pred.Sd), fmt.Sprint(c.Sd),
		})
	}
	return []Table{t}, nil
}

// TableIICyclic renders our cyclic-mapping closed forms (the paper only
// tabulates block mapping) against instrumented runs. O-RD and O-RD2
// change dramatically under cyclic mapping: recursive doubling meets its
// inter-node partners first, while each process holds only its own
// block, so far less data is sealed and opened.
func TableIICyclic(opts Options) ([]Table, error) {
	p, n := 128, 8
	if opts.Quick {
		p, n = 32, 4
	}
	const m = 1024
	spec := encag.Spec{Procs: p, Nodes: n, Mapping: "cyclic"}
	t := Table{
		ID:    "table2c",
		Title: fmt.Sprintf("Predicted vs measured metrics (p=%d N=%d m=%s, CYCLIC mapping)", p, n, SizeName(m)),
		Headers: []string{"algorithm",
			"re(pred)", "re(meas)", "se(pred)", "se(meas)",
			"rd(pred)", "rd(meas)", "sd(pred)", "sd(meas)"},
		Notes: []string{
			"cyclic closed forms are this reproduction's derivation (DESIGN.md); the paper tabulates block mapping only",
		},
	}
	s, err := openSim(spec, encag.Noleland())
	if err != nil {
		return nil, err
	}
	defer s.Close()
	for _, alg := range encag.PaperAlgorithms() {
		pred, err := bounds.PredictCyclic(string(alg), p, n, m)
		if err != nil {
			return nil, err
		}
		res, err := s.Simulate(bg, alg, m)
		if err != nil {
			return nil, err
		}
		c := res.Metrics
		t.Rows = append(t.Rows, []string{string(alg),
			fmt.Sprint(pred.Re), fmt.Sprint(c.Re),
			fmt.Sprint(pred.Se), fmt.Sprint(c.Se),
			fmt.Sprint(pred.Rd), fmt.Sprint(c.Rd),
			fmt.Sprint(pred.Sd), fmt.Sprint(c.Sd),
		})
	}
	return []Table{t}, nil
}

// bestCandidates are the paper's proposed schemes (everything but Naive).
func bestCandidates() []encag.Alg {
	return slices.DeleteFunc(encag.PaperAlgorithms(), func(a encag.Alg) bool { return a == encag.AlgNaive })
}

// overheadTable builds a Table III/IV/V/VI-style comparison: our modelled
// MPI latency, Naive overhead and best scheme, next to the paper's
// published values.
func overheadTable(id, title string, spec encag.Spec, prof encag.Profile,
	sizes []int64, paper []PaperRow, opts Options) ([]Table, error) {
	t := Table{
		ID:    id,
		Title: title,
		Headers: []string{"size", "MPI(us)", "naive(%)", "best(%)", "best-scheme",
			"paper-MPI(us)", "paper-naive(%)", "paper-best(%)", "paper-best"},
		Notes: []string{
			"ours: simulated on the calibrated profile; paper: published measurements",
			"negative overhead = faster than unencrypted MPI",
		},
	}
	paperBySize := map[int64]PaperRow{}
	for _, r := range paper {
		paperBySize[r.Size] = r
	}
	s, err := openSim(spec, prof)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	for _, m := range trimSizes(sizes, opts) {
		mpi, err := s.Simulate(bg, "mpi", m)
		if err != nil {
			return nil, err
		}
		naive, err := s.Simulate(bg, "naive", m)
		if err != nil {
			return nil, err
		}
		bestName, bestLat := encag.Alg(""), math.Inf(1)
		for _, cand := range bestCandidates() {
			r, err := s.Simulate(bg, cand, m)
			if err != nil {
				return nil, err
			}
			if lat := r.Latency.Seconds(); lat < bestLat {
				bestLat, bestName = lat, cand
			}
		}
		mpiLat := mpi.Latency.Seconds()
		row := []string{
			SizeName(m),
			fmtUS(mpiLat),
			fmtPct(100 * (naive.Latency.Seconds() - mpiLat) / mpiLat),
			fmtPct(100 * (bestLat - mpiLat) / mpiLat),
			string(bestName),
		}
		if pr, ok := paperBySize[m]; ok {
			row = append(row, fmtUS(pr.MPIMicros/1e6), fmtPct(pr.NaivePct), fmtPct(pr.BestPct), pr.BestScheme)
		} else {
			row = append(row, "-", "-", "-", "-")
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// TableIII: Noleland, p=128, N=8, block mapping.
func TableIII(opts Options) ([]Table, error) {
	spec := encag.Spec{Procs: 128, Nodes: 8}
	if opts.Quick {
		spec = encag.Spec{Procs: 32, Nodes: 4}
	}
	return overheadTable("table3",
		fmt.Sprintf("Overheads vs unencrypted MPI (p=%d N=%d, block)", spec.Procs, spec.Nodes),
		spec, encag.Noleland(), sizesTableIII, PaperTableIII, opts)
}

// TableIV: Noleland, p=128, N=8, cyclic mapping.
func TableIV(opts Options) ([]Table, error) {
	spec := encag.Spec{Procs: 128, Nodes: 8, Mapping: "cyclic"}
	if opts.Quick {
		spec = encag.Spec{Procs: 32, Nodes: 4, Mapping: "cyclic"}
	}
	return overheadTable("table4",
		fmt.Sprintf("Overheads vs unencrypted MPI (p=%d N=%d, cyclic)", spec.Procs, spec.Nodes),
		spec, encag.Noleland(), sizesTableIV, PaperTableIV, opts)
}

// TableV: Noleland, p=91, N=7, block mapping (non-power-of-two).
func TableV(opts Options) ([]Table, error) {
	spec := encag.Spec{Procs: 91, Nodes: 7}
	if opts.Quick {
		spec = encag.Spec{Procs: 21, Nodes: 7}
	}
	return overheadTable("table5",
		fmt.Sprintf("Overheads vs unencrypted MPI (p=%d N=%d, block, non-power-of-two)", spec.Procs, spec.Nodes),
		spec, encag.Noleland(), sizesTableV, PaperTableV, opts)
}

// TableVI: Bridges-2, p=1024, N=16.
func TableVI(opts Options) ([]Table, error) {
	spec := encag.Spec{Procs: 1024, Nodes: 16}
	if opts.Quick {
		spec = encag.Spec{Procs: 128, Nodes: 16}
	}
	return overheadTable("table6",
		fmt.Sprintf("Overheads vs unencrypted MPI on Bridges-2 (p=%d N=%d, block)", spec.Procs, spec.Nodes),
		spec, encag.Bridges2(), sizesTableVI, PaperTableVI, opts)
}

// figurePanel builds one latency-vs-size panel.
func figurePanel(id, title string, s *encag.Session,
	sizes []int64, series []encag.Alg, opts Options) (Table, error) {
	hdr := []string{"size"}
	for _, a := range series {
		hdr = append(hdr, string(a))
	}
	t := Table{
		ID:      id,
		Title:   title,
		YUnit:   "latency (us)",
		Headers: hdr,
		Notes:   []string{"latency in microseconds (us)"},
	}
	for _, m := range trimSizes(sizes, opts) {
		row := []string{SizeName(m)}
		for _, alg := range series {
			r, err := s.Simulate(bg, alg, m)
			if err != nil {
				return Table{}, fmt.Errorf("%s %s @%s: %w", id, alg, SizeName(m), err)
			}
			row = append(row, fmtUS(r.Latency.Seconds()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func figure(idPrefix string, spec encag.Spec, prof encag.Profile, opts Options,
	panels []struct {
		suffix string
		title  string
		sizes  []int64
		series []encag.Alg
	}) ([]Table, error) {
	s, err := openSim(spec, prof)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	var out []Table
	for _, pn := range panels {
		t, err := figurePanel(idPrefix+pn.suffix, pn.title, s, pn.sizes, pn.series, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

type panelDef = struct {
	suffix string
	title  string
	sizes  []int64
	series []encag.Alg
}

// Figure5: unencrypted counterparts, block mapping, p=128 N=8.
func Figure5(opts Options) ([]Table, error) {
	spec := encag.Spec{Procs: 128, Nodes: 8}
	if opts.Quick {
		spec = encag.Spec{Procs: 32, Nodes: 4}
	}
	return figure("fig5", spec, encag.Noleland(), opts, []panelDef{
		{"a", "small messages (unencrypted counterparts, block)", sizesFig5a,
			[]encag.Alg{"mpi", "plain-c-rd", "plain-hs1"}},
		{"b", "medium messages (unencrypted counterparts, block)", sizesFig5b,
			[]encag.Alg{"mpi", "plain-c-ring", "plain-c-rd", "plain-hs1"}},
		{"c", "large messages (unencrypted counterparts, block)", sizesFig5c,
			[]encag.Alg{"mpi", "plain-c-ring", "plain-c-rd", "plain-hs1"}},
	})
}

// Figure6: unencrypted counterparts, cyclic mapping.
func Figure6(opts Options) ([]Table, error) {
	spec := encag.Spec{Procs: 128, Nodes: 8, Mapping: "cyclic"}
	if opts.Quick {
		spec = encag.Spec{Procs: 32, Nodes: 4, Mapping: "cyclic"}
	}
	return figure("fig6", spec, encag.Noleland(), opts, []panelDef{
		{"a", "small messages (unencrypted counterparts, cyclic)", sizesFig6a,
			[]encag.Alg{"mpi", "plain-c-rd", "plain-hs1"}},
		{"b", "medium messages (unencrypted counterparts, cyclic)", sizesFig6b,
			[]encag.Alg{"mpi", "plain-c-ring", "plain-c-rd", "plain-hs1"}},
		{"c", "large messages (unencrypted counterparts, cyclic)", sizesFig6c,
			[]encag.Alg{"plain-c-ring", "plain-hs1"}},
	})
}

// Figure7: encrypted algorithms, block mapping.
func Figure7(opts Options) ([]Table, error) {
	spec := encag.Spec{Procs: 128, Nodes: 8}
	if opts.Quick {
		spec = encag.Spec{Procs: 32, Nodes: 4}
	}
	return figure("fig7", spec, encag.Noleland(), opts, []panelDef{
		{"a", "small messages (encrypted, block)", sizesFig7a,
			[]encag.Alg{"o-rd", "o-rd2", "c-rd", "hs1"}},
		{"b", "medium messages (encrypted, block)", sizesFig7b,
			[]encag.Alg{"c-ring", "c-rd", "hs1", "hs2"}},
		{"c", "large messages (encrypted, block)", sizesFig7c,
			[]encag.Alg{"o-ring", "c-ring", "c-rd", "hs1", "hs2"}},
	})
}

// Figure8: encrypted algorithms, cyclic mapping.
func Figure8(opts Options) ([]Table, error) {
	spec := encag.Spec{Procs: 128, Nodes: 8, Mapping: "cyclic"}
	if opts.Quick {
		spec = encag.Spec{Procs: 32, Nodes: 4, Mapping: "cyclic"}
	}
	return figure("fig8", spec, encag.Noleland(), opts, []panelDef{
		{"a", "small messages (encrypted, cyclic)", sizesFig8a,
			[]encag.Alg{"o-rd", "o-rd2", "c-rd", "hs1"}},
		{"b", "medium messages (encrypted, cyclic)", sizesFig8b,
			[]encag.Alg{"c-ring", "hs1", "hs2"}},
		{"c", "large messages (encrypted, cyclic)", sizesFig8c,
			[]encag.Alg{"o-rd2", "c-ring", "hs1", "hs2"}},
	})
}

// Sensitivity sweeps the encryption/decryption throughput of the
// Noleland profile and reports overheads over unencrypted MPI at a
// bandwidth-bound size, on the paper's p=128, N=8 configuration. The
// paper's Figure 1 motivates everything with one ratio — encryption
// half as fast as the network. The sweep shows how the conclusions
// scale with that ratio: Naive's overhead is proportional to it
// (l-times more decrypted bytes hurt l times more as crypto slows),
// while HS2 stays essentially flat — and below MPI — across the whole
// range, because its decrypted volume already sits at the (N-1)m lower
// bound.
func Sensitivity(opts Options) ([]Table, error) {
	spec := encag.Spec{Procs: 128, Nodes: 8}
	if opts.Quick {
		spec = encag.Spec{Procs: 32, Nodes: 4}
	}
	const m = 256 << 10
	base := encag.Noleland()
	t := Table{
		ID:      "sensitivity",
		Title:   fmt.Sprintf("Overhead vs crypto speed (p=%d N=%d, %s blocks)", spec.Procs, spec.Nodes, SizeName(m)),
		Headers: []string{"crypto-GBps", "net/crypto-ratio", "naive(%)", "hs2(%)", "c-ring(%)"},
		Notes: []string{
			"crypto-GBps sets both EncBW and DecBW; overheads are vs unencrypted MPI at the same profile",
		},
	}
	// The profile is the variable of the sweep, so each point of it is a
	// session of its own.
	s, err := openSim(spec, base)
	if err != nil {
		return nil, err
	}
	mpi, err := s.Simulate(bg, encag.AlgMPI, m)
	s.Close()
	if err != nil {
		return nil, err
	}
	mpiLat := mpi.Latency.Seconds()
	for _, gbps := range []float64{0.5, 1, 2, 3.5, 5.5, 8, 11, 22} {
		prof := base
		prof.EncBW = gbps * 1e9
		prof.DecBW = gbps * 1e9
		row := []string{
			fmt.Sprintf("%.1f", gbps),
			fmt.Sprintf("%.1f", base.CoreBW/1e9/gbps),
		}
		s, err := openSim(spec, prof)
		if err != nil {
			return nil, err
		}
		for _, alg := range []encag.Alg{encag.AlgNaive, encag.AlgHS2, encag.AlgCRing} {
			r, err := s.Simulate(bg, alg, m)
			if err != nil {
				s.Close()
				return nil, err
			}
			row = append(row, fmtPct(100*(r.Latency.Seconds()-mpiLat)/mpiLat))
		}
		s.Close()
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// Breakdown runs every paper algorithm at one small and one large size
// and reports where the critical (last-finishing) rank spent its time —
// the mechanistic explanation behind Tables III/IV: Naive's decryption
// wall, O-Ring's per-hop sealing, HS2's copy-dominated large-message
// profile.
func Breakdown(opts Options) ([]Table, error) {
	spec := encag.Spec{Procs: 64, Nodes: 8}
	if opts.Quick {
		spec = encag.Spec{Procs: 16, Nodes: 4}
	}
	s, err := openSim(spec, encag.Noleland())
	if err != nil {
		return nil, err
	}
	defer s.Close()
	var out []Table
	for _, m := range []int64{1 << 10, 256 << 10} {
		t := Table{
			ID:    fmt.Sprintf("breakdown-%s", SizeName(m)),
			Title: fmt.Sprintf("Critical-rank time by activity (p=%d N=%d, %s)", spec.Procs, spec.Nodes, SizeName(m)),
			Headers: []string{"algorithm", "total(us)", "send(us)", "recv-wait(us)",
				"encrypt(us)", "decrypt(us)", "copy(us)", "barrier(us)"},
			Notes: []string{"recv-wait includes time blocked waiting for data; send includes startup + transfer occupancy"},
		}
		for _, name := range encag.PaperAlgorithms() {
			col := &encag.TraceCollector{}
			res, err := s.Simulate(bg, name, m, encag.WithTracer(col))
			if err != nil {
				return nil, err
			}
			crit := col.Critical(spec.Procs)
			row := []string{string(name), fmtUS(res.Latency.Seconds())}
			for _, k := range []cluster.TraceKind{cluster.TraceSend, cluster.TraceRecv,
				cluster.TraceEncrypt, cluster.TraceDecrypt, cluster.TraceCopy, cluster.TraceBarrier} {
				row = append(row, fmtUS(crit.Total[k]))
			}
			t.Rows = append(t.Rows, row)
		}
		out = append(out, t)
	}
	return out, nil
}

// Ablations quantifies the design choices called out in DESIGN.md.
func Ablations(opts Options) ([]Table, error) {
	spec := encag.Spec{Procs: 64, Nodes: 8}
	prof := encag.Noleland()
	var out []Table

	// (1) NIC contention model: with an uncontended fabric, the
	// Concurrent family loses its bandwidth advantage over Naive's ring.
	uncontended := prof
	uncontended.NICTx, uncontended.NICRx = 1e15, 1e15
	uncontended.MemPool = 1e15
	t1 := Table{
		ID:      "ablation-nic",
		Title:   "NIC fair-share model vs uncontended fabric (p=64 N=8, 256KB)",
		Headers: []string{"algorithm", "latency-contended(us)", "latency-uncontended(us)"},
		Notes:   []string{"contention is what separates the concurrent/hierarchical schemes from naive at scale"},
	}
	const m1 = 256 << 10
	s, err := openSim(spec, prof)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	free, err := openSim(spec, uncontended)
	if err != nil {
		return nil, err
	}
	defer free.Close()
	for _, alg := range []encag.Alg{encag.AlgNaive, encag.AlgCRing, encag.AlgHS2} {
		a, err := s.Simulate(bg, alg, m1)
		if err != nil {
			return nil, err
		}
		b, err := free.Simulate(bg, alg, m1)
		if err != nil {
			return nil, err
		}
		t1.Rows = append(t1.Rows, []string{string(alg), fmtUS(a.Latency.Seconds()), fmtUS(b.Latency.Seconds())})
	}
	out = append(out, t1)

	// (2) O-RD vs O-RD2 crossover: merging ciphertexts wins for small
	// messages, forwarding wins for large.
	t2 := Table{
		ID:      "ablation-merge",
		Title:   "O-RD (forward ciphertexts) vs O-RD2 (merge) crossover (p=64 N=8)",
		Headers: []string{"size", "o-rd(us)", "o-rd2(us)", "winner"},
	}
	for _, m := range trimSizes(sizes("64B", "1KB", "8KB", "64KB", "512KB", "2MB"), opts) {
		a, err := s.Simulate(bg, "o-rd", m)
		if err != nil {
			return nil, err
		}
		b, err := s.Simulate(bg, "o-rd2", m)
		if err != nil {
			return nil, err
		}
		w := "o-rd"
		if b.Latency < a.Latency {
			w = "o-rd2"
		}
		t2.Rows = append(t2.Rows, []string{SizeName(m), fmtUS(a.Latency.Seconds()), fmtUS(b.Latency.Seconds()), w})
	}
	out = append(out, t2)

	// (3) Joint decryption: HS1 vs the leader-only variant.
	t3 := Table{
		ID:      "ablation-joint",
		Title:   "HS1 joint decryption vs leader-only decryption (p=64 N=8)",
		Headers: []string{"size", "hs1(us)", "hs1-solo(us)", "speedup"},
	}
	for _, m := range trimSizes(sizes("1KB", "32KB", "512KB"), opts) {
		a, err := s.Simulate(bg, "hs1", m)
		if err != nil {
			return nil, err
		}
		b, err := s.Simulate(bg, "hs1-solo", m)
		if err != nil {
			return nil, err
		}
		t3.Rows = append(t3.Rows, []string{SizeName(m), fmtUS(a.Latency.Seconds()), fmtUS(b.Latency.Seconds()),
			fmt.Sprintf("%.2fx", b.Latency.Seconds()/a.Latency.Seconds())})
	}
	out = append(out, t3)

	// (4) Rank-ordered ring under cyclic mapping.
	cyc, err := openSim(encag.Spec{Procs: 64, Nodes: 8, Mapping: "cyclic"}, prof)
	if err != nil {
		return nil, err
	}
	defer cyc.Close()
	t4 := Table{
		ID:      "ablation-ringorder",
		Title:   "Natural vs rank-ordered ring under cyclic mapping (p=64 N=8, unencrypted)",
		Headers: []string{"size", "plain-ring(us)", "plain-ring-ro(us)"},
	}
	for _, m := range trimSizes(sizes("4KB", "64KB", "512KB"), opts) {
		a, err := cyc.Simulate(bg, "plain-ring", m)
		if err != nil {
			return nil, err
		}
		b, err := cyc.Simulate(bg, "plain-ring-ro", m)
		if err != nil {
			return nil, err
		}
		t4.Rows = append(t4.Rows, []string{SizeName(m), fmtUS(a.Latency.Seconds()), fmtUS(b.Latency.Seconds())})
	}
	out = append(out, t4)
	return out, nil
}
