package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"encag/internal/cluster"
	"encag/internal/cost"
	"encag/internal/encrypted"
)

func runTraced(t *testing.T, alg string, spec cluster.Spec, m int64) (*Collector, *cluster.SimResult) {
	t.Helper()
	a, err := encrypted.Get(alg)
	if err != nil {
		t.Fatal(err)
	}
	col := &Collector{}
	res, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: a, MsgSize: m, Tracer: col})
	if err != nil {
		t.Fatal(err)
	}
	return col, res
}

func TestTraceCoversRun(t *testing.T) {
	spec := cluster.Spec{P: 16, N: 4, Mapping: cluster.BlockMapping}
	col, res := runTraced(t, "c-ring", spec, 4096)
	if len(col.Events) == 0 {
		t.Fatal("no events recorded")
	}
	for _, ev := range col.Events {
		if ev.End < ev.Start {
			t.Fatalf("event ends before it starts: %+v", ev)
		}
		if ev.End > res.Latency+1e-12 {
			t.Fatalf("event ends after the run: %+v vs latency %g", ev, res.Latency)
		}
		if ev.Rank < 0 || ev.Rank >= spec.P {
			t.Fatalf("bad rank: %+v", ev)
		}
	}
	// The critical rank's end time must equal the run latency.
	crit := col.Critical(spec.P)
	if diff := res.Latency - crit.End; diff < -1e-12 || diff > 1e-9 {
		t.Fatalf("critical end %g vs latency %g", crit.End, res.Latency)
	}
}

func TestTraceMatchesMetrics(t *testing.T) {
	spec := cluster.Spec{P: 8, N: 2, Mapping: cluster.BlockMapping}
	const m = 1024
	col, res := runTraced(t, "naive", spec, m)
	profiles := col.Profiles(spec.P)
	for r, pr := range profiles {
		met := res.PerRank[r]
		if pr.Bytes[cluster.TraceEncrypt] != met.EncBytes {
			t.Errorf("rank %d traced enc bytes %d != metrics %d", r, pr.Bytes[cluster.TraceEncrypt], met.EncBytes)
		}
		if pr.Bytes[cluster.TraceDecrypt] != met.DecBytes {
			t.Errorf("rank %d traced dec bytes %d != metrics %d", r, pr.Bytes[cluster.TraceDecrypt], met.DecBytes)
		}
		if pr.Bytes[cluster.TraceSend] != met.BytesSent {
			t.Errorf("rank %d traced sent bytes %d != metrics %d", r, pr.Bytes[cluster.TraceSend], met.BytesSent)
		}
	}
}

func TestNaiveDecryptDominatesTrace(t *testing.T) {
	// Naive's signature: decryption time far exceeds encryption time on
	// the critical rank.
	spec := cluster.Spec{P: 32, N: 4, Mapping: cluster.BlockMapping}
	col, _ := runTraced(t, "naive", spec, 64<<10)
	crit := col.Critical(spec.P)
	if crit.Total[cluster.TraceDecrypt] < 10*crit.Total[cluster.TraceEncrypt] {
		t.Errorf("naive decrypt %.3g not >> encrypt %.3g",
			crit.Total[cluster.TraceDecrypt], crit.Total[cluster.TraceEncrypt])
	}
	// HS2 at the same size decrypts far less.
	col2, _ := runTraced(t, "hs2", spec, 64<<10)
	crit2 := col2.Critical(spec.P)
	if crit2.Total[cluster.TraceDecrypt] >= crit.Total[cluster.TraceDecrypt] {
		t.Errorf("hs2 decrypt time %.3g should be below naive's %.3g",
			crit2.Total[cluster.TraceDecrypt], crit.Total[cluster.TraceDecrypt])
	}
}

func TestBreakdownAndGanttRender(t *testing.T) {
	spec := cluster.Spec{P: 8, N: 2, Mapping: cluster.BlockMapping}
	col, _ := runTraced(t, "hs1", spec, 2048)
	var buf bytes.Buffer
	if err := col.WriteBreakdown(&buf, spec.P); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"critical rank", "aggregate", "barrier"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := col.Gantt(&buf, spec.P, 60); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != spec.P+1 {
		t.Fatalf("gantt has %d lines, want %d", len(lines), spec.P+1)
	}
	if !strings.Contains(lines[1], "|") {
		t.Fatalf("gantt row malformed: %q", lines[1])
	}
}

func TestEmptyTrace(t *testing.T) {
	col := &Collector{}
	var buf bytes.Buffer
	if err := col.Gantt(&buf, 2, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Fatal("empty trace should say so")
	}
}

// Critical on an empty world (p=0) must return an empty profile, not
// panic — a caller summarising before any events exist hits this.
func TestCriticalEmptyWorld(t *testing.T) {
	col := &Collector{}
	pr := col.Critical(0)
	if pr.Sum() != 0 || pr.End != 0 {
		t.Fatalf("empty-world critical profile not empty: %+v", pr)
	}
	// Same for a populated collector asked about zero ranks.
	col.Record(cluster.TraceEvent{Rank: 0, Kind: cluster.TraceSend, Start: 0, End: 1})
	pr = col.Critical(0)
	if pr.Sum() != 0 {
		t.Fatalf("p=0 critical profile not empty: %+v", pr)
	}
}

// An event ending exactly at the horizon must land in the last bucket,
// not be dropped or indexed out of range.
func TestGanttEventEndingAtHorizon(t *testing.T) {
	col := &Collector{Events: []cluster.TraceEvent{
		{Rank: 0, Kind: cluster.TraceSend, Start: 0, End: 1},
		// This event defines the horizon and ends exactly on it.
		{Rank: 1, Kind: cluster.TraceDecrypt, Start: 9, End: 10},
	}}
	var buf bytes.Buffer
	if err := col.Gantt(&buf, 2, 10); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	row1 := lines[2] // header, rank 0, rank 1
	bar := row1[strings.Index(row1, "|")+1 : strings.LastIndex(row1, "|")]
	if bar[len(bar)-1] != 'D' {
		t.Fatalf("last bucket should show the decrypt ending at the horizon: %q", bar)
	}
	// A zero-duration event exactly at the horizon must not panic either.
	col.Record(cluster.TraceEvent{Rank: 0, Kind: cluster.TraceCopy, Start: 10, End: 10})
	buf.Reset()
	if err := col.Gantt(&buf, 2, 10); err != nil {
		t.Fatal(err)
	}
}

// Record must be safe under concurrent use: the real and TCP engines
// call it from p rank goroutines. Run with -race.
func TestConcurrentRecord(t *testing.T) {
	col := &Collector{}
	const ranks, per = 8, 200
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				col.Record(cluster.TraceEvent{
					Rank: r, Kind: cluster.TraceKind(i % 6),
					Start: float64(i), End: float64(i) + 0.5, Bytes: int64(i),
				})
			}
		}()
	}
	// Concurrent reader: analysis methods must be safe against in-flight
	// Record calls.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			col.Profiles(ranks)
			col.Aggregate()
		}
	}()
	wg.Wait()
	if got := len(col.SortedByStart()); got != ranks*per {
		t.Fatalf("recorded %d events, want %d", got, ranks*per)
	}
}

func TestSortedByStart(t *testing.T) {
	col := &Collector{Events: []cluster.TraceEvent{
		{Rank: 1, Start: 5, End: 6},
		{Rank: 0, Start: 1, End: 2},
		{Rank: 2, Start: 1, End: 3},
	}}
	evs := col.SortedByStart()
	if evs[0].Rank != 0 || evs[1].Rank != 2 || evs[2].Rank != 1 {
		t.Fatalf("sorted order wrong: %+v", evs)
	}
}

// Under cyclic mapping HS1 performs p re-order copies; the trace must
// show the copy count and the barrier events.
func TestTraceCyclicCopies(t *testing.T) {
	spec := cluster.Spec{P: 8, N: 4, Mapping: cluster.CyclicMapping}
	col, _ := runTraced(t, "hs1", spec, 1024)
	profiles := col.Profiles(spec.P)
	for r, pr := range profiles {
		copies := 0
		for _, ev := range col.Events {
			if ev.Rank == r && ev.Kind == cluster.TraceCopy {
				copies++
			}
		}
		// 1 staging copy + p re-order copies.
		if copies != 1+spec.P {
			t.Fatalf("rank %d has %d copy events, want %d", r, copies, 1+spec.P)
		}
		if pr.Total[cluster.TraceBarrier] <= 0 {
			t.Fatalf("rank %d shows no barrier time", r)
		}
	}
}
