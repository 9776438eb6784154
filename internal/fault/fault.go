// Package fault is a deterministic, seedable fault-injection layer for
// the transport engines. A Plan is a set of per-rank-pair rules ("drop
// the 2->5 connection after 3 frames", "corrupt byte 17 of frame 1",
// "stall 5ms before every send") and an Injector applies it at runtime.
// Every pair of the transport's link takes one Verdict per send attempt
// from Injector.SendFrame where it writes or delivers the frame, and
// one Injector.ReadDelay where it delivers it. The verdict is applied
// per pair kind:
//
//   - a socket pair (inter-node, TCP) applies it byte-exactly to the
//     frame's wire bytes: a stall waits, a drop closes the connection,
//     and corruption and partial writes go through Verdict.Writer;
//   - a memory pair (same-node on TCP, every pair on chan) applies it at
//     message granularity: a stall waits, a dropped or partially
//     written frame is lost in transit, a corrupted one has a payload
//     byte flipped.
//
// On both kinds a dropped or partially written frame is resent, a
// bounded number of times, and a stall ends early when the operation
// it was planned for unwinds or the transport closes.
//
// Corrupt is also how tests play the paper's network adversary: a
// Corrupt rule on an inter-node pair flips a ciphertext byte or a
// block-header field of a frame in flight, and the operation must fail
// closed on GCM authentication rather than deliver wrong bytes.
//
// Plans are pure data and rule application is keyed only on the ordered
// rank pair and that pair's frame counter, so a given plan injects the
// same faults on every run regardless of goroutine interleaving.
package fault

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Kind is the class of fault a Rule injects.
type Kind int

const (
	// Drop loses the target frame: a socket pair closes its connection
	// instead of sending it, a memory pair does not deliver it. The
	// sender resends it, and fails its operation once resends run out.
	Drop Kind = iota
	// Corrupt flips one byte of the target frame on the wire.
	Corrupt
	// Stall waits for Delay before sending the target frame.
	Stall
	// StallRead delays each frame the receive side of the pair delivers
	// by Delay, on both pair kinds (frame targeting does not apply). A
	// memory pair delivers on the sender's queue, so the stall also
	// holds the sending rank's later frames.
	StallRead
	// PartialWrite delivers only the first Keep bytes of the target
	// frame, then fails the write.
	PartialWrite
)

func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Corrupt:
		return "corrupt"
	case Stall:
		return "stall"
	case StallRead:
		return "stall-read"
	case PartialWrite:
		return "partial-write"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Rule injects one fault class on one directed rank pair.
type Rule struct {
	Src, Dst int // ordered pair; -1 matches any rank
	// Frame is the 0-based frame index (per pair, counting every send
	// attempt) the rule triggers on; -1 matches every frame.
	Frame int
	Kind  Kind
	// Offset is the byte offset within the frame to corrupt (Corrupt).
	Offset int
	// Delay is the injected latency (Stall, StallRead).
	Delay time.Duration
	// Keep is how many bytes of the frame are delivered before the write
	// fails (PartialWrite).
	Keep int
	// Times caps how often the rule fires: 0 means once, n > 0 means n
	// times, negative means unlimited.
	Times int
}

func (r Rule) matches(src, dst, frame int) bool {
	if r.Src >= 0 && r.Src != src {
		return false
	}
	if r.Dst >= 0 && r.Dst != dst {
		return false
	}
	if r.Kind == StallRead {
		return true // read delays are not frame-targeted
	}
	return r.Frame < 0 || r.Frame == frame
}

func (r Rule) String() string {
	pair := fmt.Sprintf("%d->%d", r.Src, r.Dst)
	switch r.Kind {
	case Drop:
		return fmt.Sprintf("drop %s at frame %d", pair, r.Frame)
	case Corrupt:
		return fmt.Sprintf("corrupt %s frame %d byte %d", pair, r.Frame, r.Offset)
	case Stall:
		return fmt.Sprintf("stall %s frame %d for %v", pair, r.Frame, r.Delay)
	case StallRead:
		return fmt.Sprintf("stall reads %s by %v", pair, r.Delay)
	case PartialWrite:
		return fmt.Sprintf("partial-write %s frame %d keep %d", pair, r.Frame, r.Keep)
	}
	return fmt.Sprintf("%v %s", r.Kind, pair)
}

// Plan is a reproducible fault schedule: apply the same plan to the same
// workload and the same faults hit the same frames.
type Plan struct {
	// Seed records the generator seed for Random/Transient plans (purely
	// informational for hand-built plans).
	Seed  int64
	Rules []Rule
}

func (p *Plan) String() string {
	if p == nil || len(p.Rules) == 0 {
		return "fault.Plan{}"
	}
	parts := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		parts[i] = r.String()
	}
	return fmt.Sprintf("fault.Plan{seed=%d: %s}", p.Seed, strings.Join(parts, "; "))
}

// Random generates a deterministic plan of n rules for a world of p
// ranks, drawing from every fault kind (including corruption, which a
// fail-closed transport is expected to turn into a structured error
// rather than recover from).
func Random(seed int64, p, n int) *Plan { return generate(seed, p, n, true) }

// Transient generates a deterministic plan of n rules limited to
// recoverable faults (drops, stalls, read delays, partial writes): a
// transport that resends must complete correctly under any Transient
// plan.
func Transient(seed int64, p, n int) *Plan { return generate(seed, p, n, false) }

func generate(seed int64, p, n int, corruption bool) *Plan {
	rng := rand.New(rand.NewSource(seed))
	plan := &Plan{Seed: seed}
	for i := 0; i < n; i++ {
		plan.Rules = append(plan.Rules, randomRule(rng, p, corruption))
	}
	return plan
}

func randomRule(rng *rand.Rand, p int, corruption bool) Rule {
	src := rng.Intn(p)
	dst := rng.Intn(p)
	for dst == src {
		dst = rng.Intn(p)
	}
	r := Rule{Src: src, Dst: dst, Frame: rng.Intn(4)}
	kinds := 4
	if corruption {
		kinds = 5
	}
	switch rng.Intn(kinds) {
	case 0:
		r.Kind = Drop
	case 1:
		r.Kind = Stall
		r.Delay = time.Duration(1+rng.Intn(5)) * time.Millisecond
	case 2:
		r.Kind = StallRead
		r.Delay = time.Duration(1+rng.Intn(3)) * time.Millisecond
		r.Times = 1 + rng.Intn(4)
	case 3:
		r.Kind = PartialWrite
		r.Keep = rng.Intn(40)
	case 4:
		r.Kind = Corrupt
		r.Offset = rng.Intn(96)
	}
	return r
}

// Error marks a failure produced by the injector itself, so transports
// and tests can distinguish injected faults from organic ones.
type Error struct {
	Kind     Kind
	Src, Dst int
	Frame    int
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %v on %d->%d at frame %d", e.Kind, e.Src, e.Dst, e.Frame)
}

// Verdict is the injector's decision for one outgoing frame of the
// Src->Dst pair.
type Verdict struct {
	Src, Dst    int
	Frame       int // the pair's 0-based frame index
	Drop        bool
	CorruptAt   int // byte offset to flip; -1 = none
	PartialKeep int // bytes delivered before the write fails; -1 = none
	Stall       time.Duration
}

// Err is the injected fault of kind k on the verdict's frame.
func (v Verdict) Err(k Kind) error {
	return &Error{Kind: k, Src: v.Src, Dst: v.Dst, Frame: v.Frame}
}

// Writer returns w unchanged unless the verdict arms corruption or a
// partial write. Then it returns a writer for this one frame that
// applies them byte-exactly to the frame's bytes, however many Write
// calls carry them: the byte at CorruptAt is flipped in a copy (the
// caller's buffer stays intact), and the write stops after PartialKeep
// bytes with an injected *Error.
func (v Verdict) Writer(w io.Writer) io.Writer {
	if v.CorruptAt < 0 && v.PartialKeep < 0 {
		return w
	}
	return &frameWriter{w: w, v: v}
}

// frameWriter is Verdict.Writer's armed case; off counts the frame's
// bytes written so far.
type frameWriter struct {
	w   io.Writer
	v   Verdict
	off int
}

func (f *frameWriter) Write(p []byte) (int, error) {
	if keep := f.v.PartialKeep - f.off; f.v.PartialKeep >= 0 && keep < len(p) {
		n := 0
		if keep > 0 {
			n, _ = f.w.Write(p[:keep])
		}
		f.off += n
		return n, f.v.Err(PartialWrite)
	}
	if at := f.v.CorruptAt - f.off; at >= 0 && at < len(p) {
		p = append([]byte(nil), p...)
		p[at] ^= 0x40
	}
	n, err := f.w.Write(p)
	f.off += n
	return n, err
}

type pair struct{ src, dst int }

// Injector applies a Plan at runtime. All methods are safe for
// concurrent use and safe on a nil receiver (no faults).
type Injector struct {
	mu      sync.Mutex
	rules   []Rule
	fired   []int
	frames  map[pair]int
	observe func(Kind) // optional per-applied-fault hook
}

// SetObserver registers fn to be called once for every fault the
// injector actually applies (one call per rule firing), with the
// fault's kind — the hook live-metrics instrumentation hangs off. fn
// must be fast and safe for concurrent use; it runs outside the
// injector's lock. Safe on a nil receiver (no-op).
func (in *Injector) SetObserver(fn func(Kind)) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.observe = fn
	in.mu.Unlock()
}

// NewInjector builds an injector for a plan; a nil or empty plan yields
// a nil injector, which injects nothing.
func NewInjector(plan *Plan) *Injector {
	if plan == nil || len(plan.Rules) == 0 {
		return nil
	}
	return &Injector{
		rules:  append([]Rule(nil), plan.Rules...),
		fired:  make([]int, len(plan.Rules)),
		frames: make(map[pair]int),
	}
}

// fire consumes one firing of rule i, reporting whether it may apply.
// Callers hold in.mu.
func (in *Injector) fire(i int) bool {
	limit := in.rules[i].Times
	if limit == 0 {
		limit = 1
	}
	if limit > 0 && in.fired[i] >= limit {
		return false
	}
	in.fired[i]++
	return true
}

// SendFrame advances the pair's frame counter and returns the verdict
// for that frame, naming the pair and the frame index. Every send attempt (including a retry of the same
// logical message) counts as a frame, keeping rule application
// deterministic under reconnects.
func (in *Injector) SendFrame(src, dst int) Verdict {
	v := Verdict{Src: src, Dst: dst, CorruptAt: -1, PartialKeep: -1}
	if in == nil {
		return v
	}
	var applied []Kind
	in.mu.Lock()
	v.Frame = in.frames[pair{src, dst}]
	in.frames[pair{src, dst}] = v.Frame + 1
	for i, r := range in.rules {
		if r.Kind == StallRead || !r.matches(src, dst, v.Frame) || !in.fire(i) {
			continue
		}
		switch r.Kind {
		case Drop:
			v.Drop = true
		case Corrupt:
			v.CorruptAt = r.Offset
		case Stall:
			v.Stall += r.Delay
		case PartialWrite:
			v.PartialKeep = r.Keep
		}
		applied = append(applied, r.Kind)
	}
	obs := in.observe
	in.mu.Unlock()
	if obs != nil {
		for _, k := range applied {
			obs(k)
		}
	}
	return v
}

// ReadDelay returns the injected latency for one frame delivered on
// the receive side of the pair.
func (in *Injector) ReadDelay(src, dst int) time.Duration {
	if in == nil {
		return 0
	}
	var applied int
	in.mu.Lock()
	var d time.Duration
	for i, r := range in.rules {
		if r.Kind != StallRead || !r.matches(src, dst, 0) || !in.fire(i) {
			continue
		}
		d += r.Delay
		applied++
	}
	obs := in.observe
	in.mu.Unlock()
	if obs != nil {
		for ; applied > 0; applied-- {
			obs(StallRead)
		}
	}
	return d
}
