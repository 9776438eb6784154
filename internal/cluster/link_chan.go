package cluster

import (
	"fmt"
	"sync"

	"encag/internal/block"
)

// SecurityAudit records what the transport observed, so tests can prove
// the paper's security property: plaintext never crosses a node boundary.
type SecurityAudit struct {
	mu                 sync.Mutex
	InterMsgs          int
	IntraMsgs          int
	PlaintextInterMsgs int
	Violations         []string
}

func (a *SecurityAudit) record(spec Spec, src, dst int, msg block.Message) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if spec.SameNode(src, dst) {
		a.IntraMsgs++
		return
	}
	a.InterMsgs++
	for _, c := range msg.Chunks {
		if !c.Enc && c.PlainLen() > 0 {
			a.PlaintextInterMsgs++
			if len(a.Violations) < 32 {
				a.Violations = append(a.Violations,
					fmt.Sprintf("plaintext chunk (%d bytes) sent %d -> %d across nodes", c.PlainLen(), src, dst))
			}
			break
		}
	}
}

// Clean reports whether no plaintext crossed node boundaries.
func (a *SecurityAudit) Clean() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.PlaintextInterMsgs == 0
}

// Adversary intercepts inter-node messages on the chan link, modelling
// the paper's threat: a network attacker who can observe and modify
// traffic between nodes. It returns the (possibly tampered) message to
// deliver. Intra-node messages never pass through it — they never leave
// the trusted node.
type Adversary func(src, dst int, msg block.Message) block.Message

// chanLink is the in-memory link: it has no connections, so the demux
// is the delivery path itself. Every job carries its operation, the
// link checks the operation is still registered at delivery time, and
// messages of retired operations are dropped — the same straggler
// semantics as the TCP demux. Every message travels whole: the chan
// link does not stream segments.
type chanLink struct {
	lm        *liveMetrics
	reg       *opRegistry
	adversary Adversary // nil: nobody on the inter-node path
}

// live reports whether o is still registered, counting a straggler
// when it is not: messages of a retired operation are dropped, never
// misrouted.
func (l *chanLink) live(o *opRuntime) bool {
	if _, ok := l.reg.get(o.id); !ok {
		l.lm.stragglers.Inc()
		return false
	}
	return true
}

// send applies the owning operation's fault verdict to the message (a
// dropped or partially written frame is simply lost in transit), then
// its read stall, and delivers into the operation's unbounded inbox.
// Delivery runs on src's send queue, so a read stall also holds src's
// later messages, to every destination.
func (l *chanLink) send(src int, job sendJob) {
	o := job.op
	msg := job.msg
	if l.adversary != nil && !o.spec.SameNode(src, job.dst) {
		msg = l.adversary(src, job.dst, msg)
	}
	v := o.inj.SendFrame(src, job.dst)
	o.inj.Sleep(v.Stall)
	if v.Drop || v.PartialKeep >= 0 {
		// The channel transport has no connection to re-establish: the
		// message is lost in transit and the receiver's bounded recv
		// deadline turns the loss into a structured error.
		return
	}
	if v.CorruptAt >= 0 {
		msg = corruptMessage(msg, v.CorruptAt)
	}
	o.inj.Sleep(o.inj.ReadDelay(src, job.dst))
	if !l.live(o) {
		return
	}
	var start float64
	if o.wt.active() {
		start = o.wt.now()
	}
	// Send and delivery coincide on the channel transport, so one
	// point charges both directions of the transport counters.
	l.lm.countSent(src, job.dst, msg.WireLen())
	l.lm.countRecv(src, job.dst, msg.WireLen())
	o.deliver(src, job.dst, msg)
	if o.wt.active() {
		o.wt.emit(src, TraceSend, start, msg.WireLen(), job.dst)
	}
}

// The chan link has no wire to break, desync or capture, and no
// goroutines of its own.
func (l *chanLink) brokenErr() error      { return nil }
func (l *chanLink) desynced() error       { return nil }
func (l *chanLink) sniffer() *WireSniffer { return nil }
func (l *chanLink) close()                {}

// corruptMessage returns msg with one payload byte flipped at the given
// offset into the concatenation of its chunk payloads (modulo total
// payload length). The affected chunk is cloned so the sender's own
// buffers stay intact.
func corruptMessage(msg block.Message, offset int) block.Message {
	var total int
	for _, c := range msg.Chunks {
		total += len(c.Payload)
	}
	if total == 0 {
		return msg
	}
	offset %= total
	out := block.Message{Chunks: append([]block.Chunk(nil), msg.Chunks...)}
	for i := range out.Chunks {
		n := len(out.Chunks[i].Payload)
		if offset >= n {
			offset -= n
			continue
		}
		tampered := append([]byte(nil), out.Chunks[i].Payload...)
		tampered[offset] ^= 0x40
		out.Chunks[i].Payload = tampered
		break
	}
	return out
}

// ValidateGather checks that every rank's result is a complete, fully
// decrypted all-gather of p blocks of msgSize bytes: no chunk still
// encrypted, every origin present exactly once with the right length.
// With checkPayload (real results only) every gathered byte is also
// compared with the deterministic test pattern of its origin — one
// pass over the gathered bytes (block.CheckPattern), no allocation — so
// corruption that no AEAD covers (intra-node plaintext, an aliased
// buffer) is caught on either link.
func ValidateGather(spec Spec, msgSize int64, results []block.Message, checkPayload bool) error {
	return ValidateGatherV(spec, block.UniformSizes(spec.P, msgSize), results, checkPayload)
}

// ValidateGatherV is ValidateGather for variable block sizes.
func ValidateGatherV(spec Spec, sizes []int64, results []block.Message, checkPayload bool) error {
	_, err := GatherViews(spec, sizes, results, checkPayload)
	return err
}

// GatherViews validates like ValidateGatherV and returns what it walked:
// views[rank][origin] is origin's block as rank gathered it, a slice of
// that rank's result message (nil in sim mode), not a copy.
func GatherViews(spec Spec, sizes []int64, results []block.Message, checkPayload bool) ([][][]byte, error) {
	if len(results) != spec.P {
		return nil, fmt.Errorf("cluster: %d results for %d ranks", len(results), spec.P)
	}
	views := make([][][]byte, len(results))
	for r, msg := range results {
		v, err := block.NormalizeV(msg, sizes, checkPayload)
		if err != nil {
			return nil, fmt.Errorf("cluster: rank %d result invalid: %w", r, err)
		}
		views[r] = v
	}
	return views, nil
}
