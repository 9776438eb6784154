package cluster

import "fmt"

// Metrics accumulates the per-rank cost counters corresponding to the
// paper's six performance metrics (Section IV.A).
type Metrics struct {
	CommRounds int   // rounds of communication this rank participated in
	BytesSent  int64 // wire bytes sent
	BytesRecv  int64 // wire bytes received
	EncRounds  int   // logical encryptions (one per Encrypt call)
	EncBytes   int64 // plaintext bytes sealed
	DecRounds  int   // logical decryptions (one per Decrypt call)
	DecBytes   int64 // plaintext bytes opened

	// EncSegments / DecSegments count the GCM segments the segmented
	// crypto engine processed. One logical Encrypt is still one
	// encryption round (the paper's r_e), but above the segment size it
	// fans out into multiple GCM calls that run in parallel; these
	// counters expose that fan-out. In sim mode they stay zero.
	EncSegments int
	DecSegments int
	Copies      int   // explicit local copies
	CopyBytes   int64 // bytes copied locally

	InterBytesSent int64 // wire bytes sent across node boundaries
	IntraBytesSent int64 // wire bytes sent within the node

	// InterMsgs and IntraMsgs count the messages this rank sent across
	// node boundaries and within its node. PlainInterMsgs counts the
	// inter-node ones that carried a plaintext chunk — a breach of the
	// paper's security property, zero for every encrypted algorithm —
	// and Violations describes the first MaxViolations of them.
	InterMsgs      int
	IntraMsgs      int
	PlainInterMsgs int
	Violations     []string
}

// MaxViolations caps the violation texts kept per rank, and per run by
// MessageTotals.
const MaxViolations = 32

// MessageTotals folds the per-rank message counters of one run: the
// sums of InterMsgs, IntraMsgs and PlainInterMsgs, and the first
// MaxViolations violation texts in rank order. Every other field is
// zero.
func MessageTotals(per []Metrics) Metrics {
	var t Metrics
	for _, m := range per {
		t.InterMsgs += m.InterMsgs
		t.IntraMsgs += m.IntraMsgs
		t.PlainInterMsgs += m.PlainInterMsgs
		for _, v := range m.Violations {
			if len(t.Violations) < MaxViolations {
				t.Violations = append(t.Violations, v)
			}
		}
	}
	return t
}

// CommBytes returns the single-direction communication volume used for
// the paper's s_c metric: sends and receives overlap on full-duplex
// links, so the volume through a rank is the larger of the two.
func (m Metrics) CommBytes() int64 {
	if m.BytesSent > m.BytesRecv {
		return m.BytesSent
	}
	return m.BytesRecv
}

// Critical is the paper's six metrics (Section IV.A), the one type for
// them: a run's critical path, each metric the maximum over ranks
// (matching how Table II reports, e.g., O-Ring's r_e from the exit
// process and r_d from the entry process), and also the closed forms
// and lower bounds of package bounds.
type Critical struct {
	Rc int   `json:"rc"` // communication rounds
	Sc int64 `json:"sc"` // communication bytes
	Re int   `json:"re"` // encryption rounds
	Se int64 `json:"se"` // encrypted bytes
	Rd int   `json:"rd"` // decryption rounds
	Sd int64 `json:"sd"` // decrypted bytes
}

// MaxOverRanks folds per-rank metrics into the six paper metrics, each a maximum.
func MaxOverRanks(per []Metrics) Critical {
	var c Critical
	for _, m := range per {
		if m.CommRounds > c.Rc {
			c.Rc = m.CommRounds
		}
		if b := m.CommBytes(); b > c.Sc {
			c.Sc = b
		}
		if m.EncRounds > c.Re {
			c.Re = m.EncRounds
		}
		if m.EncBytes > c.Se {
			c.Se = m.EncBytes
		}
		if m.DecRounds > c.Rd {
			c.Rd = m.DecRounds
		}
		if m.DecBytes > c.Sd {
			c.Sd = m.DecBytes
		}
	}
	return c
}

func (c Critical) String() string {
	return fmt.Sprintf("rc=%d sc=%d re=%d se=%d rd=%d sd=%d", c.Rc, c.Sc, c.Re, c.Se, c.Rd, c.Sd)
}
