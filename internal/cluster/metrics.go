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

// Critical summarises a whole run by the paper's six metrics: each is the
// maximum over ranks (the per-metric critical path, matching how Table II
// reports, e.g., O-Ring's r_e from the exit process and r_d from the
// entry process).
type Critical struct {
	Rc int   // communication rounds
	Sc int64 // communication bytes
	Re int   // encryption rounds
	Se int64 // encrypted bytes
	Rd int   // decryption rounds
	Sd int64 // decrypted bytes
}

// CriticalPath folds per-rank metrics into the six paper metrics.
func CriticalPath(per []Metrics) Critical {
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
