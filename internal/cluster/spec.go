// Package cluster implements the MPI-like runtime the all-gather
// algorithms run on: a World of p ranks spread over N nodes under a
// block, cyclic or custom process mapping, with point-to-point messaging,
// per-node shared memory, node barriers, AES-GCM encryption hooks and
// per-rank cost metrics.
//
// The same algorithm code executes on a Session in three ways:
//
//   - EngineChan and EngineTCP share one per-operation runtime (opRuntime:
//     every rank a goroutine, real AES-GCM over real payload bytes,
//     receive ordering, failure and abort) over one link. Every chan
//     pair, and every same-node TCP pair, delivers in memory — chan is
//     used for correctness, property and security tests; a TCP
//     session's inter-node pairs run over real loopback sockets through
//     the wire codec, each with a byte-level sniffer — used to
//     demonstrate the security property at the level an actual network
//     eavesdropper sees;
//   - the sim engine (Session.Sim) runs ranks as deterministic discrete-event
//     processes over the flow-level network model in internal/netsim —
//     used to regenerate the paper's tables and figures at full scale.
package cluster

import (
	"fmt"
	"slices"
	"time"
)

// MappingKind selects how ranks are placed on nodes.
type MappingKind int

const (
	// BlockMapping places rank i on node i/l (consecutive ranks share a
	// node). This is MPI's "block" order.
	BlockMapping MappingKind = iota
	// CyclicMapping places rank i on node i mod N.
	CyclicMapping
	// CustomMapping uses an explicit rank->node table.
	CustomMapping
)

func (k MappingKind) String() string {
	switch k {
	case BlockMapping:
		return "block"
	case CyclicMapping:
		return "cyclic"
	case CustomMapping:
		return "custom"
	}
	return fmt.Sprintf("MappingKind(%d)", int(k))
}

// Spec describes a job: p ranks over N nodes under a mapping. The paper
// (and our algorithms) assume a balanced placement: every node hosts
// exactly l = p/N ranks.
type Spec struct {
	P       int
	N       int
	Mapping MappingKind
	Custom  []int // node of each rank, used when Mapping == CustomMapping

	// SegmentSize is the seal segmentation split size in bytes for the
	// real and TCP engines; 0 selects seal.DefaultSegmentSize (64 KiB).
	// Payloads at or above it are sealed as independent segments
	// processed concurrently.
	SegmentSize int64

	// RecvTimeout bounds every single receive wait in the real and TCP
	// engines: a rank waiting longer than this for a message (peer died,
	// frame lost to an injected fault) fails with a structured recv
	// error instead of deadlocking until the run-level timeout. 0
	// selects DefaultRecvTimeout. Ignored by the sim engine, whose
	// virtual time already surfaces deadlocks deterministically.
	RecvTimeout time.Duration
}

// Validate checks that the spec is well-formed and balanced.
func (s Spec) Validate() error {
	if s.P <= 0 {
		return fmt.Errorf("cluster: P must be positive, got %d", s.P)
	}
	if s.N <= 0 {
		return fmt.Errorf("cluster: N must be positive, got %d", s.N)
	}
	if s.SegmentSize < 0 {
		return fmt.Errorf("cluster: SegmentSize must be non-negative, got %d", s.SegmentSize)
	}
	if s.RecvTimeout < 0 {
		return fmt.Errorf("cluster: RecvTimeout must be non-negative, got %v", s.RecvTimeout)
	}
	if s.P%s.N != 0 {
		return fmt.Errorf("cluster: P=%d is not a multiple of N=%d (the paper assumes balanced placement)", s.P, s.N)
	}
	if s.Mapping == CustomMapping {
		if len(s.Custom) != s.P {
			return fmt.Errorf("cluster: custom mapping has %d entries, want %d", len(s.Custom), s.P)
		}
		counts := make([]int, s.N)
		for r, node := range s.Custom {
			if node < 0 || node >= s.N {
				return fmt.Errorf("cluster: custom mapping rank %d -> node %d out of range", r, node)
			}
			counts[node]++
		}
		l := s.P / s.N
		for node, c := range counts {
			if c != l {
				return fmt.Errorf("cluster: custom mapping is unbalanced: node %d has %d ranks, want %d", node, c, l)
			}
		}
	}
	return nil
}

// Ell returns l = p/N, the ranks per node.
func (s Spec) Ell() int { return s.P / s.N }

// NodeOf returns the node hosting a rank.
func (s Spec) NodeOf(rank int) int {
	switch s.Mapping {
	case BlockMapping:
		return rank / s.Ell()
	case CyclicMapping:
		return rank % s.N
	default:
		return s.Custom[rank]
	}
}

// SameNode reports whether two ranks share a node.
func (s Spec) SameNode(a, b int) bool { return s.NodeOf(a) == s.NodeOf(b) }

// RanksOnNode returns the ranks hosted by a node, in increasing order.
func (s Spec) RanksOnNode(node int) []int {
	var out []int
	switch s.Mapping {
	case BlockMapping:
		l := s.Ell()
		for r := node * l; r < (node+1)*l; r++ {
			out = append(out, r)
		}
	case CyclicMapping:
		for r := node; r < s.P; r += s.N {
			out = append(out, r)
		}
	default:
		for r, n := range s.Custom {
			if n == node {
				out = append(out, r)
			}
		}
	}
	return out
}

// LocalIndex returns the position of rank among the ranks of its node
// (0..l-1, in increasing rank order), without building the node's list.
func (s Spec) LocalIndex(rank int) int {
	switch s.Mapping {
	case BlockMapping:
		return rank % s.Ell()
	case CyclicMapping:
		return rank / s.N
	}
	idx := 0
	for _, n := range s.Custom[:rank] {
		if n == s.Custom[rank] {
			idx++
		}
	}
	return idx
}

// Leader returns the leader rank of a node: its lowest rank.
func (s Spec) Leader(node int) int {
	switch s.Mapping {
	case BlockMapping:
		return node * s.Ell()
	case CyclicMapping:
		return node
	}
	return slices.Index(s.Custom, node)
}

// Leaders returns the leader rank of every node.
func (s Spec) Leaders() []int {
	out := make([]int, s.N)
	for n := range out {
		out[n] = s.Leader(n)
	}
	return out
}

// RankOrdered returns all p ranks sorted by (node, rank): the
// "rank-ordered" traversal of Kandalla et al. used by the rank-ordered
// ring so that intra-node neighbours are adjacent regardless of mapping.
func (s Spec) RankOrdered() []int {
	out := make([]int, 0, s.P)
	for node := 0; node < s.N; node++ {
		out = append(out, s.RanksOnNode(node)...)
	}
	return out
}

func (s Spec) String() string {
	return fmt.Sprintf("p=%d N=%d l=%d %s", s.P, s.N, s.Ell(), s.Mapping)
}
