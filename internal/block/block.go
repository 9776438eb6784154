// Package block defines the data model shared by the real and simulated
// execution engines: a Block is an m-byte contribution of one rank, a
// Chunk is either a run of plaintext blocks or a single GCM ciphertext
// covering some blocks, and a Message is an ordered list of chunks.
//
// The encrypted all-gather algorithms in internal/encrypted manipulate
// messages at this granularity: "forward this ciphertext unmodified",
// "merge these plaintext blocks into one ciphertext", "decrypt this chunk"
// are all chunk operations, so one implementation of each algorithm serves
// both the correctness engine (payloads are real bytes, chunks are really
// sealed) and the timing engine (payloads are nil, only sizes matter).
//
// Payloads and block lists are immutable by convention: nothing writes
// into one once built, so they are shared. SplitChunk and AssembleByOrigin
// hand out capacity-capped views of the block lists they split, which an
// append copies instead of overwriting.
//
// The deterministic test payload of a rank, Pattern, repeats every 256
// bytes. The real engines' synthetic payloads (PatternFill) are that one
// period replicated into a fresh buffer per operation, at memory-copy
// speed; FillPattern, which computes every byte, is the reference that
// tests and the simulator use, and CheckPattern validates against the
// same period.
package block

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"encag/internal/seal"
)

// Block is the logical unit of all-gather data: the contribution of one
// rank. Len is its plaintext length in bytes.
type Block struct {
	Origin int
	Len    int64
}

// Chunk is a contiguous piece of a message: either plaintext blocks
// (Enc=false) or exactly one ciphertext covering Blocks (Enc=true).
//
// In real mode, Payload holds the bytes: for a plaintext chunk the
// concatenation of the blocks' payloads, for an encrypted chunk the sealed
// blob (nonce || ciphertext || tag) whose AAD is the encoded header of
// Blocks. In sim mode Payload is nil and only the lengths matter.
type Chunk struct {
	Enc     bool
	Blocks  []Block
	Payload []byte

	// Tag labels which collective member contributed this chunk. It is
	// positional bookkeeping only (the moral equivalent of MPI's receive
	// buffer displacements) and occupies no wire bytes. Collectives that
	// move compound contributions (e.g. the leader all-gather inside the
	// HS algorithms) use it to regroup chunks per member.
	Tag int

	// Opened, when non-nil on an Enc chunk, holds the plaintext the
	// transport already authenticated and decrypted segment-by-segment
	// on arrival; Payload still holds the assembled blob. Receiver-
	// local, engine-internal state: Decrypt consumes it without a
	// second GCM pass.
	Opened []byte
}

// PlainLen returns the total plaintext bytes covered by the chunk.
func (c Chunk) PlainLen() int64 {
	var n int64
	for _, b := range c.Blocks {
		n += b.Len
	}
	return n
}

// WireLen returns the bytes this chunk occupies on the wire: plaintext
// length plus the GCM overhead if encrypted.
func (c Chunk) WireLen() int64 {
	n := c.PlainLen()
	if c.Enc {
		n += seal.Overhead
	}
	return n
}

// Clone returns a deep copy of the chunk (payload shared: payloads are
// immutable by convention).
func (c Chunk) Clone() Chunk {
	return Chunk{Enc: c.Enc, Blocks: append([]Block(nil), c.Blocks...), Payload: c.Payload, Tag: c.Tag,
		Opened: c.Opened}
}

// Message is an ordered list of chunks.
type Message struct {
	Chunks []Chunk
}

// WireLen returns the total on-the-wire size of the message.
func (m Message) WireLen() int64 {
	var n int64
	for _, c := range m.Chunks {
		n += c.WireLen()
	}
	return n
}

// PlainLen returns the total plaintext bytes covered by the message.
func (m Message) PlainLen() int64 {
	var n int64
	for _, c := range m.Chunks {
		n += c.PlainLen()
	}
	return n
}

// NumBlocks returns the number of logical blocks in the message.
func (m Message) NumBlocks() int {
	n := 0
	for _, c := range m.Chunks {
		n += len(c.Blocks)
	}
	return n
}

// NumCiphertexts returns how many encrypted chunks the message carries.
func (m Message) NumCiphertexts() int {
	n := 0
	for _, c := range m.Chunks {
		if c.Enc {
			n++
		}
	}
	return n
}

// HasCiphertext reports whether any chunk is encrypted.
func (m Message) HasCiphertext() bool { return m.NumCiphertexts() > 0 }

// Clone returns a deep copy (chunk payloads shared, immutable by
// convention).
func (m Message) Clone() Message {
	out := Message{Chunks: make([]Chunk, len(m.Chunks))}
	for i, c := range m.Chunks {
		out.Chunks[i] = c.Clone()
	}
	return out
}

// Append adds chunks to the message.
func (m *Message) Append(chunks ...Chunk) {
	m.Chunks = append(m.Chunks, chunks...)
}

// Concat concatenates messages into one, allocating its chunk list once.
func Concat(msgs ...Message) Message {
	n := 0
	for _, m := range msgs {
		n += len(m.Chunks)
	}
	out := Message{Chunks: make([]Chunk, 0, n)}
	for _, m := range msgs {
		out.Chunks = append(out.Chunks, m.Chunks...)
	}
	return out
}

// NewPlain builds a real-mode single-block plaintext message. A nil
// payload is normalized to an empty one: nil means "sim mode" elsewhere.
func NewPlain(origin int, payload []byte) Message {
	if payload == nil {
		payload = []byte{}
	}
	return Message{Chunks: []Chunk{{
		Blocks:  []Block{{Origin: origin, Len: int64(len(payload))}},
		Payload: payload,
	}}}
}

// NewSim builds a sim-mode single-block plaintext message of the given
// size with no payload.
func NewSim(origin int, size int64) Message {
	return Message{Chunks: []Chunk{{
		Blocks: []Block{{Origin: origin, Len: size}},
	}}}
}

// headerMagic guards the AAD codec.
const headerMagic = 0x45414731 // "EAG1"

// HeaderLen is the length of the encoded header of n blocks.
func HeaderLen(n int) int { return 8 + 12*n }

// AppendHeader appends EncodeHeader(blocks) to dst, so an encoder with a
// reusable buffer serializes a block list without allocating.
func AppendHeader(dst []byte, blocks []Block) []byte {
	dst = binary.BigEndian.AppendUint32(dst, headerMagic)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(blocks)))
	for _, b := range blocks {
		dst = binary.BigEndian.AppendUint32(dst, uint32(b.Origin))
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.Len))
	}
	return dst
}

// DecodeHeaderInto is DecodeHeader appending to dst, for a decoder that
// draws its block lists from storage of its own: HeaderBlocks sizes it.
func DecodeHeaderInto(dst []Block, buf []byte) ([]Block, error) {
	if _, err := headerCount(buf); err != nil {
		return nil, err
	}
	return appendBlocks(dst, buf), nil
}

// HeaderBlocks inverts HeaderLen: the blocks a header of hl bytes
// holds, 0 for one too short to hold any.
func HeaderBlocks(hl int) int { return max(0, (hl-8)/12) }

// headerCount validates an encoded header and returns its block count.
func headerCount(buf []byte) (int, error) {
	if len(buf) < 8 {
		return 0, fmt.Errorf("block: header too short: %d bytes", len(buf))
	}
	if binary.BigEndian.Uint32(buf[0:]) != headerMagic {
		return 0, fmt.Errorf("block: bad header magic")
	}
	n := int(binary.BigEndian.Uint32(buf[4:]))
	if len(buf) != HeaderLen(n) {
		return 0, fmt.Errorf("block: header length %d does not match count %d", len(buf), n)
	}
	return n, nil
}

// appendBlocks appends the blocks of a header headerCount accepted.
func appendBlocks(dst []Block, buf []byte) []Block {
	for off := 8; off < len(buf); off += 12 {
		dst = append(dst, Block{Origin: int(binary.BigEndian.Uint32(buf[off:])), Len: int64(binary.BigEndian.Uint64(buf[off+4:]))})
	}
	return dst
}

// Pattern returns the deterministic test payload byte at index i of the
// block contributed by origin.
func Pattern(origin int, i int64) byte {
	return byte(int64(origin)*131 + i*7 + 13)
}

// FillPattern builds the deterministic n-byte test payload for a rank,
// one computed byte at a time. It is the reference PatternFill is
// checked against.
func FillPattern(origin int, n int64) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = Pattern(origin, int64(i))
	}
	return buf
}

// patternPeriod is the period of Pattern in its index: 7·256 ≡ 0 (mod 256).
const patternPeriod = 256

// PatternFill returns the same fresh n-byte buffer as FillPattern(origin,
// n), with len == cap, at memory-copy speed: it computes one period and
// replicates it (bytes.Repeat) into a buffer that is never zeroed,
// because the copies overwrite all of it.
func PatternFill(origin int, n int64) []byte {
	var period [patternPeriod]byte
	for i := range period {
		period[i] = Pattern(origin, int64(i))
	}
	return bytes.Repeat(period[:], int((n+patternPeriod-1)/patternPeriod))[:n:n]
}

// CheckPattern reports whether pl is byte for byte FillPattern(origin,
// len(pl)), without building that reference: the first period is compared
// with Pattern, and every later byte with the one a period before it —
// one pass over pl itself, no allocation, independent of any other buffer.
func CheckPattern(origin int, pl []byte) bool {
	head := pl
	if len(head) > patternPeriod {
		head = head[:patternPeriod]
	}
	for i, b := range head {
		if b != Pattern(origin, int64(i)) {
			return false
		}
	}
	return bytes.Equal(pl[len(head):], pl[:len(pl)-len(head)])
}

// UniformSizes is the per-rank size list of an all-gather of p equal
// blocks of m bytes.
func UniformSizes(p int, m int64) []int64 {
	sizes := make([]int64, p)
	for i := range sizes {
		sizes[i] = m
	}
	return sizes
}

// NormalizeInto is NormalizeV's structural pass into caller-owned
// scratch, so a caller that validates many results allocates once: it
// sets payloads[origin] (nil in sim mode) and uses have as its seen-set,
// both len(sizes) long and cleared first. It checks no pattern.
func NormalizeInto(payloads [][]byte, have []bool, msg Message, sizes []int64) error {
	p := len(sizes)
	clear(payloads)
	clear(have)
	for ci, c := range msg.Chunks {
		if c.Enc {
			return fmt.Errorf("block: chunk %d still encrypted in final result", ci)
		}
		var off int64
		for _, b := range c.Blocks {
			if b.Origin < 0 || b.Origin >= p {
				return fmt.Errorf("block: origin %d out of range [0,%d)", b.Origin, p)
			}
			if have[b.Origin] {
				return fmt.Errorf("block: origin %d duplicated", b.Origin)
			}
			if b.Len != sizes[b.Origin] {
				return fmt.Errorf("block: origin %d has length %d, want %d", b.Origin, b.Len, sizes[b.Origin])
			}
			have[b.Origin] = true
			if c.Payload != nil {
				if int64(len(c.Payload)) < off+b.Len {
					return fmt.Errorf("block: chunk %d payload too short", ci)
				}
				payloads[b.Origin] = c.Payload[off : off+b.Len]
			}
			off += b.Len
		}
		if c.Payload != nil && off != int64(len(c.Payload)) {
			return fmt.Errorf("block: chunk %d payload length %d does not match blocks (%d)", ci, len(c.Payload), off)
		}
	}
	for origin, ok := range have {
		if !ok {
			return fmt.Errorf("block: origin %d missing from result", origin)
		}
	}
	return nil
}

// SplitChunk splits a plaintext chunk into single-block chunks, appended
// to dst so that a caller with a scratch list splits without allocating.
// In real mode each receives the corresponding slice of the payload, and
// each block list is a capacity-capped view of c's. It panics on
// encrypted chunks: a ciphertext is indivisible.
func SplitChunk(dst []Chunk, c Chunk) []Chunk {
	if c.Enc {
		panic("block: cannot split an encrypted chunk")
	}
	var off int64
	for i, b := range c.Blocks {
		nc := Chunk{Blocks: c.Blocks[i : i+1 : i+1], Tag: c.Tag}
		if c.Payload != nil {
			nc.Payload = c.Payload[off : off+b.Len]
		}
		off += b.Len
		dst = append(dst, nc)
	}
	return dst
}

// AssembleByOrigin flattens fully-plaintext messages into one message
// with a single-block chunk per origin, sorted by origin rank — the
// canonical final layout of an all-gather result — appended to dst, so
// that a caller with storage of its own assembles without allocating.
func AssembleByOrigin(dst []Chunk, msgs ...Message) Message {
	for _, m := range msgs {
		for _, c := range m.Chunks {
			dst = SplitChunk(dst, c)
		}
	}
	SortChunksByOrigin(dst)
	return Message{Chunks: dst}
}

// SortChunksByOrigin orders single-block chunks by origin rank, stably;
// chunks covering multiple blocks sort by their first origin. It is used
// to present final results in rank order.
func SortChunksByOrigin(chunks []Chunk) {
	slices.SortStableFunc(chunks, func(a, b Chunk) int { return firstOrigin(a) - firstOrigin(b) })
}

// firstOrigin is the origin of a chunk's first block, -1 for none.
func firstOrigin(c Chunk) int {
	if len(c.Blocks) == 0 {
		return -1
	}
	return c.Blocks[0].Origin
}
