// Package seal provides the AES-GCM encryption used by the encrypted
// all-gather algorithms, mirroring the paper's use of AES-GCM-128 from
// BoringSSL: a nonce-based AEAD where each sealed blob is
//
//	nonce (12 bytes) || ciphertext || tag (16 bytes)
//
// so a ciphertext is exactly Overhead = 28 bytes longer than its plaintext,
// as the paper notes. Where the paper picks nonces at random, a Sealer
// builds them deterministically (NIST SP 800-38D §8.2.1): a random 32-bit
// fixed field drawn when the Sealer is created, followed by a 64-bit
// invocation counter. One Sealer per key makes every nonce unique by
// construction.
//
// For large payloads the package also offers a segmented framing
// (SealSegmented/OpenSegmented) that splits a plaintext into
// independently sealed segments processed concurrently on a bounded
// worker pool — the multi-threaded pipelined encryption CryptMPI uses to
// lift the single-core GCM throughput ceiling.
package seal

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

const (
	// NonceSize is the GCM nonce length in bytes.
	NonceSize = 12
	// TagSize is the GCM authentication tag length in bytes.
	TagSize = 16
	// Overhead is the total ciphertext expansion: nonce plus tag.
	Overhead = NonceSize + TagSize
	// KeySize is the AES-128 key length.
	KeySize = 16
)

// ErrAuth is returned when a sealed blob fails authentication.
var ErrAuth = errors.New("seal: message authentication failed")

// Sealer encrypts and decrypts with a single shared AES-GCM-128 key, the
// deployment model of the paper (one key per MPI job, distributed out of
// band). It is safe for concurrent use. Configuration (SetSegmentSize,
// SetPool) must happen before concurrent use. Nonces
// are unique among one Sealer's seals: every user of a key must share
// that key's one Sealer.
type Sealer struct {
	aead  cipher.AEAD
	fixed [4]byte // random per-key field: the first 4 bytes of every nonce

	// sealed counts GCM seal invocations; its value after each increment
	// is the invocation field of that seal's nonce.
	sealed atomic.Uint64
	opened atomic.Int64 // number of successful GCM open operations

	segSize int   // segmented-seal split size; 0 means DefaultSegmentSize
	pool    *Pool // worker pool for segmented crypto; nil means the shared pool
}

// NewSealer creates a Sealer from a 16-byte AES-128 key and draws its
// random fixed nonce field.
func NewSealer(key []byte) (*Sealer, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("seal: key must be %d bytes, got %d", KeySize, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	s := &Sealer{aead: aead}
	if _, err := rand.Read(s.fixed[:]); err != nil {
		return nil, err
	}
	return s, nil
}

// NewRandomSealer creates a Sealer with a fresh random key.
func NewRandomSealer() (*Sealer, error) {
	key := make([]byte, KeySize)
	if _, err := rand.Read(key); err != nil {
		return nil, err
	}
	return NewSealer(key)
}

// Counts returns the number of GCM seal operations and successful GCM
// open operations (a segmented blob counts one per segment).
func (s *Sealer) Counts() (sealed, opened int64) {
	return int64(s.sealed.Load()), s.opened.Load()
}

// Invocations returns how many times the key has sealed: the count SP
// 800-38D §8.3 bounds per key.
func (s *Sealer) Invocations() uint64 { return s.sealed.Load() }

// sealInto seals plaintext into out, which must be exactly
// SealedLen(len(plaintext)) bytes, under the nonce fixed || invocation
// (big-endian). plaintext may alias out[NonceSize:NonceSize+len(plaintext)]
// exactly, enabling in-place encryption of a pre-gathered buffer (one
// buffer, one copy).
func (s *Sealer) sealInto(out, plaintext, aad []byte) {
	nonce := out[:NonceSize]
	copy(nonce, s.fixed[:])
	binary.BigEndian.PutUint64(nonce[len(s.fixed):], s.sealed.Add(1))
	s.aead.Seal(out[NonceSize:NonceSize], nonce, plaintext, aad)
}

// openInto authenticates and decrypts blob (nonce||ct||tag) into dst,
// which must be empty with capacity PlainLen(len(blob)). dst must not
// alias blob.
func (s *Sealer) openInto(dst, blob, aad []byte) error {
	if len(blob) < Overhead {
		return fmt.Errorf("seal: blob too short: %d bytes", len(blob))
	}
	if _, err := s.aead.Open(dst, blob[:NonceSize], blob[NonceSize:], aad); err != nil {
		return ErrAuth
	}
	s.opened.Add(1)
	return nil
}

// Seal encrypts plaintext, binding aad (additional authenticated data,
// e.g. the block-layout header). The result is nonce||ciphertext||tag.
func (s *Sealer) Seal(plaintext, aad []byte) ([]byte, error) {
	out := make([]byte, SealedLen(len(plaintext)))
	s.sealInto(out, plaintext, aad)
	return out, nil
}

// Open authenticates and decrypts a blob produced by Seal with the same
// aad. It returns ErrAuth if the blob or aad has been tampered with.
func (s *Sealer) Open(blob, aad []byte) ([]byte, error) {
	n := PlainLen(len(blob))
	if n < 0 {
		return nil, fmt.Errorf("seal: blob too short: %d bytes", len(blob))
	}
	// Allocate non-nil even for empty plaintext: callers use nil payloads
	// to mean "simulation mode, no bytes".
	pt := make([]byte, 0, n)
	if err := s.openInto(pt, blob, aad); err != nil {
		return nil, err
	}
	return pt[:n], nil
}

// SealedLen returns the sealed size of an n-byte plaintext.
func SealedLen(n int) int { return n + Overhead }

// PlainLen returns the plaintext size of an n-byte sealed blob, or -1 if
// the blob is too short to be valid.
func PlainLen(n int) int {
	if n < Overhead {
		return -1
	}
	return n - Overhead
}
