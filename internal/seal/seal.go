// Package seal provides the AES-GCM encryption used by the encrypted
// all-gather algorithms, mirroring the paper's use of AES-GCM-128 from
// BoringSSL: a nonce-based AEAD where each sealed blob is
//
//	nonce (12 bytes) || ciphertext || tag (16 bytes)
//
// so a ciphertext is exactly Overhead = 28 bytes longer than its plaintext,
// as the paper notes. Nonces are chosen uniformly at random (the paper:
// "we pick nonces at random, which is standard-compliant").
//
// For large payloads the package also offers a segmented framing
// (SealSegmented/OpenSegmented) that splits a plaintext into
// independently sealed segments processed concurrently on a bounded
// worker pool — the multi-threaded pipelined encryption CryptMPI uses to
// lift the single-core GCM throughput ceiling.
//
// A Sealer also keeps an optional audit trail of nonces so tests can prove
// nonce uniqueness across an entire all-gather operation.
package seal

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
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
// SetPool, EnableNonceAudit) must happen before concurrent use.
type Sealer struct {
	aead cipher.AEAD

	sealed atomic.Int64 // number of GCM seal operations
	opened atomic.Int64 // number of successful GCM open operations

	segSize int   // segmented-seal split size; 0 means DefaultSegmentSize
	pool    *Pool // worker pool for segmented crypto; nil means the shared pool

	// The audit trail is mutex-guarded, but the hot path only pays for it
	// when enabled: auditOn is checked first, so unaudited seals touch
	// nothing but the atomic counters.
	auditOn atomic.Bool
	mu      sync.Mutex
	nonces  map[[NonceSize]byte]struct{}
	dup     bool
}

// NewSealer creates a Sealer from a 16-byte AES-128 key.
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
	return &Sealer{aead: aead}, nil
}

// NewRandomSealer creates a Sealer with a fresh random key.
func NewRandomSealer() (*Sealer, error) {
	key := make([]byte, KeySize)
	if _, err := rand.Read(key); err != nil {
		return nil, err
	}
	return NewSealer(key)
}

// EnableNonceAudit starts recording every nonce used by Seal so that
// DuplicateNonceSeen can later report reuse. Intended for tests.
func (s *Sealer) EnableNonceAudit() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nonces == nil {
		s.nonces = make(map[[NonceSize]byte]struct{})
	}
	s.auditOn.Store(true)
}

// DuplicateNonceSeen reports whether any nonce was used twice while the
// audit was enabled.
func (s *Sealer) DuplicateNonceSeen() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dup
}

// Counts returns the number of GCM seal operations and successful GCM
// open operations (a segmented blob counts one per segment).
func (s *Sealer) Counts() (sealed, opened int64) {
	return s.sealed.Load(), s.opened.Load()
}

// noteSeal accounts one seal operation. The mutex is only taken when the
// nonce audit is enabled; the default path is a single atomic add.
func (s *Sealer) noteSeal(nonce *[NonceSize]byte) {
	s.sealed.Add(1)
	if !s.auditOn.Load() {
		return
	}
	s.mu.Lock()
	if _, ok := s.nonces[*nonce]; ok {
		s.dup = true
	}
	s.nonces[*nonce] = struct{}{}
	s.mu.Unlock()
}

// sealInto seals plaintext into out, which must be exactly
// SealedLen(len(plaintext)) bytes. plaintext may alias
// out[NonceSize:NonceSize+len(plaintext)] exactly, enabling in-place
// encryption of a pre-gathered buffer (one buffer, one copy).
func (s *Sealer) sealInto(out, plaintext, aad []byte) error {
	var nonce [NonceSize]byte
	if err := nonces.next(&nonce); err != nil {
		return err
	}
	s.noteSeal(&nonce)
	copy(out[:NonceSize], nonce[:])
	s.aead.Seal(out[NonceSize:NonceSize], nonce[:], plaintext, aad)
	return nil
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
	if err := s.sealInto(out, plaintext, aad); err != nil {
		return nil, err
	}
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
