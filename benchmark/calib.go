package main

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"time"
)

const (
	calibChunk  = 64 << 10
	calibChunks = 64 // a full calibration, at slice edges: about 0.8 ms
	shortChunks = 16 // a short one, between operations inside a slice: about 0.2 ms
)

// calibrator is the benchmark's own host-speed reference: one goroutine
// sealing 64 x 64 KiB with the standard library's AES-GCM into a
// preallocated buffer. It never touches internal/seal, so a change to
// the program under test cannot move it, and it allocates nothing, so it
// does not disturb the allocation counts it runs between.
type calibrator struct {
	aead    cipher.AEAD
	nonce   [12]byte
	counter uint64
	src     []byte
	dst     []byte
	sum     float64 // of every measurement so far, MB/s
	n       int
}

func newCalibrator() (*calibrator, error) {
	blk, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		return nil, fmt.Errorf("calibration cipher: %w", err)
	}
	aead, err := cipher.NewGCM(blk)
	if err != nil {
		return nil, fmt.Errorf("calibration gcm: %w", err)
	}
	c := &calibrator{
		aead: aead,
		src:  make([]byte, calibChunk),
		dst:  make([]byte, 0, calibChunk+aead.Overhead()),
	}
	for i := 0; i < 3; i++ { // fault the buffers in and warm the AES key schedule
		c.kernel(calibChunks)
	}
	c.sum, c.n = 0, 0
	return c, nil
}

// kernel seals `chunks` chunks and returns the rate in MB/s.
func (c *calibrator) kernel(chunks int) float64 {
	start := time.Now()
	for i := 0; i < chunks; i++ {
		c.counter++
		binary.LittleEndian.PutUint64(c.nonce[:8], c.counter)
		c.dst = c.aead.Seal(c.dst[:0], c.nonce[:], c.src, nil)
	}
	mbps := float64(calibChunk*chunks) / 1e6 / time.Since(start).Seconds()
	c.sum, c.n = c.sum+mbps, c.n+1
	return mbps
}

// run measures the host once. The workload must be quiescent.
func (c *calibrator) run() float64 { return c.kernel(calibChunks) }

// short is the quarter-length measurement taken inside a slice.
func (c *calibrator) short() float64 { return c.kernel(shortChunks) }

// mean is the host's mean rate over every measurement of the run.
func (c *calibrator) mean() float64 { return c.sum / float64(c.n) }

// residentProbe reads the process's resident set without allocating, so
// it can run between operations inside a slice.
type residentProbe struct {
	f   *os.File
	buf [128]byte
}

func newResidentProbe() (*residentProbe, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, fmt.Errorf("resident-set probe: %w", err)
	}
	return &residentProbe{f: f}, nil
}

// residentMB returns the resident set in MB, or 0 if it cannot be read.
func (p *residentProbe) residentMB() float64 {
	n, _ := p.f.ReadAt(p.buf[:], 0) // a short read ends in io.EOF; the fields are parsed below
	// statm is "size resident shared ...", in pages.
	field, pages := 0, 0
	for _, c := range p.buf[:n] {
		switch {
		case c == ' ':
			field++
		case field == 1 && c >= '0' && c <= '9':
			pages = pages*10 + int(c-'0')
		}
		if field > 1 {
			break
		}
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}

// pingPongUS is the median round trip of one byte over a loopback TCP
// connection: the host's socket latency floor, which the tcp workloads
// pay once per communication round.
func pingPongUS(rounds int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("ping-pong listen: %w", err)
	}
	defer ln.Close()
	echoErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoErr <- err
			return
		}
		defer conn.Close()
		var b [1]byte
		for i := 0; i < rounds; i++ {
			if _, err := conn.Read(b[:]); err != nil {
				echoErr <- err
				return
			}
			if _, err := conn.Write(b[:]); err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, fmt.Errorf("ping-pong dial: %w", err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // best effort: the default is already no-delay
	}
	lat := make([]float64, 0, rounds)
	var b [1]byte
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if _, err := conn.Write(b[:]); err != nil {
			return 0, fmt.Errorf("ping-pong write: %w", err)
		}
		if _, err := conn.Read(b[:]); err != nil {
			return 0, fmt.Errorf("ping-pong read: %w", err)
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if err := <-echoErr; err != nil {
		return 0, fmt.Errorf("ping-pong echo: %w", err)
	}
	return median(lat), nil
}
