package bench

import (
	"fmt"
	"strconv"
	"strings"
)

// SizeName formats a byte count the way the paper labels its x-axes:
// 1B, 256B, 1KB, 2MB, ...
func SizeName(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// ParseSize parses "64", "64B", "4KB", "2MB".
func ParseSize(in string) (int64, error) {
	s := strings.TrimSpace(strings.ToUpper(in))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "MB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "KB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KB")
	case strings.HasSuffix(s, "B"):
		s = strings.TrimSuffix(s, "B")
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bench: bad size %q: %w", in, err)
	}
	return v * mult, nil
}

// Size lists used by the paper's tables and figures.
var (
	sizesTableIII = sizes("1B", "2B", "4B", "8B", "16B", "32B", "64B", "1KB",
		"2KB", "4KB", "8KB", "16KB", "32KB", "256KB", "2MB")
	sizesTableIV = sizes("1B", "32B", "1KB", "2KB", "4KB", "8KB", "32KB",
		"64KB", "256KB", "2MB")
	sizesTableV = sizes("1B", "32B", "256B", "512B", "1KB", "4KB", "8KB",
		"32KB", "64KB", "256KB", "2MB")
	sizesTableVI = sizes("1B", "64B", "128B", "512B", "1KB", "2KB", "16KB",
		"64KB", "256KB", "512KB")

	sizesFig1 = sizes("1B", "256B", "1KB", "4KB", "16KB", "32KB", "64KB",
		"128KB", "512KB", "2MB")

	sizesFig5a = sizes("1B", "128B", "512B", "1KB", "2KB")
	sizesFig5b = sizes("8KB", "16KB", "32KB", "64KB")
	sizesFig5c = sizes("512KB", "1MB", "2MB")

	sizesFig6a = sizes("1B", "64B", "128B", "256B", "2KB")
	sizesFig6b = sizes("4KB", "8KB", "16KB", "32KB")
	sizesFig6c = sizes("128KB", "512KB", "1MB", "2MB")

	sizesFig7a = sizes("1B", "2B", "4B", "64B", "128B", "512B")
	sizesFig7b = sizes("1KB", "2KB", "4KB", "8KB", "16KB", "32KB")
	sizesFig7c = sizes("128KB", "512KB", "1MB")

	sizesFig8a = sizes("1B", "32B", "512B", "1KB", "2KB")
	sizesFig8b = sizes("4KB", "8KB", "16KB", "32KB")
	sizesFig8c = sizes("64KB", "128KB", "512KB", "1MB")
)

func sizes(names ...string) []int64 {
	out := make([]int64, len(names))
	for i, n := range names {
		v, err := ParseSize(n)
		if err != nil {
			panic(err)
		}
		out[i] = v
	}
	return out
}

// fmtUS formats a duration in microseconds with sensible precision.
func fmtUS(seconds float64) string {
	us := seconds * 1e6
	switch {
	case us >= 10000:
		return fmt.Sprintf("%.0f", us)
	case us >= 100:
		return fmt.Sprintf("%.1f", us)
	default:
		return fmt.Sprintf("%.2f", us)
	}
}

// fmtPct formats an overhead percentage.
func fmtPct(x float64) string { return fmt.Sprintf("%.2f", x) }
