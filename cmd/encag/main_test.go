package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the encag binary: run as
// `<test binary> encag <args…>` it is main() with those arguments, so
// the tests below see real exit statuses and a real stderr.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "encag" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runEncag(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"encag"}, args...)...)
	var out, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errBuf
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("encag %v: %v", args, err)
	}
	return out.String(), errBuf.String(), cmd.ProcessState.ExitCode()
}

func TestUsageListsEverySubcommand(t *testing.T) {
	for _, args := range [][]string{nil, {"nosuchcommand"}, {"-h"}} {
		_, stderr, status := runEncag(t, args...)
		if status != 2 {
			t.Errorf("encag %v: exit status %d, want 2", args, status)
		}
		for _, c := range commands {
			if !strings.Contains(stderr, "  "+c.name+" ") {
				t.Errorf("encag %v: usage does not list %q:\n%s", args, c.name, stderr)
			}
		}
	}
	if len(commands) != 8 {
		t.Errorf("%d subcommands, want 8", len(commands))
	}
}

func TestEverySubcommandHasHelp(t *testing.T) {
	for _, c := range commands {
		_, stderr, status := runEncag(t, c.name, "-h")
		if status != 0 || !strings.Contains(stderr, "Usage of encag "+c.name+":") {
			t.Errorf("encag %s -h: exit status %d, stderr:\n%s", c.name, status, stderr)
		}
		if _, _, status := runEncag(t, c.name, "-nosuchflag"); status != 2 {
			t.Errorf("encag %s -nosuchflag: exit status %d, want 2", c.name, status)
		}
	}
}

// A bad value is refused before any work starts, with one line on
// stderr that names it and exit status 1.
func TestBadValuesNamedInOneLine(t *testing.T) {
	for _, c := range []struct {
		args []string
		bad  string
	}{
		{[]string{"trace", "-mapping", "weird"}, `"weird"`},
		{[]string{"osu", "-engine", "fpga"}, `"fpga"`},
		{[]string{"serve", "-engine", "fpga"}, `"fpga"`},
		{[]string{"tune", "-engines", "tcp,fpga"}, `"fpga"`},
		{[]string{"trace", "-engine", "fpga"}, `"fpga"`},
		{[]string{"trace", "-format", "yaml"}, `"yaml"`},
		{[]string{"trace", "-alg", "nosuchalg"}, `"nosuchalg"`},
		{[]string{"osu", "-algs", "hs2,nosuchalg"}, `"nosuchalg"`},
		{[]string{"tune", "-algs", "nosuchalg"}, `"nosuchalg"`},
		{[]string{"tune", "-algs", "o-ring,plain-ring"}, `"plain-ring"`},
		{[]string{"explore", "-size", "12XB"}, `"12XB"`},
		{[]string{"load", "-sizes", "4KB,12XB"}, `"12XB"`},
		{[]string{"verify", "-sizes", "1,12XB"}, `"12XB"`},
		{[]string{"osu", "-segment-size", "12XB"}, `"12XB"`},
		{[]string{"explore", "-p", "many"}, `"many"`},
		{[]string{"tune", "-nodes", "2,many"}, `"many"`},
		{[]string{"tune", "-pipeline", "sometimes"}, `"sometimes"`},
		{[]string{"explore", "-profile", "nosuchcluster"}, `"nosuchcluster"`},
		{[]string{"bench", "-exp", "bogus"}, `"bogus"`},
		{[]string{"trace", "-o", "/nonexistent-dir/x.json"}, "/nonexistent-dir/x.json"},
	} {
		_, stderr, status := runEncag(t, c.args...)
		if status != 1 {
			t.Errorf("encag %v: exit status %d, want 1", c.args, status)
		}
		if strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, c.bad) {
			t.Errorf("encag %v: stderr is not one line naming %s:\n%s", c.args, c.bad, stderr)
		}
	}
}

// osu times the unencrypted baseline beside an encrypted algorithm, and
// the encrypted row carries its overhead against it.
func TestOSUTimesThePlaintextBaseline(t *testing.T) {
	stdout, stderr, status := runEncag(t, "osu", "-p", "4", "-nodes", "2", "-algs", "o-ring,mpi",
		"-sizes", "1KB", "-iters", "2", "-warmup", "1", "-csv")
	if status != 0 || stderr != "" {
		t.Fatalf("encag osu: exit status %d, stderr:\n%s", status, stderr)
	}
	rows, err := csv.NewReader(strings.NewReader(stdout)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alg", "size", "avg_us", "min_us", "max_us", "stddev_us", "rd", "sd", "overhead"}
	if len(rows) != 3 || !slices.Equal(rows[0], want) || rows[1][0] != "mpi" || rows[2][0] != "o-ring" {
		t.Fatalf("encag osu: want a header, then the mpi and o-ring rows:\n%s", stdout)
	}
	if _, err := strconv.ParseFloat(rows[2][8], 64); err != nil {
		t.Errorf("o-ring overhead %q is not a number", rows[2][8])
	}
}
