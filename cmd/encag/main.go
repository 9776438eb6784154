// Command encag is the operator binary of the encrypted all-gather
// stack, one subcommand per job. Run it without arguments for the list
// and `encag <subcommand> -h` for a subcommand's flags.
package main

import (
	"fmt"
	"os"
)

var commands = []struct {
	name, about string
	run         func(args []string) error
}{
	{"bench", "regenerate the paper's tables and figures from the cluster model", cmdBench},
	{"explore", "rank every algorithm for one cluster shape on the simulator", cmdExplore},
	{"load", "drive an `encag serve` host with a fleet of simulated clients", cmdLoad},
	{"osu", "OSU_Allgather-style latency micro-benchmark on the real engines", cmdOSU},
	{"serve", "host many tenant sessions in one process over HTTP", cmdServe},
	{"trace", "render the activity timeline of one all-gather", cmdTrace},
	{"tune", "sweep this host's algorithm crossovers into a tuning table", cmdTune},
	{"verify", "correctness, security and chaos sweep on the real engines", cmdVerify},
}

// main runs the named subcommand: exit status 1 with one line on stderr
// when it returns an error, 2 with the list when none is named. A
// subcommand's flag set is flag.ExitOnError, so -h and a refused command
// line exit (0 and 2) from inside run.
func main() {
	for _, c := range commands {
		if len(os.Args) > 1 && os.Args[1] == c.name {
			if err := c.run(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintln(os.Stderr, "usage: encag <subcommand> [flags]")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-8s %s\n", c.name, c.about)
	}
	os.Exit(2)
}
