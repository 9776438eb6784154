package encag

import "testing"

// Every paper algorithm, executed over real loopback TCP sockets: the
// gather must be byte-exact and an eavesdropper on the inter-node wires
// must see no plaintext block.
func TestAllAlgorithmsOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := Spec{Procs: 8, Nodes: 4}
	const m = 96
	s := openTest(t, spec, WithEngine(EngineTCP))
	var seen int64 // the capture is cumulative over the session
	for _, alg := range PaperAlgorithms() {
		res, err := s.Run(bg, alg, m)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		contract(t, s, res, patterns(spec.Procs, m))
		if now := s.Wire().Bytes; now == seen {
			t.Errorf("%s: no inter-node wire traffic captured", alg)
		} else {
			seen = now
		}
	}
}

// The plaintext counterpart is the positive control: the same TCP path
// with crypto disabled must expose plaintext to the wire sniffer.
func TestTCPPlaintextControl(t *testing.T) {
	s := openTest(t, Spec{Procs: 4, Nodes: 2}, WithEngine(EngineTCP))
	if _, err := s.Run(bg, "plain-c-ring", 96); err != nil {
		t.Fatal(err)
	}
	if s.WireClean(96) {
		t.Fatal("plaintext algorithm left no plaintext on the wire — sniffer broken")
	}
}

func TestTCPCyclicMapping(t *testing.T) {
	s := openTest(t, Spec{Procs: 8, Nodes: 4, Mapping: "cyclic"}, WithEngine(EngineTCP))
	res, err := s.Run(bg, "hs2", 64)
	if err != nil {
		t.Fatal(err)
	}
	contract(t, s, res, patterns(8, 64))
}
