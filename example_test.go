package encag_test

import (
	"context"
	"fmt"

	"encag"
)

// ExampleSession_Allgather runs a real encrypted all-gather: four ranks
// on two simulated nodes exchange secrets; inter-node traffic is AES-GCM
// sealed.
func ExampleSession_Allgather() {
	ctx := context.Background()
	s, err := encag.OpenSession(ctx, encag.Spec{Procs: 4, Nodes: 2})
	if err != nil {
		panic(err)
	}
	defer s.Close()
	data := [][]byte{
		[]byte("alpha"), []byte("bravo"), []byte("charl"), []byte("delta"),
	}
	res, err := s.Allgather(ctx, "hs2", data)
	if err != nil {
		panic(err)
	}
	fmt.Println("rank 3 sees rank 0's block:", string(res.Gathered[3][0]))
	fmt.Println("security ok:", res.SecurityOK)
	// Output:
	// rank 3 sees rank 0's block: alpha
	// security ok: true
}

// ExampleSession_Simulate prices an algorithm on the modelled Noleland
// cluster without running any bytes: here the paper's six cost metrics
// for HS2.
func ExampleSession_Simulate() {
	ctx := context.Background()
	s, err := encag.OpenSession(ctx, encag.Spec{Procs: 128, Nodes: 8},
		encag.WithEngine(encag.EngineSim), encag.WithProfile(encag.Noleland()))
	if err != nil {
		panic(err)
	}
	defer s.Close()
	res, err := s.Simulate(ctx, "hs2", 1024)
	if err != nil {
		panic(err)
	}
	fmt.Printf("rc=%d re=%d se=%d rd=%d sd=%d\n",
		res.Metrics.Rc, res.Metrics.Re, res.Metrics.Se, res.Metrics.Rd, res.Metrics.Sd)
	// Output:
	// rc=3 re=1 se=1024 rd=7 sd=7168
}

// ExampleLowerBounds evaluates the paper's Table I for the Noleland
// configuration.
func ExampleLowerBounds() {
	lb := encag.LowerBounds(128, 8, 1024)
	fmt.Printf("re>=%d se>=%d rd>=%d sd>=%d\n", lb.Re, lb.Se, lb.Rd, lb.Sd)
	// Output:
	// re>=1 se>=1024 rd>=1 sd>=7168
}

// ExamplePredict shows that HS2 meets the decrypted-bytes lower bound
// exactly.
func ExamplePredict() {
	pred, err := encag.Predict("hs2", 128, 8, 1024)
	if err != nil {
		panic(err)
	}
	lb := encag.LowerBounds(128, 8, 1024)
	fmt.Println("hs2 sd == bound:", pred.Sd == lb.Sd)
	// Output:
	// hs2 sd == bound: true
}
