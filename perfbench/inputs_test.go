package main

import (
	"bytes"
	"testing"
)

// TestSameSeedSameInputs: a generator gives byte-identical inputs (the
// spec list and the trace CSV) for one seed and different ones for
// another.
func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			gen := func(seed uint64) []byte {
				g, err := w.generate(seed)
				if err != nil {
					t.Fatal(err)
				}
				return append(g.specList(), g.csv...)
			}
			a, b, c := gen(3), gen(3), gen(4)
			if len(a) == 0 || !bytes.Equal(a, b) {
				t.Errorf("seed 3 generated different inputs on two calls")
			}
			if bytes.Equal(a, c) {
				t.Errorf("seeds 3 and 4 generated the same inputs")
			}
		})
	}
}

// TestInputsDetermineSimulation: the drive receives only the generated
// inputs, so two independently generated input sets at one seed simulate
// identically and another seed simulates differently.
func TestInputsDetermineSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload three times")
	}
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			digest := func(seed uint64) string {
				g, err := w.generate(seed)
				if err != nil {
					t.Fatal(err)
				}
				in, err := setup(g, nil)
				if err != nil {
					t.Fatal(err)
				}
				res, err := w.drive(in, nil, nil, func(string) {})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.problems) > 0 {
					t.Fatalf("seed %d: %v", seed, res.problems)
				}
				return res.digest
			}
			a, b, c := digest(5), digest(5), digest(6)
			if a != b {
				t.Errorf("seed 5 simulated differently from the same inputs: %s vs %s", a, b)
			}
			if a == c {
				t.Errorf("seeds 5 and 6 simulated identically")
			}
		})
	}
}
