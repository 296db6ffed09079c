package main

import (
	"testing"
)

// small is a plan a test can afford.
var small = plan{cycles: 3, warmup: 2, openN: 4, closedN: 4}

func TestInputsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := w.gen(7, small)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := w.gen(7, small)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		c, err := w.gen(8, small)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: one seed gave two input digests", w.name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 gave the same input digest", w.name)
		}
	}
}

func TestServeUniqueNeverRepeatsADocument(t *testing.T) {
	in, err := serveUniqueInputs(3, plan{cycles: 1, warmup: 50, openN: 400, closedN: 200})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, seq := range [][]int{in.warmup, in.open, in.closed} {
		for _, i := range seq {
			if c := in.docs[i].Content; seen[c] {
				t.Fatalf("document %d requested twice", i)
			} else {
				seen[c] = true
			}
		}
	}
}

// TestCycleDigestsRepeat runs the first compile-cold cycles of one seed
// on two fresh stacks: the certified sets must be byte-identical, even
// though cache and scheduling counters need not be.
func TestCycleDigestsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("starts two stacks")
	}
	w, _ := findWorkload("compile-cold")
	var runs [2][]string
	for k := range runs {
		in, err := w.gen(5, small)
		if err != nil {
			t.Fatal(err)
		}
		st, err := newStack(w.cfg, nil, in.docs)
		if err != nil {
			t.Fatal(err)
		}
		for c, ci := range append([]compileInput{in.training}, in.cycles...) {
			out, err := st.cycle(ci, int64(c))
			if err != nil {
				st.close()
				t.Fatalf("run %d cycle %d: %v", k, c, err)
			}
			runs[k] = append(runs[k], out.digest)
		}
		st.close()
	}
	for c := range runs[0] {
		if runs[0][c] != runs[1][c] {
			t.Errorf("cycle %d: set digest %.12s, then %.12s", c, runs[0][c], runs[1][c])
		}
	}
}
