package main

import (
	"fmt"
	"strings"
	"testing"
)

// inputsSummary renders every seed-derived input as text.
func inputsSummary(in inputs) string {
	var b strings.Builder
	for _, c := range in.Sim {
		fmt.Fprintf(&b, "sim %s %s\n", c.key(), c.Cfg.Fingerprint())
	}
	fmt.Fprintf(&b, "prefill %v\n", in.Prefill)
	for _, req := range in.Pool {
		cfg, err := req.Config()
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&b, "pool %s\n", cfg.Fingerprint())
	}
	for _, p := range in.Phases {
		fmt.Fprintf(&b, "phase %s %v %v\n", p.Name, p.Rate, p.Arrivals)
	}
	return b.String()
}

func TestInputsFollowTheSeed(t *testing.T) {
	phases := [2]float64{5, 10}
	a, b := inputsSummary(makeInputs(7, phases)), inputsSummary(makeInputs(7, phases))
	if a != b {
		t.Fatal("one seed produced two different input sets")
	}
	other := makeInputs(8, phases)
	if inputsSummary(other) == a {
		t.Fatal("seeds 7 and 8 produced the same inputs")
	}
	in := makeInputs(7, phases)
	if fmt.Sprint(in.Prefill) == fmt.Sprint(other.Prefill) {
		t.Error("seeds 7 and 8 prefill the same subset")
	}
	if fmt.Sprint(in.Phases) == fmt.Sprint(other.Phases) {
		t.Error("seeds 7 and 8 share an arrival schedule")
	}
}

func TestInputsShape(t *testing.T) {
	in := makeInputs(1, [2]float64{5, 10})
	if len(in.Sim) != len(simCatalog()) {
		t.Fatalf("%d sim-mix configurations, want %d", len(in.Sim), len(simCatalog()))
	}
	seen := map[string]bool{}
	for _, req := range in.Pool {
		cfg, err := req.Config()
		if err != nil {
			t.Fatal(err)
		}
		if seen[cfg.Fingerprint()] {
			t.Fatalf("pool repeats %s", cfg.Fingerprint())
		}
		seen[cfg.Fingerprint()] = true
	}
	for _, p := range in.Phases {
		// Poisson arrivals over the phase at its rate, within a wide margin.
		want := p.Rate * map[string]float64{"lo": 5, "hi": 10}[p.Name]
		if n := float64(len(p.Arrivals)); n < want/2 || n > want*2 {
			t.Errorf("phase %s: %v arrivals, want about %v", p.Name, n, want)
		}
		for i := 1; i < len(p.Arrivals); i++ {
			if p.Arrivals[i].Due < p.Arrivals[i-1].Due {
				t.Fatalf("phase %s: arrivals out of order", p.Name)
			}
		}
	}
}

func TestGoldensCoverEverySeed(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range goldenSeeds {
		for _, c := range simCatalog() {
			c.Cfg.Seed = seed
			if _, ok := g.Sim[c.key()]; !ok {
				t.Errorf("no sim-mix golden for %s", c.key())
			}
		}
	}
	if _, ok := g.Sweep[fmt.Sprint(sweepSeed)]; !ok {
		t.Errorf("no sweep golden for seed %d", sweepSeed)
	}
}
