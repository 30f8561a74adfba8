package testbed

import (
	"reflect"
	"testing"

	"repro/internal/tcpsim"
)

func TestScenarioCatalogShape(t *testing.T) {
	paths := ScenarioCatalog(ScenarioConfig{Seed: 7, PathsPerScenario: 2})
	want := 3 * 4 * 2 // senders × links × instances
	if len(paths) != want {
		t.Fatalf("catalog has %d paths, want %d", len(paths), want)
	}
	seen := map[string]bool{}
	for _, pc := range paths {
		if seen[pc.Name] {
			t.Errorf("duplicate path name %q", pc.Name)
		}
		seen[pc.Name] = true
		if pc.CC == "" || pc.LinkType == "" {
			t.Errorf("%s: missing CC (%q) or link type (%q)", pc.Name, pc.CC, pc.LinkType)
		}
		if pc.LinkType == LinkRwndLimited && pc.TargetWindowBytes == 0 {
			t.Errorf("%s: rwnd-limited scenario without a target window cap", pc.Name)
		}
		if pc.LinkType == LinkCellular {
			found := false
			for _, h := range pc.Spec.Forward {
				if h.Rate != nil && len(h.Rate.Steps) > 0 {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: cellular scenario without a rate schedule", pc.Name)
			}
		}
	}
}

// TestScenarioCatalogSharedSubstrate checks the property ext-cc's
// cross-sender comparisons rest on: within one (link, instance) cell the
// reno/cubic/bbr paths are identical except for name and CC.
func TestScenarioCatalogSharedSubstrate(t *testing.T) {
	paths := ScenarioCatalog(ScenarioConfig{Seed: 3})
	byCell := map[string][]PathConfig{}
	for _, pc := range paths {
		key := string(pc.LinkType)
		byCell[key] = append(byCell[key], pc)
	}
	for cell, group := range byCell {
		if len(group) != 3 {
			t.Fatalf("cell %s has %d paths, want 3", cell, len(group))
		}
		base := group[0]
		for _, pc := range group[1:] {
			a, b := base, pc
			a.Name, b.Name = "", ""
			a.CC, b.CC = "", ""
			if !reflect.DeepEqual(a, b) {
				t.Errorf("cell %s: substrate differs between %s and %s", cell, base.Name, pc.Name)
			}
		}
	}
}

func TestScenarioCatalogDeterministic(t *testing.T) {
	a := ScenarioCatalog(ScenarioConfig{Seed: 11})
	b := ScenarioCatalog(ScenarioConfig{Seed: 11})
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different catalogs")
	}
	c := ScenarioCatalog(ScenarioConfig{Seed: 12})
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical catalogs")
	}
}

func TestScenarioScaledRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("collects a small campaign")
	}
	cfg := ScenarioScaled(5, ScenarioConfig{
		senders: []tcpsim.Congestion{tcpsim.CCReno, tcpsim.CCBBR},
		links:   []LinkType{LinkRandomDrop, LinkRwndLimited},
	})
	cfg.TracesPerPath = 1
	cfg.EpochsPerTrace = 3
	ds := collect(t, cfg)
	if len(ds.Traces) != 4 {
		t.Fatalf("collected %d traces, want 4", len(ds.Traces))
	}
	for _, tr := range ds.Traces {
		for _, rec := range tr.Records {
			if rec.CC == "" || rec.Link == "" {
				t.Fatalf("%s: epoch record missing CC/link identity", tr.Path)
			}
			if rec.Throughput <= 0 {
				t.Errorf("%s epoch %d: no throughput", tr.Path, rec.Epoch)
			}
			if rec.Link == string(LinkRwndLimited) {
				// The 4-8 KB cap keeps the large transfer slow: the whole
				// point of the regime. 8 KB / 20 ms would be ~3.2 Mbps; any
				// healthy uncapped path here would do far more.
				if rec.Throughput > 8e6 {
					t.Errorf("%s: rwnd-limited epoch ran at %.1f Mbps — cap not applied", tr.Path, rec.Throughput/1e6)
				}
			}
		}
	}
}
