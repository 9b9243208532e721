package main

import (
	"reflect"
	"testing"
	"time"
)

const testOps = 3000

func opsOf(name string, seed int64) []op {
	g := newGenerator(specs[name], seed, 100)
	out := make([]op, testOps)
	for i := range out {
		out[i] = g.op(i)
	}
	return out
}

func TestSameSeedSameOps(t *testing.T) {
	for name := range specs {
		if a, b := opsOf(name, 7), opsOf(name, 7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different operation lists", name)
		}
	}
}

func TestOtherSeedOtherOps(t *testing.T) {
	for name := range specs {
		if a, b := opsOf(name, 7), opsOf(name, 8); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 gave the same operation list", name)
		}
	}
}

func TestWindowsInsideCoverage(t *testing.T) {
	for name, spec := range specs {
		for _, o := range opsOf(name, 3) {
			if o.Class != classRead {
				continue
			}
			if spec.Name == "sweep-live" {
				base := sweepWindow[o.Kind]
				if o.Skip >= sweepMaxSkip || o.Budget < base*9/10 || o.Budget > base*11/10 {
					t.Fatalf("%s op %d: skip %d budget %d outside the sweep bounds", name, o.Index, o.Skip, o.Budget)
				}
				continue
			}
			n := spec.Bases[o.Base].Records
			if o.Skip+o.Budget > n || o.Skip < uint64(float64(n)*spec.DeepSkip) {
				t.Fatalf("%s op %d: window [%d, %d) outside the %d-record recording", name, o.Index, o.Skip, o.Skip+o.Budget, n)
			}
			if o.Budget < spec.MinWindow || o.Budget > spec.MaxWindow {
				t.Fatalf("%s op %d: window %d outside [%d, %d]", name, o.Index, o.Budget, spec.MinWindow, spec.MaxWindow)
			}
		}
	}
}

func TestRepeatsReferenceEarlierReads(t *testing.T) {
	for name, spec := range specs {
		ops := opsOf(name, 5)
		seen := map[string]bool{}
		repeats := 0
		for _, o := range ops {
			if o.Class != classRead {
				continue
			}
			if o.Repeat < 0 {
				if k := o.key(); seen[k] {
					t.Fatalf("%s op %d: first-time read duplicates an earlier one", name, o.Index)
				} else {
					seen[k] = true
				}
				continue
			}
			repeats++
			if o.Repeat >= o.Index || o.Index-o.Repeat > repeatHorizon {
				t.Fatalf("%s op %d repeats op %d, not a recent earlier one", name, o.Index, o.Repeat)
			}
			orig := ops[o.Repeat]
			if orig.Repeat >= 0 || orig.key() != o.key() {
				t.Fatalf("%s op %d does not repeat first-time read %d", name, o.Index, o.Repeat)
			}
			if a, b := o.request([]string{"d0", "d1", "d2"}), orig.request([]string{"d0", "d1", "d2"}); a.ID != b.ID {
				t.Fatalf("%s op %d: repeat carries ID %q, original %q", name, o.Index, a.ID, b.ID)
			}
		}
		want := spec.RepeatShare * testOps
		if got := float64(repeats); got < want*0.8 || got > want*1.2 {
			t.Errorf("%s: %d repeats in %d ops, want about %.0f", name, repeats, testOps, want)
		}
	}
}

func TestWritesAlternateWithinPool(t *testing.T) {
	g := newGenerator(specs["disk-churn"], 1, 10)
	var classes []string
	for i := 0; i < 500; i++ {
		if o := g.op(i); o.Class != classRead {
			if o.Write >= 10 {
				t.Fatalf("op %d uses payload %d of 10", i, o.Write)
			}
			classes = append(classes, o.Class)
		}
	}
	if len(classes) != 20 {
		t.Fatalf("%d writes, want the whole pool of 20", len(classes))
	}
	for i, c := range classes {
		if want := []string{classUpload, classIngest}[i%2]; c != want {
			t.Fatalf("write %d is %s, want %s", i, c, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		q    float64
		want float64
		tail int
	}{
		{0.5, 5, 5}, {0.9, 9, 1}, {0.95, 10, 0}, {0.99, 10, 0}, {0.1, 1, 9},
	} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", c.q*100, got, c.want)
		}
		if got := beyond(len(xs), c.q); got != c.tail {
			t.Errorf("beyond(10, %v) = %d, want %d", c.q, got, c.tail)
		}
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// request [0,100) holds decode [10,30) and an engine [30,90) whose
	// child decodes [40,50) and [45,60) overlap and [85,95) sticks out.
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "decode", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "engine", Start: 30, End: 90},
		{ID: 4, Parent: 3, Name: "decode", Start: 40, End: 50},
		{ID: 5, Parent: 3, Name: "decode", Start: 45, End: 60},
		{ID: 6, Parent: 3, Name: "decode", Start: 85, End: 95},
	}
	want := []time.Duration{20, 20, 35, 10, 15, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}
