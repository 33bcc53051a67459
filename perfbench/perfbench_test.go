package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"vadalink/internal/pg"
)

func TestTailPctKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {499, 95}, {500, 98}, {999, 98}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPct(tc.n); got != tc.want {
			t.Errorf("tailPct(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// The rule itself, for every n: at least ten samples lie beyond the
	// chosen percentile and fewer than ten beyond the next rung up.
	for n := 1; n < 20000; n++ {
		p := tailPct(n)
		if p == 0 {
			continue
		}
		if float64(n)*(100-p)/100 < minBeyond-1e-6 {
			t.Fatalf("n=%d: p%v leaves fewer than %d samples beyond", n, p, minBeyond)
		}
		for _, q10 := range tailLadder {
			if q := float64(q10) / 10; q > p && float64(n)*(100-q)/100 >= minBeyond+1e-9 {
				t.Fatalf("n=%d: p%v qualifies but p%v was chosen", n, q, p)
			}
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	orig := append([]float64(nil), xs...)
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !reflect.DeepEqual(xs, orig) {
		t.Error("percentile reordered its input")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	d := 3 * time.Second
	gens := map[string]func(seed int64) ([]byte, error){
		"point_reads": func(s int64) ([]byte, error) {
			in := genPoint(s, d)
			return encodeInputs(in.Graph, in)
		},
		"registry_churn": func(s int64) ([]byte, error) {
			in := genChurn(s, d)
			return encodeInputs(in.Graph, in)
		},
		"analyst_jobs": func(s int64) ([]byte, error) {
			in := genAnalyst(s, d)
			return encodeInputs(in.Graph, in)
		},
	}
	for name, gen := range gens {
		a, err := gen(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen(7)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different op streams", name)
		}
		c, err := gen(8)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", name)
		}
	}
}

// TestChurnStreamValid replays the generated change stream: every write
// applies, and no write raises a company above 100% owned.
func TestChurnStreamValid(t *testing.T) {
	in := genChurn(3, 10*time.Second)
	g := in.Graph.Clone()
	for i, w := range in.Writes {
		before := incoming(g, w.To)
		if err := applyWrite(g, w); err != nil {
			t.Fatalf("write %d (%+v): %v", i, w, err)
		}
		if after := incoming(g, w.To); after > math.Max(1, before)+1e-9 {
			t.Fatalf("write %d raises company %d to %.4f owned", i, w.To, after)
		}
	}
	if len(in.Writes) < 150 {
		t.Errorf("10s at %v/s gave only %d writes", writeRate, len(in.Writes))
	}
}

func TestAnalystSweepSwitchesEveryBlock(t *testing.T) {
	in := genAnalyst(5, 20*time.Second)
	prev := -1.0
	for i, j := range in.Jobs {
		if j.Kind != "whatif" {
			continue
		}
		if switched := j.Threshold != prev; switched != j.First {
			t.Fatalf("job %d: threshold %v after %v but First=%v", i, j.Threshold, prev, j.First)
		}
		prev = j.Threshold
	}
}

// TestOpenLoopChargesQueueing drives the open loop with one worker and an
// operation that takes 20 ms, on a schedule that sends three operations at
// once: the later ones must be charged the time they waited for the first.
func TestOpenLoopChargesQueueing(t *testing.T) {
	const work = 20 * time.Millisecond
	due := []time.Duration{0, 0, 0, 200 * time.Millisecond}
	lat, late, skipped := openLoop(context.Background(), due, 1, time.Minute, func(int) { time.Sleep(work) })
	for i, want := range []time.Duration{work, 2 * work, 3 * work, work} {
		if lat[i] < want || lat[i] > want+15*time.Millisecond {
			t.Errorf("op %d: latency %v, want about %v", i, lat[i], want)
		}
	}
	for i := range due {
		if skipped[i] {
			t.Errorf("op %d skipped", i)
		}
		if late[i] < 0 || late[i] > 15*time.Millisecond {
			t.Errorf("op %d: dispatched %v late", i, late[i])
		}
	}
}

// TestOpenLoopSkipsHopelessOps checks that an op still queued past giveUp is
// not sent.
func TestOpenLoopSkipsHopelessOps(t *testing.T) {
	due := []time.Duration{0, 0}
	sent := 0
	_, _, skipped := openLoop(context.Background(), due, 1, 5*time.Millisecond, func(int) {
		sent++
		time.Sleep(20 * time.Millisecond)
	})
	if sent != 1 || skipped[0] || !skipped[1] {
		t.Errorf("sent %d, skipped %v; want the second op skipped", sent, skipped)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Op: 1, Name: "c", Start: 90, End: 120},
	}
	self := tr.selfTimes()
	if got := self["op"][0]; got != 100-40-10 {
		t.Errorf("op self time %v, want 50", got)
	}
	if got := self["a"][0]; got != 20 {
		t.Errorf("leaf self time %v, want its duration 20", got)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), command %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// encodeInputs renders a workload's inputs — graph and op streams — as the
// canonical bytes the determinism test compares.
func encodeInputs(g *pg.Graph, streams any) ([]byte, error) {
	var b bytes.Buffer
	if err := g.WriteJSON(&b); err != nil {
		return nil, fmt.Errorf("encoding graph: %w", err)
	}
	if err := json.NewEncoder(&b).Encode(streams); err != nil {
		return nil, fmt.Errorf("encoding op streams: %w", err)
	}
	return b.Bytes(), nil
}
