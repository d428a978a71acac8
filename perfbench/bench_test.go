package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsReportEveryMetric runs each gated workload briefly, untraced
// and traced, and checks the result line: correct, and every metric
// BENCHMARK.json names present with its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	for _, w := range s.Workloads {
		if findWorkload(w.Name) == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": s.EndToEnd, "1": s.PerLayer} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "2", "--trace", trace, "--out", t.TempDir()}
				if rc := run(args, &out); rc != 0 {
					t.Fatalf("exit %d:\n%s", rc, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(r.Metrics), len(want))
				}
			})
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "multicast-small", "--seconds", "0"},
		{"--workload", "multicast-small", "--trace", "2"},
	} {
		var out bytes.Buffer
		if rc := run(args, &out); rc == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, rc, out.String())
		}
	}
}
