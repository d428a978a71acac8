// Command benchpair summarizes paired perfbench runs (see
// scripts/benchpair.sh). It reads two files of perfbench result lines, one
// JSON object per run with run i of each file forming pair i, and prints
// for every end-to-end metric in BENCHMARK.json: the median and quartiles
// of each side, the median change, and how many pairs the second side won.
// Run it from the repository root:
//
//	go run ./scripts/benchpair base.jsonl head.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

type spec struct {
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchpair base.jsonl head.jsonl")
		os.Exit(2)
	}
	var sp spec
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &sp)
	}
	if err != nil {
		fail(err)
	}
	base, err := readRuns(os.Args[1])
	if err != nil {
		fail(err)
	}
	head, err := readRuns(os.Args[2])
	if err != nil {
		fail(err)
	}
	pairs := min(len(base), len(head))
	fmt.Printf("%d pairs\n", pairs)
	for _, side := range []struct {
		name string
		runs []result
	}{{"base", base}, {"head", head}} {
		bad := 0
		for _, r := range side.runs {
			if !r.Correct || r.Failed > 0 {
				bad++
			}
		}
		fmt.Printf("%s: %d runs, %d not correct or with failed operations\n", side.name, len(side.runs), bad)
	}
	fmt.Printf("\n%-16s %28s %28s %9s %6s\n", "metric", "base p50 [q1, q3]", "head p50 [q1, q3]", "change", "wins")
	for _, m := range sp.EndToEnd {
		var b, h []float64
		wins := 0
		for i := 0; i < pairs; i++ {
			bv, bok := base[i].Metrics[m.Name]
			hv, hok := head[i].Metrics[m.Name]
			if !bok || !hok {
				continue
			}
			b, h = append(b, bv.Value), append(h, hv.Value)
			if (m.Better == "lower") == (hv.Value < bv.Value) && hv.Value != bv.Value {
				wins++
			}
		}
		if len(b) == 0 {
			continue
		}
		bq, hq := quartiles(b), quartiles(h)
		fmt.Printf("%-16s %28s %28s %+8.1f%% %3d/%-2d\n", m.Name, fmtQ(bq), fmtQ(hq),
			100*(hq[1]-bq[1])/bq[1], wins, len(b))
	}
	fmt.Println("\nA gain holds when the head wins at least 9 of 10 pairs and the gap between")
	fmt.Println("medians exceeds the base interquartile range (q3 - q1).")
}

func readRuns(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, len(out)+1, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns q1, median and q3 by linear interpolation between
// order statistics.
func quartiles(v []float64) [3]float64 {
	s := slices.Sorted(slices.Values(v))
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		lo := int(math.Floor(x))
		hi := min(lo+1, len(s)-1)
		return s[lo] + (x-float64(lo))*(s[hi]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchpair:", err)
	os.Exit(1)
}
