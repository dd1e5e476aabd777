package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the driver's view of the benchmark: the bounds the
// comparison applies come from it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// child runs this program again as its own process — the way the driver
// does — and parses the last line it prints.
func child(workload string, seed int64, seconds, trace int) (line, error) {
	self, err := os.Executable()
	if err != nil {
		return line{}, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return line{}, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var l line
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
		return l, fmt.Errorf("%s seed %d trace %d: last line: %w", workload, seed, trace, err)
	}
	if !l.Correct {
		return l, fmt.Errorf("%s seed %d trace %d: %d of %d checks failed", workload, seed, trace, l.Failed, l.Attempted)
	}
	return l, nil
}

// spread is the interquartile range as a share of the median, the
// driver's steadiness measure (0 with fewer than two values).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	// Python's statistics.quantiles(values, n=4), exclusive method.
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}

// worse is how much b is worse than a, as a share of a (negative when
// b is better).
func worse(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAgree makes two sets of n end-to-end runs per workload (seeds
// seed+1..seed+n, the same in both sets) plus one per-layer run per set,
// prints both medians per metric, and returns 1 if a median worsens or
// spreads by more than its bound, or an exact metric differs. only
// restricts it to one workload ("all": every one).
func runAgree(only string, n int, seed int64, seconds int) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bad := 0
	for _, w := range allWorkloads {
		if only != "all" && only != w {
			continue
		}
		var sets [2]map[string][]float64
		var layers [2]line
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 1; i <= n; i++ {
				l, err := child(w, seed+int64(i), seconds, 0)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				for name, v := range l.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
			if layers[set], err = child(w, seed+1, seconds, 1); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		fmt.Printf("== %s: two sets of %d runs\n%-18s %14s %14s %8s %8s %8s %6s\n", w, n,
			"metric", "median 1", "median 2", "worse", "spread 1", "spread 2", "bound")
		for _, m := range bf.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			d := worse(median(a), median(b), m.Better)
			verdict := ""
			if d > *m.Bound {
				verdict = "  MEDIAN WORSE THAN BOUND"
				bad++
			}
			if m.Name != "setup_s" && max(spread(a), spread(b)) > *m.Bound {
				verdict += "  SPREAD WIDER THAN BOUND"
				bad++
			}
			fmt.Printf("%-18s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%%s\n", m.Name,
				median(a), median(b), 100*d, 100*spread(a), 100*spread(b), 100**m.Bound, verdict)
		}
		for _, d := range perLayer {
			a, b := layers[0].Metrics[d.name].Value, layers[1].Metrics[d.name].Value
			if d.exact && a != b {
				fmt.Printf("%-34s %v != %v  EXACT METRIC DIFFERS\n", d.name, a, b)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Printf("%d disagreements\n", bad)
		return 1
	}
	fmt.Println("both sets agree within every bound; exact metrics identical")
	return 0
}
