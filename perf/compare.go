package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readReports reads a file of reports, one JSON object per line, as
// -report writes them, keeping the untraced runs.
func readReports(path string) (map[string][]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// comparison is one row of -compare: a workload's metric in two sets of
// runs.
type comparison struct {
	workload, metric string
	a, b             float64 // medians
	worse            float64 // share of a by which b is worse (negative: better)
	spread           float64 // larger interquartile range of the two sets, as a share of its median
	bound            float64
	runsA, runsB     int
	verdict          string
}

// compareSets judges every end-to-end metric of every workload present in
// both sets: FAIL when b's median is worse than a's by more than the
// metric's bound or a run reported failed jobs, UNRESOLVED when the runs
// of either set spread wider than the bound (so a difference inside it
// means nothing), PASS otherwise.
func compareSets(a, b map[string][]report) []comparison {
	var rows []comparison
	for _, w := range workloads {
		ra, rb := a[w], b[w]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		failed := 0
		for _, r := range append(append([]report(nil), ra...), rb...) {
			failed += r.Failed
		}
		for _, d := range endToEnd {
			va, vb := metricValues(ra, d.Name), metricValues(rb, d.Name)
			c := comparison{workload: w, metric: d.Name, a: median(va), b: median(vb), runsA: len(va), runsB: len(vb), bound: d.Bound}
			c.worse = ratio(c.b-c.a, c.a)
			if d.Better == "higher" {
				c.worse = -c.worse
			}
			c.spread = max(spread(va), spread(vb))
			switch {
			case failed > 0 || c.worse > d.Bound:
				c.verdict = "FAIL"
			case c.spread > d.Bound:
				c.verdict = "UNRESOLVED"
			default:
				c.verdict = "PASS"
			}
			rows = append(rows, c)
		}
	}
	return rows
}

func metricValues(rs []report, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// spread is the interquartile range of xs as a share of their median, the
// repeatability figure the driver checks against a metric's bound.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// compareFiles prints the comparison of two report files and reports
// whether any row failed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReports(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReports(pathB)
	if err != nil {
		return false, err
	}
	rows := compareSets(a, b)
	if len(rows) == 0 {
		return false, fmt.Errorf("no workload has untraced runs in both %s and %s", pathA, pathB)
	}
	fmt.Fprintf(w, "%-20s %-12s %12s %12s %8s %8s %6s %5s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "spread", "bound", "runs", "verdict")
	anyFail := false
	for _, c := range rows {
		fmt.Fprintf(w, "%-20s %-12s %12.5g %12.5g %+7.1f%% %7.1f%% %5.0f%% %2d/%-2d  %s\n",
			c.workload, c.metric, c.a, c.b, 100*c.worse, 100*c.spread, 100*c.bound, c.runsA, c.runsB, c.verdict)
		anyFail = anyFail || c.verdict == "FAIL"
	}
	return anyFail, nil
}

// spreadFile prints, per workload and end-to-end metric of one report
// file, the median, the quartiles and the spread between them against the
// metric's bound, and reports whether any spread exceeds its bound. This
// is the repeatability check the driver makes over ten seeds per workload;
// the target when tuning is a third of the bound.
func spreadFile(w io.Writer, path string) (bool, error) {
	runs, err := readReports(path)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-20s %-12s %12s %12s %12s %8s %6s %5s  %s\n",
		"workload", "metric", "q1", "median", "q3", "spread", "bound", "runs", "verdict")
	anyWide := false
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xs := metricValues(runs[wl], d.Name)
			if len(xs) < 2 {
				continue
			}
			q1, q3 := quartiles(xs)
			sp := spread(xs)
			verdict := "steady"
			switch {
			case sp > d.Bound:
				verdict, anyWide = "TOO WIDE", true
			case sp > d.Bound/3:
				verdict = "within bound, above a third of it"
			}
			fmt.Fprintf(w, "%-20s %-12s %12.5g %12.5g %12.5g %7.1f%% %5.0f%% %5d  %s\n",
				wl, d.Name, q1, median(xs), q3, 100*sp, 100*d.Bound, len(xs), verdict)
		}
	}
	return anyWide, nil
}
