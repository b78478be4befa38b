package main

// The performance ledger: one dated JSON row per full run, appended to a
// file, and the comparison of two such files against the metrics' bounds.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// ledgerRow is one run of the benchmark: where, when, and every end-to-end
// metric of every workload it ran. Spreads holds the in-run interquartile
// spread of the metrics that are medians of samples.
type ledgerRow struct {
	Date string `json:"date"`
	hostInfoT
	Seed      uint64                        `json:"seed"`
	Workloads map[string]map[string]float64 `json:"workloads"`
	Spreads   map[string]map[string]float64 `json:"spreads"`
}

func newRow(h hostInfoT, seed uint64) *ledgerRow {
	return &ledgerRow{Date: time.Now().UTC().Format(time.RFC3339), hostInfoT: h, Seed: seed,
		Workloads: map[string]map[string]float64{}, Spreads: map[string]map[string]float64{}}
}

func (r *ledgerRow) add(res result) {
	r.Workloads[res.name] = res.e2e
	r.Spreads[res.name] = res.spreads
}

func (r *ledgerRow) appendTo(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readLedger(path string) ([]ledgerRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []ledgerRow
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r ledgerRow
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		rows = append(rows, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: no rows", path)
	}
	return rows, nil
}

// side is one file's view of one metric on one workload: the median over
// its rows and their interquartile spread (0 for a single row, whose
// run-to-run spread is unknown).
func side(rows []ledgerRow, workload, metric string) (med, spr float64, ok bool) {
	var vals []float64
	for _, r := range rows {
		if v, has := r.Workloads[workload][metric]; has {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0, 0, false
	}
	return median(vals), spread(vals), true
}

// compareLedgers prints, for every workload and end-to-end metric both
// files have, how much worse the second file is than the first against the
// metric's bound. A metric whose spread between rows exceeds its bound is
// unresolved rather than unchanged; give each file several rows (one per
// run) for that to be known. It returns 1 when any metric is outside its
// bound.
func compareLedgers(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readLedger(pathA)
	if err == nil {
		var b []ledgerRow
		if b, err = readLedger(pathB); err == nil {
			return compareRows(a, b, stdout)
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}

func compareRows(a, b []ledgerRow, stdout io.Writer) int {
	status := 0
	fmt.Fprintf(stdout, "%-18s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "first", "second", "worse", "bound", "verdict")
	for _, w := range workloads {
		for _, s := range concat(endToEnd, exact) {
			va, sa, okA := side(a, w.name, s.name)
			vb, sb, okB := side(b, w.name, s.name)
			if !okA || !okB {
				continue
			}
			// worse is the share of the first median by which the second is
			// worse, in the metric's own direction.
			worse := 0.0
			if va != 0 {
				worse = (vb - va) / math.Abs(va)
			} else if vb != 0 {
				worse = 1
			}
			if s.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > s.bound && math.Max(sa, sb) > s.bound:
				verdict = "unresolved: spread exceeds the bound"
			case worse > s.bound:
				verdict = "REGRESSED"
				status = 1
			case math.Max(sa, sb) > s.bound && s.bound > 0:
				verdict = "unresolved: spread exceeds the bound"
			}
			fmt.Fprintf(stdout, "%-18s %-22s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				w.name, s.name, va, vb, 100*worse, 100*s.bound, verdict)
		}
	}
	return status
}
