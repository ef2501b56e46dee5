package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"hyfd/internal/datasets"
)

// Options tunes the experiment suite to the available hardware budget.
// The paper's full dimensions (a million rows, days of runtime) are
// reachable by raising these; the defaults regenerate every table and
// figure in minutes on a laptop.
type Options struct {
	// Fig6MaxRows caps the row-scalability sweep (paper: 1 024 000).
	Fig6MaxRows int
	// Fig7MaxCols caps the column-scalability sweep (paper: 60+).
	Fig7MaxCols int
	// Table1Rows caps each Table 1 dataset's rows (paper: full size).
	Table1Rows int
	// Table2Rows caps each Table 2 dataset's rows (paper: up to 45 M).
	Table2Rows int
	// Table3Rows caps each Table 3 dataset's rows.
	Table3Rows int
	// Fig8Rows is the ncvoter-statewide sample size (paper: 10 000).
	Fig8Rows int
	// Threads is the worker count of the multi-threaded HyFD variant.
	Threads int
}

// DefaultOptions returns a laptop-scale configuration.
func DefaultOptions() Options {
	return Options{
		Fig6MaxRows: 64000,
		Fig7MaxCols: 60,
		Table1Rows:  2000,
		Table2Rows:  2000,
		Table3Rows:  1000,
		Fig8Rows:    3000,
		Threads:     8,
	}
}

// Experiment bundles the jobs of one paper table/figure with its renderer.
type Experiment struct {
	ID    string
	Title string
	Jobs  []Spec
	// Render writes the table/series from the collected results.
	Render func(w io.Writer, results []Result)
	// Derive, when non-nil, condenses the results into named scalar
	// metrics that the artifact records under "derived" — the fields
	// regression tooling compares across commits without re-deriving them
	// from raw results.
	Derive func(results []Result) map[string]float64
}

// Experiments returns the six paper-reproduction experiments plus the
// ranked-discovery and incremental-maintenance probes.
func Experiments(opts Options) []Experiment {
	return []Experiment{
		Fig6(opts), Fig7(opts), Table1(opts), Table2(opts), Table3(opts), Fig8(opts), Ranked(opts), Incremental(opts),
	}
}

// ByID returns one experiment by its id (fig6, fig7, table1, table2,
// table3, fig8, ranked, incremental).
func ByID(id string, opts Options) (Experiment, error) {
	for _, e := range Experiments(opts) {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

// Fig6 — row scalability on ncvoter (19 cols) and uniprot (30 cols): all
// eight algorithms, rows quadrupling from 1 000.
func Fig6(opts Options) Experiment {
	var jobs []Spec
	for _, ds := range []struct {
		name string
		cols int
	}{{"ncvoter", 19}, {"uniprot", 30}} {
		for rows := 1000; rows <= opts.Fig6MaxRows; rows *= 4 {
			for _, alg := range AlgorithmNames {
				jobs = append(jobs, Spec{Algorithm: alg, Dataset: ds.name, Rows: rows, Cols: ds.cols})
			}
		}
	}
	return Experiment{
		ID:    "fig6",
		Title: "Figure 6: row scalability on ncvoter and uniprot (runtime [s] and FD count per row count)",
		Jobs:  jobs,
		Render: func(w io.Writer, results []Result) {
			renderSweep(w, results, "rows", func(s Spec) int { return s.Rows })
		},
	}
}

// Fig7 — column scalability on uniprot and plista at 1 000 rows.
func Fig7(opts Options) Experiment {
	var jobs []Spec
	for _, ds := range []struct {
		name    string
		maxCols int
	}{{"uniprot", min(opts.Fig7MaxCols, 223)}, {"plista", min(opts.Fig7MaxCols, 63)}} {
		for cols := 10; cols <= ds.maxCols; cols += 10 {
			for _, alg := range AlgorithmNames {
				jobs = append(jobs, Spec{Algorithm: alg, Dataset: ds.name, Rows: 1000, Cols: cols})
			}
		}
	}
	return Experiment{
		ID:    "fig7",
		Title: "Figure 7: column scalability on uniprot and plista, 1000 rows (runtime [s] and FD count per column count)",
		Jobs:  jobs,
		Render: func(w io.Writer, results []Result) {
			renderSweep(w, results, "cols", func(s Spec) int { return s.Cols })
		},
	}
}

// table1Datasets lists the Table 1 datasets in paper order.
var table1Datasets = []string{
	"iris", "balance-scale", "chess", "abalone", "nursery", "breast-cancer",
	"bridges", "echocardiogram", "adult", "letter", "ncvoter", "hepatitis",
	"horse", "fd-reduced-30", "plista", "flight", "uniprot",
}

// Table1 — runtimes of all eight algorithms on the 17 datasets.
func Table1(opts Options) Experiment {
	var jobs []Spec
	for _, name := range table1Datasets {
		// Cap at the dataset's natural size: the paper's Table 1 runs each
		// dataset as-is; the row option only shrinks the big ones.
		rows := opts.Table1Rows
		if d, err := datasets.ByName(name); err == nil && d.Rows < rows {
			rows = d.Rows
		}
		for _, alg := range AlgorithmNames {
			spec := Spec{Algorithm: alg, Dataset: name, Rows: rows}
			// The paper bounds uniprot's result to LHS size 4 via the
			// Guardian — the complete set (> 100 M FDs) is unstorable.
			if name == "uniprot" && alg == HyFDName {
				spec.MaxLhs = 4
			}
			jobs = append(jobs, spec)
		}
	}
	return Experiment{
		ID:    "table1",
		Title: fmt.Sprintf("Table 1: runtimes [s] on 17 datasets (rows capped at %d)", opts.Table1Rows),
		Jobs:  jobs,
		Render: func(w io.Writer, results []Result) {
			renderDatasetTable(w, results, table1Datasets, AlgorithmNames)
		},
	}
}

// table2Datasets lists the Table 2 datasets in paper order.
var table2Datasets = []string{
	"TPC-H.lineitem", "PDB.POLY_SEQ", "PDB.ATOM_SITE", "SAP_R3.ZBC00DT",
	"SAP_R3.ILOA", "SAP_R3.CE4HI01", "NCVoter.statewide", "CD.cd",
}

// Table2 — HyFD single- vs multi-threaded on the large datasets.
func Table2(opts Options) Experiment {
	var jobs []Spec
	for _, name := range table2Datasets {
		jobs = append(jobs,
			Spec{Algorithm: HyFDName, Dataset: name, Rows: opts.Table2Rows, Threads: 1},
			Spec{Algorithm: HyFDName, Dataset: name, Rows: opts.Table2Rows, Threads: opts.Threads},
		)
	}
	return Experiment{
		ID: "table2",
		Title: fmt.Sprintf("Table 2: HyFD single- vs multi-threaded (%d workers) on large datasets (rows capped at %d)",
			opts.Threads, opts.Table2Rows),
		Jobs: jobs,
		Render: func(w io.Writer, results []Result) {
			tw := newTable("Dataset", "FDs", "single [s]", "multi [s]", "speedup")
			for _, name := range table2Datasets {
				var single, multi *Result
				for i := range results {
					r := &results[i]
					if r.Spec.Dataset != name {
						continue
					}
					if r.Spec.Threads <= 1 {
						single = r
					} else {
						multi = r
					}
				}
				if single == nil || multi == nil {
					continue
				}
				speedup := "-"
				if multi.Seconds > 0 && single.Err == "" && multi.Err == "" {
					speedup = fmt.Sprintf("%.2fx", single.Seconds/multi.Seconds)
				}
				tw.row(name, cell(fmt.Sprint(single.FDs), single), timeCell(single), timeCell(multi), speedup)
			}
			tw.write(w)
		},
	}
}

// table3Datasets lists the Table 3 datasets in paper order.
var table3Datasets = []string{"hepatitis", "adult", "letter", "horse", "plista", "flight"}

// table3Algorithms: the paper contrasts the most memory-efficient
// competitors with HyFD.
var table3Algorithms = []string{"Tane", "Dfd", "Fdep", HyFDName}

// Table3 — peak memory per algorithm and dataset.
func Table3(opts Options) Experiment {
	var jobs []Spec
	for _, name := range table3Datasets {
		for _, alg := range table3Algorithms {
			jobs = append(jobs, Spec{Algorithm: alg, Dataset: name, Rows: opts.Table3Rows})
		}
	}
	return Experiment{
		ID:    "table3",
		Title: fmt.Sprintf("Table 3: peak memory [MB] (rows capped at %d)", opts.Table3Rows),
		Jobs:  jobs,
		Render: func(w io.Writer, results []Result) {
			tw := newTable(append([]string{"Dataset"}, table3Algorithms...)...)
			for _, name := range table3Datasets {
				row := []string{name}
				for _, alg := range table3Algorithms {
					r := find(results, name, alg)
					if r == nil {
						row = append(row, "-")
						continue
					}
					row = append(row, cell(fmt.Sprintf("%.1f", float64(r.PeakHeap)/(1<<20)), r))
				}
				tw.row(row...)
			}
			tw.write(w)
		},
	}
}

// fig8Thresholds sweeps HyFD's efficiency parameter (paper: 0.01 %–100 %).
var fig8Thresholds = []float64{0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0}

// Fig8 — runtime and phase-switch count vs the efficiency threshold on the
// ncvoter statewide sample.
func Fig8(opts Options) Experiment {
	var jobs []Spec
	for _, th := range fig8Thresholds {
		jobs = append(jobs, Spec{
			Algorithm: HyFDName, Dataset: "NCVoter.statewide",
			Rows: opts.Fig8Rows, Threshold: th,
		})
	}
	return Experiment{
		ID:    "fig8",
		Title: fmt.Sprintf("Figure 8: efficiency-threshold sweep on NCVoter.statewide (%d rows)", opts.Fig8Rows),
		Jobs:  jobs,
		Render: func(w io.Writer, results []Result) {
			tw := newTable("threshold [%]", "runtime [s]", "switches", "FDs")
			for _, r := range results {
				tw.row(
					fmt.Sprintf("%g", r.Spec.Threshold*100),
					timeCell(&r),
					fmt.Sprint(r.Switches),
					fmt.Sprint(r.FDs),
				)
			}
			tw.write(w)
		},
	}
}

// rankedDatasets are the ranked experiment's subjects: two Table 1
// datasets whose complete covers are large enough (hundreds and dozens of
// FDs) that a top-k cut can terminate well before the full run.
var rankedDatasets = []string{"abalone", "bridges"}

// rankedTopK is the prefix length the ranked experiment requests.
const rankedTopK = 10

// rankedThreads is the multi-threaded variant's worker count; its digest
// must match the single-threaded run byte for byte.
const rankedThreads = 4

// Ranked — top-k discovery vs the complete cover: per dataset, one full
// HyFD run and two ranked TopK runs (single- and multi-threaded). The
// derived metrics record time-to-top-k, its speedup over the full run
// (ranked_speedup_<ds>), and a determinism bit (ranked_deterministic_<ds>:
// 1 when the single- and multi-threaded ranked digests are byte-equal).
func Ranked(opts Options) Experiment {
	var jobs []Spec
	for _, name := range rankedDatasets {
		jobs = append(jobs,
			Spec{Algorithm: HyFDName, Dataset: name, Threads: 1},
			Spec{Algorithm: HyFDName, Dataset: name, Threads: 1, TopK: rankedTopK},
			Spec{Algorithm: HyFDName, Dataset: name, Threads: rankedThreads, TopK: rankedTopK},
		)
	}
	findRanked := func(results []Result, name string, threads, topK int) *Result {
		for i := range results {
			s := results[i].Spec
			if s.Dataset == name && s.Threads == threads && s.TopK == topK && results[i].Err == "" {
				return &results[i]
			}
		}
		return nil
	}
	return Experiment{
		ID: "ranked",
		Title: fmt.Sprintf("Ranked discovery: time-to-top-%d vs complete cover on %s",
			rankedTopK, strings.Join(rankedDatasets, ", ")),
		Jobs: jobs,
		Render: func(w io.Writer, results []Result) {
			tw := newTable("Dataset", "full FDs", "full [s]", "top-k 1t [s]", fmt.Sprintf("top-k %dt [s]", rankedThreads), "speedup", "deterministic")
			for _, name := range rankedDatasets {
				full := findRanked(results, name, 1, 0)
				r1 := findRanked(results, name, 1, rankedTopK)
				rn := findRanked(results, name, rankedThreads, rankedTopK)
				if full == nil || r1 == nil || rn == nil {
					continue
				}
				speedup := "-"
				if r1.Seconds > 0 {
					speedup = fmt.Sprintf("%.2fx", full.Seconds/r1.Seconds)
				}
				det := "no"
				if r1.RankedDigest != "" && r1.RankedDigest == rn.RankedDigest {
					det = "yes"
				}
				tw.row(name, cell(fmt.Sprint(full.FDs), full), timeCell(full), timeCell(r1), timeCell(rn), speedup, det)
			}
			tw.write(w)
		},
		Derive: func(results []Result) map[string]float64 {
			derived := map[string]float64{}
			for _, name := range rankedDatasets {
				full := findRanked(results, name, 1, 0)
				r1 := findRanked(results, name, 1, rankedTopK)
				rn := findRanked(results, name, rankedThreads, rankedTopK)
				if full == nil || r1 == nil || rn == nil {
					continue
				}
				derived["full_seconds_"+name] = full.Seconds
				derived["ranked_seconds_"+name] = r1.Seconds
				derived["ranked_fds_"+name] = float64(r1.FDs)
				if r1.Seconds > 0 {
					derived["ranked_speedup_"+name] = full.Seconds / r1.Seconds
				}
				det := 0.0
				if r1.RankedDigest != "" && r1.RankedDigest == rn.RankedDigest {
					det = 1.0
				}
				derived["ranked_deterministic_"+name] = det
			}
			return derived
		},
	}
}

// incrementalDatasets are the incremental experiment's subjects: two Table 1
// datasets with structure enough that full discovery has real cost to beat.
var incrementalDatasets = []string{"abalone", "ncvoter"}

// incrementalRows is each dataset's materialized size; incrementalDeltaPct
// sizes the held-back update batch as a fraction of it (1 % — the streaming
// regime incremental maintenance targets).
const (
	incrementalRows     = 2000
	incrementalDeltaPct = 0.01
	incrementalThreads  = 4
)

// Incremental — update-batch maintenance vs cold re-discovery: per dataset,
// one cold HyFD run over the full relation (Prepare + discovery, the cost a
// non-incremental pipeline pays per update batch) and two incremental runs
// (single- and multi-threaded) that Apply the last 1 % of rows as an insert
// batch onto a pre-built base snapshot and Maintain its FD cover. Every job
// records the cover digest; the derived exactness bit demands all three are
// byte-identical — the maintained cover IS the cold cover. The derived
// metrics record both costs, the batch-latency speedup
// (incremental_speedup_<ds>), and incremental_exact_<ds>.
func Incremental(opts Options) Experiment {
	deltaRows := int(float64(incrementalRows) * incrementalDeltaPct)
	if deltaRows < 1 {
		deltaRows = 1
	}
	var jobs []Spec
	for _, name := range incrementalDatasets {
		jobs = append(jobs,
			Spec{Algorithm: HyFDName, Dataset: name, Rows: incrementalRows, Threads: 1, Digest: true},
			Spec{Algorithm: HyFDName, Dataset: name, Rows: incrementalRows, Threads: 1, DeltaRows: deltaRows, Incremental: true, Digest: true},
			Spec{Algorithm: HyFDName, Dataset: name, Rows: incrementalRows, Threads: incrementalThreads, DeltaRows: deltaRows, Incremental: true, Digest: true},
		)
	}
	findInc := func(results []Result, name string, threads int, incremental bool) *Result {
		for i := range results {
			s := results[i].Spec
			if s.Dataset == name && s.Threads == threads && s.Incremental == incremental && results[i].Err == "" {
				return &results[i]
			}
		}
		return nil
	}
	exact := func(cold, i1, in *Result) bool {
		return cold.CoverDigest != "" &&
			cold.CoverDigest == i1.CoverDigest && cold.CoverDigest == in.CoverDigest
	}
	return Experiment{
		ID: "incremental",
		Title: fmt.Sprintf("Incremental maintenance: %d-row insert batches (1%%) vs cold re-discovery on %s (%d rows)",
			deltaRows, strings.Join(incrementalDatasets, ", "), incrementalRows),
		Jobs: jobs,
		Render: func(w io.Writer, results []Result) {
			tw := newTable("Dataset", "FDs", "cold [s]", "incr 1t [s]", fmt.Sprintf("incr %dt [s]", incrementalThreads), "speedup", "exact")
			for _, name := range incrementalDatasets {
				cold := findInc(results, name, 1, false)
				i1 := findInc(results, name, 1, true)
				in := findInc(results, name, incrementalThreads, true)
				if cold == nil || i1 == nil || in == nil {
					continue
				}
				speedup := "-"
				if i1.Seconds > 0 {
					speedup = fmt.Sprintf("%.2fx", cold.Seconds/i1.Seconds)
				}
				ex := "no"
				if exact(cold, i1, in) {
					ex = "yes"
				}
				tw.row(name, cell(fmt.Sprint(cold.FDs), cold), timeCell(cold), timeCell(i1), timeCell(in), speedup, ex)
			}
			tw.write(w)
		},
		Derive: func(results []Result) map[string]float64 {
			derived := map[string]float64{}
			for _, name := range incrementalDatasets {
				cold := findInc(results, name, 1, false)
				i1 := findInc(results, name, 1, true)
				in := findInc(results, name, incrementalThreads, true)
				if cold == nil || i1 == nil || in == nil {
					continue
				}
				derived["delta_rows_"+name] = float64(i1.Spec.DeltaRows)
				derived["cold_seconds_"+name] = cold.Seconds
				derived["incremental_seconds_"+name] = i1.Seconds
				derived[fmt.Sprintf("incremental_seconds_%dt_%s", incrementalThreads, name)] = in.Seconds
				if i1.Seconds > 0 {
					derived["incremental_speedup_"+name] = cold.Seconds / i1.Seconds
				}
				ex := 0.0
				if exact(cold, i1, in) {
					ex = 1.0
				}
				derived["incremental_exact_"+name] = ex
			}
			return derived
		},
	}
}

// --- rendering helpers ---

func find(results []Result, dataset, alg string) *Result {
	for i := range results {
		if results[i].Spec.Dataset == dataset && results[i].Spec.Algorithm == alg {
			return &results[i]
		}
	}
	return nil
}

// cell annotates a value with TL/ML/ERR markers, mirroring Table 1's
// notation.
func cell(v string, r *Result) string {
	switch {
	case r.TimedOut:
		return "TL"
	case r.MemExceeded:
		return "ML"
	case r.Err != "":
		return "ERR"
	default:
		return v
	}
}

func timeCell(r *Result) string {
	return cell(fmt.Sprintf("%.2f", r.Seconds), r)
}

// renderSweep renders a figure-style table: one block per dataset, one row
// per x value, one column per algorithm plus the FD count.
func renderSweep(w io.Writer, results []Result, xName string, x func(Spec) int) {
	byDataset := map[string][]Result{}
	var order []string
	for _, r := range results {
		if _, ok := byDataset[r.Spec.Dataset]; !ok {
			order = append(order, r.Spec.Dataset)
		}
		byDataset[r.Spec.Dataset] = append(byDataset[r.Spec.Dataset], r)
	}
	for _, ds := range order {
		fmt.Fprintf(w, "\n[%s]\n", ds)
		rs := byDataset[ds]
		xs := map[int]bool{}
		for _, r := range rs {
			xs[x(r.Spec)] = true
		}
		var xvals []int
		for v := range xs {
			xvals = append(xvals, v)
		}
		sort.Ints(xvals)
		tw := newTable(append([]string{xName}, append(append([]string{}, AlgorithmNames...), "FDs")...)...)
		for _, xv := range xvals {
			row := []string{fmt.Sprint(xv)}
			fds := "-"
			for _, alg := range AlgorithmNames {
				var found *Result
				for i := range rs {
					if rs[i].Spec.Algorithm == alg && x(rs[i].Spec) == xv {
						found = &rs[i]
						break
					}
				}
				if found == nil {
					row = append(row, "-")
					continue
				}
				row = append(row, timeCell(found))
				if found.Err == "" && !found.TimedOut && !found.MemExceeded {
					fds = fmt.Sprint(found.FDs)
				}
			}
			row = append(row, fds)
			tw.row(row...)
		}
		tw.write(w)
	}
}

// renderDatasetTable renders a Table 1 style matrix: datasets × algorithms.
func renderDatasetTable(w io.Writer, results []Result, dsNames, algNames []string) {
	tw := newTable(append([]string{"Dataset", "FDs"}, algNames...)...)
	for _, name := range dsNames {
		row := []string{name}
		fds := "-"
		var cells []string
		for _, alg := range algNames {
			r := find(results, name, alg)
			if r == nil {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, timeCell(r))
			if r.Err == "" && !r.TimedOut && !r.MemExceeded {
				fds = fmt.Sprint(r.FDs)
			}
		}
		row = append(row, fds)
		row = append(row, cells...)
		tw.row(row...)
	}
	tw.write(w)
}

// table accumulates rows and writes them column-aligned.
type table struct {
	headers []string
	rows    [][]string
}

func newTable(headers ...string) *table {
	return &table{headers: headers}
}

func (t *table) row(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}
