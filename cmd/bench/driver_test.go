package main

import (
	"os"
	"testing"
	"time"

	"hyfd/internal/harness"
)

func TestReadRSSSelf(t *testing.T) {
	rss, ok := readRSS(os.Getpid())
	if !ok {
		t.Skip("/proc not available")
	}
	if rss == 0 {
		t.Fatal("self RSS reported as 0")
	}
}

func TestReadRSSMissingPid(t *testing.T) {
	if _, ok := readRSS(1 << 30); ok {
		t.Fatal("nonexistent pid reported RSS")
	}
}

func TestDriverSkipPropagation(t *testing.T) {
	d := &driver{inProc: true, timeout: time.Second}
	d.skip = map[string]string{"iris|Tane|th0|n0": "TL", "iris|Fdep|th0|n0": "ML"}
	tl := d.runOne(harness.Spec{Algorithm: "Tane", Dataset: "iris", Rows: 150})
	if !tl.TimedOut {
		t.Fatalf("skip TL not propagated: %+v", tl)
	}
	ml := d.runOne(harness.Spec{Algorithm: "Fdep", Dataset: "iris", Rows: 150})
	if !ml.MemExceeded {
		t.Fatalf("skip ML not propagated: %+v", ml)
	}
	// A limit on a full-cover job says nothing about the cheaper top-k or
	// incremental job of the same pair: both still run.
	d.timeout = time.Nanosecond
	full := d.runOne(harness.Spec{Algorithm: harness.HyFDName, Dataset: "abalone", Threads: 1})
	if !full.TimedOut {
		t.Fatalf("1ns full-cover job did not time out: %+v", full)
	}
	d.timeout = time.Minute
	for _, job := range []harness.Spec{
		{Algorithm: harness.HyFDName, Dataset: "abalone", Threads: 1, TopK: 10},
		{Algorithm: harness.HyFDName, Dataset: "abalone", Threads: 1, DeltaRows: 20, Incremental: true},
	} {
		if r := d.runOne(job); r.TimedOut || r.Err != "" || r.FDs == 0 {
			t.Fatalf("job %+v skipped after the full-cover TL: %+v", job, r)
		}
	}
	// A fresh experiment resets the table.
	old := os.Stderr
	null, _ := os.Open(os.DevNull)
	os.Stderr = null
	results := d.runAll([]harness.Spec{{Algorithm: "Tane", Dataset: "iris", Rows: 150}})
	os.Stderr = old
	if results[0].TimedOut || results[0].Err != "" {
		t.Fatalf("stale skip entry leaked across experiments: %+v", results[0])
	}
}

func TestDriverInProcessRun(t *testing.T) {
	d := &driver{inProc: true, timeout: time.Minute}
	old := os.Stderr
	null, _ := os.Open(os.DevNull)
	os.Stderr = null
	results := d.runAll([]harness.Spec{{Algorithm: harness.HyFDName, Dataset: "iris", Rows: 150}})
	os.Stderr = old
	if len(results) != 1 || results[0].Err != "" {
		t.Fatalf("results = %+v", results)
	}
	// A successful run must not poison the skip table.
	if len(d.skip) != 0 {
		t.Fatalf("skip table = %v", d.skip)
	}
}
