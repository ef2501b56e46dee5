package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildCLI compiles the hyfd binary once per test run.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hyfd-test-bin")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Skipf("cannot build CLI in test environment: %v\n%s", err, out)
	}
	return bin
}

func writeCSV(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	csv := writeCSV(t, "Zip,City\n14482,Potsdam\n14482,Potsdam\n10115,Berlin\n")

	t.Run("default output", func(t *testing.T) {
		out, err := exec.Command(bin, csv).CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(string(out), "[Zip] -> City") {
			t.Fatalf("missing FD in output:\n%s", out)
		}
	})

	t.Run("every algorithm agrees", func(t *testing.T) {
		var first string
		for _, alg := range []string{"HyFD", "Tane", "Fun", "FD_Mine", "Dfd", "Dep-Miner", "FastFDs", "Fdep"} {
			out, err := exec.Command(bin, "-algorithm", alg, csv).Output()
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			if first == "" {
				first = string(out)
			} else if string(out) != first {
				t.Fatalf("%s output differs:\n%s\nvs\n%s", alg, out, first)
			}
		}
	})

	t.Run("json", func(t *testing.T) {
		out, err := exec.Command(bin, "-json", csv).Output()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(out), `"dependant"`) {
			t.Fatalf("not JSON:\n%s", out)
		}
	})

	t.Run("profiling flags", func(t *testing.T) {
		out, err := exec.Command(bin, "-no-fds", "-uccs", "-keys", "-bcnf", "-approx", "0.5", csv).Output()
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"unique column combinations", "candidate keys", "BCNF", "approximate FDs"} {
			if !strings.Contains(string(out), want) {
				t.Fatalf("missing %q section:\n%s", want, out)
			}
		}
	})

	t.Run("stdin and stats", func(t *testing.T) {
		cmd := exec.Command(bin, "-stats", "-")
		cmd.Stdin = strings.NewReader("A,B\n1,2\n1,2\n")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(out), "fds:") {
			t.Fatalf("stats missing:\n%s", out)
		}
	})

	t.Run("progress and stats timings", func(t *testing.T) {
		out, err := exec.Command(bin, "-progress", "-stats", "-no-fds", csv).CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, want := range []string{"ingested", "preprocessed", "sampling round", "done:", "time:", "incl. induction", ", induction ", "cmp/s"} {
			if !strings.Contains(string(out), want) {
				t.Fatalf("missing %q in progress output:\n%s", want, out)
			}
		}
	})

	t.Run("threads flag validated", func(t *testing.T) {
		out, err := exec.Command(bin, "-threads", "-1", csv).CombinedOutput()
		if err == nil {
			t.Fatalf("negative -threads accepted:\n%s", out)
		}
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
			t.Fatalf("negative -threads exit = %v, want code 2", err)
		}
		if !strings.Contains(string(out), "invalid -threads") {
			t.Fatalf("missing -threads diagnostic:\n%s", out)
		}
	})

	t.Run("sep flag validated", func(t *testing.T) {
		for _, sep := range []string{"", "ab"} {
			out, err := exec.Command(bin, "-sep", sep, csv).CombinedOutput()
			var exitErr *exec.ExitError
			if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
				t.Fatalf("-sep %q: exit = %v, want code 2\n%s", sep, err, out)
			}
			if msg := strings.TrimSpace(string(out)); strings.Count(msg, "\n") != 0 || !strings.Contains(msg, "invalid -sep") {
				t.Fatalf("-sep %q: want a one-line -sep diagnostic, got:\n%s", sep, out)
			}
		}
	})

	t.Run("threads counts agree", func(t *testing.T) {
		// 0 (all CPUs), 1 (sequential) and 8 must print the identical FD
		// listing — the CLI face of the engine's determinism contract.
		var first string
		for _, n := range []string{"1", "0", "8"} {
			out, err := exec.Command(bin, "-threads", n, csv).Output()
			if err != nil {
				t.Fatalf("-threads %s: %v", n, err)
			}
			if first == "" {
				first = string(out)
			} else if string(out) != first {
				t.Fatalf("-threads %s output differs:\n%s\nvs\n%s", n, out, first)
			}
		}
	})

	t.Run("stats json", func(t *testing.T) {
		out, err := exec.Command(bin, "-stats-json", "-", "-no-fds", csv).Output()
		if err != nil {
			t.Fatal(err)
		}
		var report struct {
			Dataset   string `json:"dataset"`
			Algorithm string `json:"algorithm"`
			FDs       int    `json:"fds"`
			Stats     struct {
				Rows    int   `json:"rows"`
				TotalNS int64 `json:"total_ns"`
			} `json:"stats"`
			Metrics *struct {
				Counters []struct {
					Name  string `json:"name"`
					Value int64  `json:"value"`
				} `json:"counters"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(out, &report); err != nil {
			t.Fatalf("bad stats JSON: %v\n%s", err, out)
		}
		if report.Algorithm != "HyFD" || report.FDs == 0 || report.Stats.Rows != 3 {
			t.Fatalf("report content wrong: %+v", report)
		}
		if report.Stats.TotalNS <= 0 {
			t.Fatalf("total_ns not populated: %+v", report)
		}
		if report.Metrics == nil || len(report.Metrics.Counters) == 0 {
			t.Fatalf("metrics snapshot missing:\n%s", out)
		}
	})

	t.Run("stats json file for baseline has total time", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "report.json")
		if out, err := exec.Command(bin, "-algorithm", "Fdep", "-stats-json", path, "-no-fds", csv).CombinedOutput(); err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var report struct {
			Stats struct {
				TotalNS int64 `json:"total_ns"`
			} `json:"stats"`
		}
		if err := json.Unmarshal(data, &report); err != nil {
			t.Fatalf("bad stats JSON: %v\n%s", err, data)
		}
		if report.Stats.TotalNS <= 0 {
			t.Fatalf("baseline total_ns not populated:\n%s", data)
		}
	})

	t.Run("metrics server", func(t *testing.T) {
		// A relation big enough that the slow O(n²) Fdep baseline keeps the
		// process alive while we scrape; HyFD itself would finish too fast.
		var b strings.Builder
		b.WriteString("A,B,C\n")
		for i := 0; i < 3000; i++ {
			b.WriteString("1,2,3\n1,2,4\n2,2,4\n")
		}
		big := writeCSV(t, b.String())
		cmd := exec.Command(bin, "-algorithm", "Fdep", "-metrics-addr", "127.0.0.1:0", "-no-fds", big)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			cmd.Process.Kill()
			cmd.Wait()
		}()
		// The CLI announces the bound address before discovery starts.
		line, err := bufio.NewReader(stderr).ReadString('\n')
		if err != nil {
			t.Fatalf("no metrics announcement: %v", err)
		}
		m := regexp.MustCompile(`http://(\S+)/metrics`).FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("cannot parse metrics address from %q", line)
		}
		base := "http://" + m[1]

		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), "hyfd_up 1") {
			t.Fatalf("prometheus exposition missing hyfd_up:\n%s", body)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content type %q", ct)
		}

		resp, err = http.Get(base + "/metrics.json")
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Gauges []struct {
				Name  string  `json:"name"`
				Value float64 `json:"value"`
			} `json:"gauges"`
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("metrics.json not parseable: %v", err)
		}
		found := false
		for _, g := range snap.Gauges {
			if g.Name == "hyfd_up" && g.Value == 1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("hyfd_up gauge missing from JSON: %+v", snap)
		}

		resp, err = http.Get(base + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		cmdline, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(cmdline), "hyfd") {
			t.Fatalf("pprof cmdline unexpected:\n%q", cmdline)
		}
	})

	t.Run("generous timeout succeeds", func(t *testing.T) {
		out, err := exec.Command(bin, "-timeout", "1m", csv).CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(string(out), "[Zip] -> City") {
			t.Fatalf("missing FD in output:\n%s", out)
		}
	})

	t.Run("expired timeout fails with deadline error", func(t *testing.T) {
		// A huge duplicated relation so the O(n²) Fdep run cannot finish
		// before the 1 ms deadline fires at the first checkpoint.
		var b strings.Builder
		b.WriteString("A,B,C\n")
		for i := 0; i < 3000; i++ {
			b.WriteString("1,2,3\n1,2,4\n2,2,4\n")
		}
		big := writeCSV(t, b.String())
		out, err := exec.Command(bin, "-algorithm", "Fdep", "-timeout", "1ms", big).CombinedOutput()
		if err == nil {
			t.Fatalf("expired timeout accepted:\n%s", out)
		}
		if !strings.Contains(string(out), "deadline exceeded") {
			t.Fatalf("missing deadline error:\n%s", out)
		}
	})

	t.Run("bad input fails", func(t *testing.T) {
		if err := exec.Command(bin, filepath.Join(t.TempDir(), "missing.csv")).Run(); err == nil {
			t.Fatal("missing file accepted")
		}
		if err := exec.Command(bin, "-algorithm", "Nope", csv).Run(); err == nil {
			t.Fatal("unknown algorithm accepted")
		}
	})
}

// TestMetricsServerTimeouts pins the -metrics-addr listener's connection
// timeouts: a client that never finishes its headers, or idles on a
// keep-alive connection, is cut off, while bodies and responses stay
// unbounded so /debug/pprof/profile?seconds=30 completes.
func TestMetricsServerTimeouts(t *testing.T) {
	srv := newMetricsServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Errorf("ReadHeaderTimeout = %v, IdleTimeout = %v; want %v, %v",
			srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Errorf("timeouts must be positive: %v, %v", readHeaderTimeout, idleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v; want neither set", srv.ReadTimeout, srv.WriteTimeout)
	}
}
