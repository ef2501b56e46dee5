package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// CSVOptions controls CSV parsing into a Relation.
type CSVOptions struct {
	// Comma is the field separator; 0 means ','.
	Comma rune
	// HasHeader indicates the first record holds column names. When false,
	// columns are named col0, col1, ....
	HasHeader bool
	// EmptyIsNull maps empty fields to the Null sentinel.
	EmptyIsNull bool
	// NullLiteral, when non-empty, is an additional token mapped to Null
	// (e.g. "NULL", "\\N").
	NullLiteral string
	// Threads is the number of concurrent chunk parsers; 1 parses the
	// chunks on the caller's goroutine, any value <= 0 picks
	// runtime.GOMAXPROCS(0). Every thread count produces a relation
	// identical to the sequential reference parser's — same row order,
	// same null mapping, same error messages — see csv_parallel.go for
	// the determinism argument.
	Threads int
}

// ReadCSV parses a relation from CSV input. The input is read once into
// one string, cut into record-aligned chunks, and the chunks parse
// concurrently on the configured number of threads (the default resolves
// to the number of CPUs); see csv_parallel.go.
func ReadCSV(name string, rd io.Reader, opts CSVOptions) (*Relation, error) {
	return readCSV(name, rd, opts, csvChunkSize)
}

// readCSV is ReadCSV with the chunk size as a parameter, so tests can cut
// small inputs into many chunks.
func readCSV(name string, rd io.Reader, opts CSVOptions, chunkSize int) (*Relation, error) {
	// An invalid separator fails before anything is read, so every thread
	// count and chunk size reports encoding/csv's own error whatever the
	// input (an empty input would otherwise report itself as empty).
	if err := checkComma(opts.Comma); err != nil {
		return nil, fmt.Errorf("relation %q: %w", name, err)
	}
	threads := opts.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	input, err := readInput(rd)
	if err != nil {
		return nil, fmt.Errorf("relation %q: %w", name, err)
	}
	return readCSVChunks(name, input, opts, threads, chunkSize)
}

// readInput reads the whole input into one string. A reader that knows
// how much it holds (bytes.Reader, strings.Reader, bytes.Buffer: Len; a
// regular file: Stat) gets a builder of that size up front, so the builder
// never regrows and recopies what it already holds.
func readInput(rd io.Reader) (string, error) {
	var b strings.Builder
	switch r := rd.(type) {
	case interface{ Len() int }:
		b.Grow(r.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			b.Grow(int(fi.Size()))
		}
	}
	if _, err := io.Copy(&b, rd); err != nil {
		return "", err
	}
	return b.String(), nil
}

// checkComma returns encoding/csv's own error for a separator it rejects,
// by reading an empty input with it: the reader checks its delimiters
// before it reads anything.
func checkComma(comma rune) error {
	cr := csv.NewReader(strings.NewReader(""))
	if comma != 0 {
		cr.Comma = comma
	}
	if _, err := cr.Read(); err != io.EOF {
		return err
	}
	return nil
}

// readCSVSequential is the reference parser: encoding/csv over the whole
// input. The chunked reader returns the same relation, and when any chunk
// fails to parse it re-parses the input here, so the caller sees this
// parser's exact error.
func readCSVSequential(name string, rd io.Reader, opts CSVOptions) (*Relation, error) {
	cr := csv.NewReader(rd)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.FieldsPerRecord = -1 // arity validated below for a better message
	cr.ReuseRecord = false

	rel := &Relation{Name: name}
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation %q: %w", name, err)
		}
		if first {
			first = false
			if opts.HasHeader {
				rel.Columns = append([]string(nil), rec...)
				continue
			}
			rel.Columns = make([]string, len(rec))
			for i := range rec {
				rel.Columns[i] = fmt.Sprintf("col%d", i)
			}
		}
		if len(rec) != len(rel.Columns) {
			return nil, fmt.Errorf("relation %q: row %d has %d fields, expected %d",
				name, len(rel.Rows)+1, len(rec), len(rel.Columns))
		}
		row := make([]string, len(rec))
		for i, cell := range rec {
			row[i] = mapNull(cell, opts)
		}
		rel.Rows = append(rel.Rows, row)
	}
	if rel.Columns == nil {
		return nil, fmt.Errorf("relation %q: empty input", name)
	}
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	return rel, nil
}

// mapNull applies the options' null mapping to one cell.
func mapNull(cell string, opts CSVOptions) string {
	if (opts.EmptyIsNull && cell == "") ||
		(opts.NullLiteral != "" && cell == opts.NullLiteral) {
		return Null
	}
	return cell
}

// ReadCSVFile parses a relation from a CSV file; the relation is named after
// the file's base name without extension.
func ReadCSVFile(path string, opts CSVOptions) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base := filepath.Base(path)
	name := strings.TrimSuffix(base, filepath.Ext(base))
	return ReadCSV(name, f, opts)
}

// WriteCSV serializes the relation, header first. Null cells are written as
// empty fields.
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Columns); err != nil {
		return err
	}
	buf := make([]string, len(r.Columns))
	for _, row := range r.Rows {
		for i, cell := range row {
			if cell == Null {
				buf[i] = ""
			} else {
				buf[i] = cell
			}
		}
		if err := cw.Write(buf); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
