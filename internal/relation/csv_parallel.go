package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"sync"
	"unicode/utf8"
)

// The chunked CSV reader cuts the input string into record-aligned chunks
// and parses them concurrently, preserving exact row order and null
// semantics. Its determinism contract: for every input, ReadCSV with any
// thread count returns the same relation — or the same error — as the
// sequential reference parser.
//
// Chunk boundaries are placed only at newlines with an even number of
// preceding quote characters. For any input the sequential parser accepts,
// quotes exclusively delimit quoted fields (doubled inside them), so even
// quote parity is exactly "outside a quoted field" and every chunk is a
// whole number of CSV records; per-record parsing is context-free beyond
// that, so the concatenation of the chunk parses equals the sequential
// parse. For inputs the sequential parser rejects, either the offending
// record lands intact in some chunk (and fails there the same way) or a
// record straddles a chunk boundary inside an unclosed quote (and the
// truncated chunk fails at EOF) — any chunk error triggers a sequential
// re-parse of the whole input string, so the caller always sees the
// sequential parser's canonical error.
//
// A plain chunk — no quote, no carriage return, a single-byte separator —
// skips encoding/csv. Without quotes encoding/csv reads every non-empty
// line as one record and splits it at every separator byte: it skips blank
// lines, takes a last line that lacks its newline as a record, and without
// carriage returns normalizes no line ending. Splitting the lines with
// IndexByte therefore gives byte-identical cells, and a plain chunk cannot
// fail to parse. Its cells are substrings of the input, so they cost no
// copy but keep the whole input string alive as long as any cell is.

// csvChunkSize is the target byte length of one parse chunk: large enough
// to amortize per-chunk reader setup, small enough to spread wide inputs
// over all workers.
const csvChunkSize = 1 << 18

// csvChunk is one record-aligned piece of the input.
type csvChunk struct {
	text   string
	quoted bool // text holds a '"'
}

// parsedChunk is one chunk's records, or the error that stopped its parse.
type parsedChunk struct {
	rows [][]string
	err  error
}

// readCSVChunks parses record-aligned chunks of about chunkSize bytes of
// the input on up to threads workers (threads <= 1 parses them on the
// caller's goroutine) and stitches the rows back in input order.
func readCSVChunks(name, input string, opts CSVOptions, threads, chunkSize int) (*Relation, error) {
	chunks := splitCSVChunks(input, chunkSize)
	results := make([]parsedChunk, len(chunks))
	parse := func(i int) {
		rows, err := parseChunk(chunks[i], opts)
		results[i] = parsedChunk{rows: rows, err: err}
	}
	if threads > len(chunks) {
		threads = len(chunks)
	}
	if threads <= 1 {
		for i := range chunks {
			parse(i)
		}
	} else {
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					parse(i)
				}
			}()
		}
		for i := range chunks {
			work <- i
		}
		close(work)
		wg.Wait()
	}

	records := 0
	for _, p := range results {
		if p.err != nil {
			// Some chunk failed to parse. Re-run the sequential parser over
			// the input so the caller sees its canonical error (and error
			// precedence) rather than a chunk-local line number.
			return readCSVSequential(name, strings.NewReader(input), opts)
		}
		records += len(p.rows)
	}

	rel := &Relation{Name: name}
	first := true
	for _, p := range results {
		for j, rec := range p.rows {
			switch {
			case first && opts.HasHeader:
				// Clone the names: a kept schema then pins only itself,
				// not the input string its cells are cut from.
				first = false
				rel.Columns = make([]string, len(rec))
				for i, cell := range rec {
					rel.Columns[i] = strings.Clone(cell)
				}
				continue
			case first:
				first = false
				rel.Columns = make([]string, len(rec))
				for i := range rec {
					rel.Columns[i] = fmt.Sprintf("col%d", i)
				}
			case j == 0 && opts.HasHeader:
				// Every chunk left its first record raw in case it held
				// the header; this one does not.
				for i, cell := range rec {
					rec[i] = mapNull(cell, opts)
				}
			}
			if len(rec) != len(rel.Columns) {
				return nil, fmt.Errorf("relation %q: row %d has %d fields, expected %d",
					name, len(rel.Rows)+1, len(rec), len(rel.Columns))
			}
			if rel.Rows == nil {
				// Allocated at the first data row: without one, Rows stays
				// nil, as the sequential reader leaves it.
				rel.Rows = make([][]string, 0, records)
			}
			rel.Rows = append(rel.Rows, rec)
		}
	}
	if rel.Columns == nil {
		return nil, fmt.Errorf("relation %q: empty input", name)
	}
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	return rel, nil
}

// splitCSVChunks cuts the input into chunks of whole CSV records: a chunk
// ends at the first newline that makes it at least chunkSize bytes long
// and has an even quote count before it, i.e. lies outside any quoted
// field. The chunks are substrings of the input.
func splitCSVChunks(input string, chunkSize int) []csvChunk {
	chunks := make([]csvChunk, 0, len(input)/chunkSize+1)
	for start := 0; start < len(input); {
		end, quotes, counted := len(input), 0, start
		for pos := start + chunkSize - 1; pos < len(input); {
			nl := strings.IndexByte(input[pos:], '\n')
			if nl < 0 {
				break
			}
			pos += nl + 1
			quotes += strings.Count(input[counted:pos], `"`)
			counted = pos
			if quotes%2 == 0 {
				end = pos
				break
			}
		}
		quotes += strings.Count(input[counted:end], `"`)
		chunks = append(chunks, csvChunk{text: input[start:end], quoted: quotes > 0})
		start = end
	}
	return chunks
}

// parseChunk parses one chunk's records. It applies the null mapping to
// every record except, under HasHeader, the chunk's first: that one may be
// the header, whose cells stay raw, and the stitch maps it otherwise.
func parseChunk(c csvChunk, opts CSVOptions) ([][]string, error) {
	comma := opts.Comma
	if comma == 0 {
		comma = ','
	}
	if comma < utf8.RuneSelf && !c.quoted && strings.IndexByte(c.text, '\r') < 0 {
		return parsePlainChunk(c.text, byte(comma), opts), nil
	}
	return parseCSVChunk(c.text, opts)
}

// parsePlainChunk splits a chunk with no quote and no carriage return at
// every newline and every separator byte, skipping blank lines. The rows
// are cut from one arena as arena[s:e:e]: the capped capacity keeps an
// append to one row from overwriting the next. A line holds one cell more
// than it has separators, so the newline and separator counts bound the
// arena, which never grows, whatever the widths of the lines.
func parsePlainChunk(text string, sep byte, opts CSVOptions) [][]string {
	lines := strings.Count(text, "\n")
	if text[len(text)-1] != '\n' {
		lines++
	}
	arena := make([]string, 0, strings.Count(text, string(rune(sep)))+lines)
	rows := make([][]string, 0, lines)
	for rest := text; rest != ""; {
		line := rest
		rest = ""
		if nl := strings.IndexByte(line, '\n'); nl >= 0 {
			line, rest = line[:nl], line[nl+1:]
		}
		if line == "" {
			continue
		}
		raw := opts.HasHeader && len(rows) == 0
		s := len(arena)
		for {
			i := strings.IndexByte(line, sep)
			cell := line
			if i >= 0 {
				cell = line[:i]
			}
			if !raw {
				cell = mapNull(cell, opts)
			}
			arena = append(arena, cell)
			if i < 0 {
				break
			}
			line = line[i+1:]
		}
		e := len(arena)
		rows = append(rows, arena[s:e:e])
	}
	return rows
}

// parseCSVChunk parses one chunk's records with encoding/csv, the only
// parser of quoted fields, mapping nulls as parseChunk describes.
func parseCSVChunk(text string, opts CSVOptions) ([][]string, error) {
	cr := csv.NewReader(strings.NewReader(text))
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = false
	var rows [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, err
		}
		if !opts.HasHeader || len(rows) > 0 {
			for i, cell := range rec {
				rec[i] = mapNull(cell, opts)
			}
		}
		rows = append(rows, rec)
	}
}
