package server

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"hyfd"
	"hyfd/internal/datasets"
)

// DatasetRequest is the JSON body of POST /v1/datasets. Exactly one of the
// three sources — Path, CSV, Generate — must be set.
type DatasetRequest struct {
	// Name registers the dataset under this key; jobs reference it.
	Name string `json:"name"`
	// Path reads a CSV file from the server's filesystem. When the server
	// was configured with a data directory, the path resolves relative to
	// it and must not escape it.
	Path string `json:"path,omitempty"`
	// CSV supplies the relation inline as CSV text.
	CSV string `json:"csv,omitempty"`
	// Generate materializes one of the synthetic evaluation datasets.
	Generate *GenerateSpec `json:"generate,omitempty"`

	// Sep is the CSV field separator (default ",").
	Sep string `json:"sep,omitempty"`
	// NoHeader treats the first CSV record as data, not column names.
	NoHeader bool `json:"no_header,omitempty"`
	// NullLiteral is an additional token parsed as NULL (empty fields
	// always are).
	NullLiteral string `json:"null_literal,omitempty"`
	// NullNeq selects ⊥≠⊥ semantics instead of the default ⊥=⊥. The choice
	// is baked into the prepared PLIs; every job over this dataset uses it.
	NullNeq bool `json:"null_neq,omitempty"`
	// Threads is the preprocessing worker count (0 = all CPUs).
	Threads int `json:"threads,omitempty"`
}

// GenerateSpec names a synthetic dataset from the evaluation catalog, with
// optional row/column caps — the dataset-size knob of the load harness.
type GenerateSpec struct {
	Dataset string `json:"dataset"`
	Rows    int    `json:"rows,omitempty"`
	Cols    int    `json:"cols,omitempty"`
}

// DatasetInfo is the public record of one registered dataset.
type DatasetInfo struct {
	Name string `json:"name"`
	// Version is the snapshot version jobs over this registration are pinned
	// to; every accepted delta advances it by one.
	Version       int    `json:"version"`
	Rows          int    `json:"rows"`
	Cols          int    `json:"cols"`
	NullSemantics string `json:"null_semantics"`
	Threads       int    `json:"threads"`
	// PrepareNs is the one-off preprocessing cost paid at registration;
	// every job over the dataset skips it.
	PrepareNs int64 `json:"prepare_ns"`
	// Source describes where the relation came from (path:..., inline CSV,
	// or generate:...).
	Source        string `json:"source"`
	CreatedUnixMs int64  `json:"created_unix_ms"`
}

// dsEntry is one registered dataset: the current immutable snapshot plus its
// metadata. Deltas swap ds for the next snapshot in the chain under the
// registry lock; jobs keep the pointer they resolved at admission, so they
// stay pinned to the version current when they were submitted.
type dsEntry struct {
	ds   *hyfd.Dataset
	info DatasetInfo
	// applying claims the entry for one in-flight delta: a second delta
	// arriving mid-apply is rejected with ErrDeltaConflict instead of racing
	// over the same base snapshot (claim-then-apply, like register).
	applying bool
}

// dsRegistry maps names to prepared datasets. Registration prepares exactly
// once: the name is claimed (under the lock) before the preparation runs,
// so a concurrent duplicate registration fails fast with ErrDatasetExists
// instead of preparing a second time.
type dsRegistry struct {
	mu      sync.RWMutex
	entries map[string]*dsEntry
}

func newDSRegistry() *dsRegistry {
	return &dsRegistry{entries: make(map[string]*dsEntry)}
}

// register materializes, prepares, and stores one dataset.
func (r *dsRegistry) register(ctx context.Context, req DatasetRequest, dataDir string) (DatasetInfo, error) {
	name := strings.TrimSpace(req.Name)
	if name == "" {
		return DatasetInfo{}, fmt.Errorf("%w: dataset name is required", ErrBadRequest)
	}
	sources := 0
	for _, set := range []bool{req.Path != "", req.CSV != "", req.Generate != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return DatasetInfo{}, fmt.Errorf("%w: exactly one of path, csv, generate must be set", ErrBadRequest)
	}

	// Claim the name before the (potentially slow) preparation so the same
	// dataset is never prepared twice; release the claim on failure.
	r.mu.Lock()
	if _, taken := r.entries[name]; taken {
		r.mu.Unlock()
		return DatasetInfo{}, fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	r.entries[name] = nil // pending claim
	r.mu.Unlock()

	info, entry, err := prepareEntry(ctx, req, name, dataDir)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		delete(r.entries, name)
		return DatasetInfo{}, err
	}
	r.entries[name] = entry
	return info, nil
}

// prepareEntry materializes the relation from the request's source and runs
// the one-off preparation.
func prepareEntry(ctx context.Context, req DatasetRequest, name, dataDir string) (DatasetInfo, *dsEntry, error) {
	rel, source, err := materialize(req, name, dataDir)
	if err != nil {
		return DatasetInfo{}, nil, err
	}
	ns := hyfd.NullEqualsNull
	nsName := "null=null"
	if req.NullNeq {
		ns = hyfd.NullNotEqualsNull
		nsName = "null<>null"
	}
	ds, err := hyfd.Prepare(ctx, rel, hyfd.PrepareOptions{
		NullSemantics: ns,
		Threads:       req.Threads,
	})
	if err != nil {
		return DatasetInfo{}, nil, err
	}
	info := DatasetInfo{
		Name:          name,
		Version:       ds.Version(),
		Rows:          ds.NumRows(),
		Cols:          ds.NumCols(),
		NullSemantics: nsName,
		Threads:       ds.Threads(),
		PrepareNs:     ds.PreprocessingTime().Nanoseconds(),
		Source:        source,
		CreatedUnixMs: time.Now().UnixMilli(),
	}
	return info, &dsEntry{ds: ds, info: info}, nil
}

// materialize resolves the request's source into a relation.
func materialize(req DatasetRequest, name, dataDir string) (*hyfd.Relation, string, error) {
	csvOpts := hyfd.CSVOptions{
		Comma:       ',',
		HasHeader:   !req.NoHeader,
		EmptyIsNull: true,
		NullLiteral: req.NullLiteral,
		Threads:     req.Threads,
	}
	if req.Sep != "" {
		runes := []rune(req.Sep)
		if len(runes) != 1 {
			return nil, "", fmt.Errorf("%w: sep must be a single character", ErrBadRequest)
		}
		csvOpts.Comma = runes[0]
	}
	switch {
	case req.Path != "":
		path := req.Path
		if dataDir != "" {
			path = filepath.Join(dataDir, filepath.Clean("/"+path))
		}
		rel, err := hyfd.ReadCSVFile(path, csvOpts)
		if err != nil {
			return nil, "", fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		rel.Name = name
		return rel, "path:" + req.Path, nil
	case req.CSV != "":
		rel, err := hyfd.ReadCSV(name, strings.NewReader(req.CSV), csvOpts)
		if err != nil {
			return nil, "", fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return rel, "inline csv", nil
	default:
		rel, err := generate(*req.Generate)
		if err != nil {
			return nil, "", err
		}
		rel.Name = name
		return rel, fmt.Sprintf("generate:%s rows=%d cols=%d", req.Generate.Dataset, rel.NumRows(), rel.NumCols()), nil
	}
}

// generate materializes a synthetic catalog dataset with row/column caps —
// the same scaling rules the benchmark harness uses.
func generate(spec GenerateSpec) (*hyfd.Relation, error) {
	d, err := datasets.ByName(spec.Dataset)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	scale := 1.0
	if spec.Rows > 0 {
		scale = float64(spec.Rows) / float64(d.Rows)
	}
	rel := d.Generate(scale)
	if spec.Rows > 0 && rel.NumRows() > spec.Rows {
		rel = rel.Head(spec.Rows)
	}
	if spec.Cols > 0 && spec.Cols < rel.NumCols() {
		rel = rel.Project(spec.Cols)
	}
	return rel, nil
}

// lookup returns the current snapshot and metadata registered under name.
// It returns copies, not the entry: entries are mutable now that deltas swap
// the snapshot in place, and callers read their result outside the lock.
func (r *dsRegistry) lookup(name string) (*hyfd.Dataset, DatasetInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok || e == nil { // nil: registration still preparing
		return nil, DatasetInfo{}, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	return e.ds, e.info, nil
}

// DeltaRequest is the JSON body of POST /v1/datasets/{name}/delta: a batch
// of inserted and deleted rows, each a full record in column order. Deletes
// match by value against the current snapshot; a delete that matches no
// remaining row fails the whole batch.
type DeltaRequest struct {
	Inserts [][]string `json:"inserts,omitempty"`
	Deletes [][]string `json:"deletes,omitempty"`
}

// DeltaResponse reports one accepted delta: the updated registration (new
// version, new row count) plus the apply cost and how much of the index the
// new snapshot structurally shares with its parent.
type DeltaResponse struct {
	Dataset DatasetInfo `json:"dataset"`
	// ApplyNs is the incremental preprocessing cost of this delta — the
	// analogue of PrepareNs for the snapshot chain.
	ApplyNs     int64 `json:"apply_ns"`
	Inserts     int   `json:"inserts"`
	Deletes     int   `json:"deletes"`
	SharedAttrs int   `json:"shared_attrs"`
}

// applyDelta advances the named registration to a new snapshot version. The
// entry is claimed under the lock before the (potentially slow) Apply runs,
// so concurrent deltas against the same dataset serialize as one winner and
// ErrDeltaConflict losers instead of both deriving from the same base and
// silently dropping one batch. Jobs admitted before the swap keep running
// over the snapshot they resolved — versions are immutable.
func (r *dsRegistry) applyDelta(ctx context.Context, name string, req DeltaRequest) (DeltaResponse, error) {
	delta := hyfd.Delta{Inserts: req.Inserts, Deletes: req.Deletes}
	if delta.IsEmpty() {
		return DeltaResponse{}, fmt.Errorf("%w: delta has no inserts and no deletes", ErrBadRequest)
	}

	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok || e == nil {
		r.mu.Unlock()
		return DeltaResponse{}, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	if e.applying {
		r.mu.Unlock()
		return DeltaResponse{}, fmt.Errorf("%w: %q", ErrDeltaConflict, name)
	}
	e.applying = true
	base := e.ds
	r.mu.Unlock()

	next, err := base.Apply(ctx, delta)

	r.mu.Lock()
	defer r.mu.Unlock()
	e.applying = false
	if err != nil {
		if ctx.Err() != nil {
			return DeltaResponse{}, err
		}
		return DeltaResponse{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if r.entries[name] != e {
		// Unregistered while the delta was applying: the new snapshot has no
		// registration to land on.
		return DeltaResponse{}, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	e.ds = next
	e.info.Version = next.Version()
	e.info.Rows = next.NumRows()
	prov := next.Provenance()
	return DeltaResponse{
		Dataset:     e.info,
		ApplyNs:     next.PreprocessingTime().Nanoseconds(),
		Inserts:     prov.Inserts,
		Deletes:     prov.Deletes,
		SharedAttrs: prov.SharedAttrs,
	}, nil
}

// remove deletes the registration. Jobs already holding the Dataset keep
// running: the Dataset is immutable and independently referenced.
func (r *dsRegistry) remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; !ok || e == nil {
		return fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	delete(r.entries, name)
	return nil
}

// list snapshots the registered datasets, sorted by name.
func (r *dsRegistry) list() []DatasetInfo {
	r.mu.RLock()
	infos := make([]DatasetInfo, 0, len(r.entries))
	for _, e := range r.entries {
		if e != nil {
			infos = append(infos, e.info)
		}
	}
	r.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// count returns the number of fully registered datasets.
func (r *dsRegistry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, e := range r.entries {
		if e != nil {
			n++
		}
	}
	return n
}
