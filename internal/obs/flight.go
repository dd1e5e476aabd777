package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// FaultRecord is the portable description of one armed fault plan —
// everything the replay localizer needs to re-inject it. Model and
// Flow are the vm package's string names; Mask and the 64-bit payload
// fields are 0x-hex so JSON tooling never rounds them.
type FaultRecord struct {
	Model       string `json:"model"`
	Flow        string `json:"flow,omitempty"`
	TargetIndex uint64 `json:"target_index"`
	Mask        string `json:"mask,omitempty"`
	// Injected and Where record whether the plan actually fired during
	// the observed run and at which static site ("func/block op").
	Injected bool   `json:"injected"`
	Where    string `json:"where,omitempty"`
}

// FlightBundle is one forensic dossier: everything captured around a
// detected-corruption event, sufficient to deterministically re-execute
// the offending batch with stepwise dispatch. Producers fill the
// fields they know; consumers tolerate absent optionals.
type FlightBundle struct {
	Version int    `json:"version"`
	Node    string `json:"node"`
	Seq     uint64 `json:"seq"`
	// Kind classifies the trigger: "ilr-detected", "tmr-corrected",
	// "verify-reject", "sdc-audit", "vote-mask", "crashed", "hung".
	Kind  string `json:"kind"`
	Cause string `json:"cause,omitempty"`
	// Trace is the primary trace id (hex); Traces lists one id per
	// batched request, parallel to Requests.
	Trace      string   `json:"trace,omitempty"`
	Traces     []string `json:"traces,omitempty"`
	RequestIDs []uint64 `json:"request_ids,omitempty"`
	// Requests holds the packed KV request words (hex), Replies the
	// delivered (or rejected) reply words, Expected the host
	// reference's answers when an audit computed them.
	Requests []string `json:"requests,omitempty"`
	Replies  []string `json:"replies,omitempty"`
	Expected []string `json:"expected,omitempty"`
	Status   string   `json:"status,omitempty"`
	// Program identity + machine configuration for replay.
	ProgramHash  string          `json:"program_hash,omitempty"`
	Mode         string          `json:"mode,omitempty"`
	OptLevel     string          `json:"opt_level,omitempty"`
	HardenFlags  map[string]bool `json:"harden_flags,omitempty"`
	TxThreshold  int64           `json:"tx_threshold,omitempty"`
	HTMSeed      int64           `json:"htm_seed,omitempty"`
	MaxDynInstrs uint64          `json:"max_dyn_instrs,omitempty"`
	Records      int             `json:"records,omitempty"`
	ValueWork    int             `json:"value_work,omitempty"`
	MaxBatch     int             `json:"max_batch,omitempty"`
	// Cluster-side context for vote-mask bundles.
	Shard    int    `json:"shard,omitempty"`
	Majority string `json:"majority,omitempty"`
	Masked   string `json:"masked,omitempty"`
	// Faults are the armed plans (the seed/site of the injection).
	Faults []FaultRecord `json:"faults,omitempty"`
	// Window is the obs-ring neighborhood around the event.
	Window []EventRecord `json:"window,omitempty"`
}

// Encode renders the bundle as deterministic indented JSON.
func (b *FlightBundle) Encode() []byte {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		panic("obs: flight bundle encode: " + err.Error())
	}
	return append(data, '\n')
}

// DecodeFlightBundle parses a bundle produced by Encode. An empty
// list or map decodes as absent, the way Encode writes it, so a
// decoded bundle survives Encode and decode unchanged.
func DecodeFlightBundle(data []byte) (*FlightBundle, error) {
	var b FlightBundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, err
	}
	b.Traces = nilIfEmpty(b.Traces)
	b.RequestIDs = nilIfEmpty(b.RequestIDs)
	b.Requests = nilIfEmpty(b.Requests)
	b.Replies = nilIfEmpty(b.Replies)
	b.Expected = nilIfEmpty(b.Expected)
	b.Faults = nilIfEmpty(b.Faults)
	b.Window = nilIfEmpty(b.Window)
	if len(b.HardenFlags) == 0 {
		b.HardenFlags = nil
	}
	return &b, nil
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// LoadFlightBundle reads and parses a bundle file.
func LoadFlightBundle(path string) (*FlightBundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b, err := DecodeFlightBundle(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// HexWord formats a 64-bit payload the way bundles encode them.
func HexWord(v uint64) string { return "0x" + fmt.Sprintf("%x", v) }

// FlightRecorder collects flight bundles at detection sites: bounded
// in memory (oldest dropped first) and, when a directory is
// configured, each bundle is also written as one deterministic JSON
// file. All methods are nil-safe so instrumented code pays a single
// nil check when forensics are off.
type FlightRecorder struct {
	mu      sync.Mutex
	node    string
	dir     string
	max     int
	seq     uint64
	bundles []*FlightBundle
	lastErr error
}

// NewFlightRecorder returns a recorder for the named node keeping at
// most max bundles in memory (default 64). dir may be empty for
// memory-only recording.
func NewFlightRecorder(node, dir string, max int) *FlightRecorder {
	if max <= 0 {
		max = 64
	}
	return &FlightRecorder{node: node, dir: dir, max: max}
}

// Record stamps the bundle's identity (node, per-recorder sequence,
// version) and retains it. Never fails the caller: file-write errors
// are kept for Err.
func (r *FlightRecorder) Record(b *FlightBundle) {
	if r == nil || b == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b.Version = 1
	b.Node = r.node
	b.Seq = r.seq
	r.seq++
	r.bundles = append(r.bundles, b)
	if len(r.bundles) > r.max {
		r.bundles = r.bundles[len(r.bundles)-r.max:]
	}
	if r.dir != "" {
		name := fmt.Sprintf("%s-flight-%04d-%s.json", sanitizeFileName(r.node), b.Seq, sanitizeFileName(b.Kind))
		if err := os.WriteFile(filepath.Join(r.dir, name), b.Encode(), 0o644); err != nil {
			r.lastErr = err
		}
	}
}

// Bundles returns a copy of the retained bundles, oldest first.
func (r *FlightRecorder) Bundles() []*FlightBundle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*FlightBundle(nil), r.bundles...)
}

// Count returns how many bundles have ever been recorded (retained or
// not).
func (r *FlightRecorder) Count() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Err returns the most recent file-write failure, if any.
func (r *FlightRecorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

func sanitizeFileName(s string) string {
	if s == "" {
		return "unknown"
	}
	return strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			return c
		}
		return '_'
	}, s)
}
