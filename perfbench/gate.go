package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
)

// digestBook holds the recorded digests of the correctness gate: for
// the default and the held-out seed, the sha256 of each workload's
// first sweeps' result JSON.
type digestBook struct {
	DefaultSeed int64                        `json:"default_seed"`
	HeldOutSeed int64                        `json:"held_out_seed"`
	Digests     map[string]map[string]string `json:"digests"`
}

//go:embed digests.json
var digestJSON []byte

func loadDigests(data []byte) (digestBook, error) {
	var b digestBook
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("digests.json: %w", err)
	}
	return b, nil
}

// digestOf hashes the results of sweeps 0..n-1, each followed by a
// newline, so both the bytes and the sweep boundaries are pinned.
func digestOf(results map[int][]byte, n int) (string, error) {
	h := sha256.New()
	for k := 0; k < n; k++ {
		out, ok := results[k]
		if !ok {
			return "", fmt.Errorf("digest: sweep %d has no result", k)
		}
		h.Write(out)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// gated reports whether seed is one the book pins (default or held-out).
func (b digestBook) gated(seed int64) bool {
	return seed == b.DefaultSeed || seed == b.HeldOutSeed
}

// check compares a run's digest against the recorded one. Seeds the book
// does not pin pass; a pinned seed without a recorded digest fails.
func (b digestBook) check(workload string, seed int64, got string) error {
	if !b.gated(seed) {
		return nil
	}
	want, ok := b.Digests[workload][strconv.FormatInt(seed, 10)]
	if !ok {
		return fmt.Errorf("no digest recorded for %s at seed %d (got %s)", workload, seed, got)
	}
	if want != got {
		return fmt.Errorf("%s seed %d: result digest %s, recorded %s", workload, seed, got, want)
	}
	return nil
}
