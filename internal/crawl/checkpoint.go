package crawl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"psigene/internal/httpx"
	"psigene/internal/resilience"
)

// ErrStop is returned by a checkpoint callback to halt the crawl cleanly.
// The crawler stops after the checkpoint it just delivered, so resuming
// from that checkpoint continues exactly where the crawl left off.
var ErrStop = errors.New("crawl: stop requested at checkpoint")

// checkpointVersion guards the on-disk format.
const checkpointVersion = 1

// Checkpoint is the full serializable state of a crawl in progress:
// everything needed to kill the process and resume later with a
// bit-identical final corpus. Samples keep their first-seen order, the
// frontier keeps its BFS order, and the per-host circuit breakers carry
// over, so the resumed crawl is indistinguishable from one that never
// stopped.
type Checkpoint struct {
	// Version is the checkpoint format version.
	Version int `json:"version"`
	// Portal is the crawled base URL; Kind is "html" or "api".
	Portal string `json:"portal"`
	Kind   string `json:"kind"`
	// Frontier is the pending BFS queue (HTML crawls).
	Frontier []string `json:"frontier,omitempty"`
	// Offset is the next API paging offset (API crawls); Done marks an
	// API crawl that reached the final page.
	Offset int  `json:"offset,omitempty"`
	Done   bool `json:"done,omitempty"`
	// Visited are processed page URLs (fetched or quarantined), sorted.
	Visited []string `json:"visited,omitempty"`
	// SeenSamples are raw sample URLs already collected, sorted (the
	// dedup set; Samples keeps the order).
	SeenSamples []string `json:"seen_samples,omitempty"`
	// Samples are the collected attack requests in first-seen order.
	Samples []httpx.Request `json:"samples,omitempty"`
	// CVEs are the CVE identifiers seen so far, sorted.
	CVEs []string `json:"cves,omitempty"`
	// Health carries the crawl's resilience counters so far.
	Health Health `json:"health"`
	// Breakers is the per-host circuit-breaker state.
	Breakers map[string]resilience.BreakerSnapshot `json:"breakers,omitempty"`
}

// Encode writes the checkpoint as JSON.
func (cp *Checkpoint) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(cp)
}

// DecodeCheckpoint reads a JSON checkpoint.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("crawl: decode checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("crawl: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	if cp.Kind != "html" && cp.Kind != "api" {
		return nil, fmt.Errorf("crawl: checkpoint kind %q", cp.Kind)
	}
	return &cp, nil
}

// SaveCheckpoint atomically writes the checkpoint to path (temp file +
// rename), so a kill mid-write never corrupts the previous checkpoint.
func SaveCheckpoint(cp *Checkpoint, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := cp.Encode(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeCheckpoint(f)
}

// crawlState is the live form of a Checkpoint.
type crawlState struct {
	res         *Result
	kind        string
	queue       []string
	offset      int
	done        bool
	seenPages   map[string]bool
	seenSamples map[string]bool
	cves        map[string]bool
	sincePoint  int // pages processed since the last checkpoint
}

func newState(kind, base string) *crawlState {
	st := &crawlState{
		res:         &Result{Portal: base},
		kind:        kind,
		seenPages:   map[string]bool{},
		seenSamples: map[string]bool{},
		cves:        map[string]bool{},
	}
	if kind == "html" {
		st.queue = []string{base + "/"}
	}
	return st
}

// stateFromCheckpoint rebuilds the live crawl state.
func stateFromCheckpoint(cp *Checkpoint) *crawlState {
	st := &crawlState{
		res: &Result{
			Portal:       cp.Portal,
			Samples:      append([]httpx.Request(nil), cp.Samples...),
			PagesFetched: cp.Health.PagesFetched,
			Health:       cp.Health,
		},
		kind:        cp.Kind,
		queue:       append([]string(nil), cp.Frontier...),
		offset:      cp.Offset,
		done:        cp.Done,
		seenPages:   map[string]bool{},
		seenSamples: map[string]bool{},
		cves:        map[string]bool{},
	}
	st.res.Health.Quarantined = append([]string(nil), cp.Health.Quarantined...)
	for _, p := range cp.Visited {
		st.seenPages[p] = true
	}
	for _, s := range cp.SeenSamples {
		st.seenSamples[s] = true
	}
	for _, c := range cp.CVEs {
		st.cves[c] = true
	}
	return st
}

// checkpoint snapshots the crawl state. Map-backed sets are emitted
// sorted, so identical states encode to identical bytes.
func (c *Crawler) checkpoint(st *crawlState) *Checkpoint {
	cp := &Checkpoint{
		Version:     checkpointVersion,
		Portal:      st.res.Portal,
		Kind:        st.kind,
		Frontier:    append([]string(nil), st.queue...),
		Offset:      st.offset,
		Done:        st.done,
		Visited:     sortedKeys(st.seenPages),
		SeenSamples: sortedKeys(st.seenSamples),
		Samples:     append([]httpx.Request(nil), st.res.Samples...),
		CVEs:        sortedKeys(st.cves),
		Health:      st.res.Health,
	}
	cp.Health.Quarantined = append([]string(nil), st.res.Health.Quarantined...)
	if len(c.breakers) > 0 {
		cp.Breakers = make(map[string]resilience.BreakerSnapshot, len(c.breakers))
		hosts := make([]string, 0, len(c.breakers))
		for h := range c.breakers {
			hosts = append(hosts, h)
		}
		sort.Strings(hosts)
		for _, h := range hosts {
			cp.Breakers[h] = c.breakers[h].Snapshot()
		}
	}
	return cp
}

// restoreBreakers installs checkpointed breaker state into the crawler.
func (c *Crawler) restoreBreakers(snaps map[string]resilience.BreakerSnapshot) {
	for host, s := range snaps {
		c.breakerFor(host).Restore(s)
	}
}

// tick runs the page-count checkpoint trigger; a callback returning
// ErrStop (or any other error) aborts the crawl loop.
func (c *Crawler) tick(st *crawlState) error {
	st.sincePoint++
	if c.opts.CheckpointEvery <= 0 || c.opts.Checkpoint == nil ||
		st.sincePoint < c.opts.CheckpointEvery {
		return nil
	}
	st.sincePoint = 0
	if err := c.opts.Checkpoint(c.checkpoint(st)); err != nil {
		return fmt.Errorf("crawl %s: %w", st.res.Portal, err)
	}
	return nil
}
