package cache

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/embodiedai/create/internal/agent"
	"github.com/embodiedai/create/internal/obs"
	"github.com/embodiedai/create/internal/world"
)

func testPoint() Point {
	return Point{
		Task:        "wooden_pickaxe",
		Controller:  "JARVIS-1 controller/INT8",
		PlannerProt: "none",
		ControlProt: "AD",
		ErrorModel:  "uniform",
		BER:         1e-5,
		PlannerV:    0.9,
		ControllerV: 0.9,
		VSInterval:  5,
		Trials:      4,
		Seed:        2026,
	}
}

// testSummary is a real aggregated run, so the round-trip tests exercise the
// exact value shapes (maps, nested results) the experiments layer caches.
func testSummary(trials int, seed int64) agent.Summary {
	return agent.RunMany(agent.Config{
		Task: world.TaskWooden, UniformBER: 0, Seed: seed,
	}, trials, agent.RunOptions{Workers: 1})
}

func TestHitMissAccounting(t *testing.T) {
	s, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	p := testPoint()
	if _, ok := s.Get(p); ok {
		t.Fatal("empty store returned a hit")
	}
	if s.Hits() != 0 || s.Misses() != 1 {
		t.Fatalf("want 0 hits / 1 miss, got %d/%d", s.Hits(), s.Misses())
	}
	sum := testSummary(3, 2026)
	if err := s.Put(p, sum); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(p)
	if !ok || !reflect.DeepEqual(got, sum) {
		t.Fatal("stored summary not returned intact")
	}
	if s.Hits() != 1 || s.Misses() != 1 {
		t.Fatalf("want 1 hit / 1 miss, got %d/%d", s.Hits(), s.Misses())
	}
	if s.Len() != 1 {
		t.Fatalf("store should hold one point, holds %d", s.Len())
	}
}

// TestDistinctKeys guards the fingerprint against collisions between grid
// points that differ in exactly one evaluation-relevant dimension.
func TestDistinctKeys(t *testing.T) {
	base := testPoint()
	variants := map[string]func(p Point) Point{
		"seed":        func(p Point) Point { p.Seed = 7; return p },
		"trials":      func(p Point) Point { p.Trials = 100; return p },
		"error model": func(p Point) Point { p.ErrorModel = "voltage"; p.BER = 0; return p },
		"BER":         func(p Point) Point { p.BER = 3e-5; return p },
		"task":        func(p Point) Point { p.Task = "stone_pickaxe"; return p },
		"protection":  func(p Point) Point { p.ControlProt = "none"; return p },
		"fault model": func(p Point) Point { p.Controller = "JARVIS-1 controller/INT4"; return p },
		"voltage":     func(p Point) Point { p.ControllerV = 0.75; return p },
		"policy":      func(p Point) Point { p.Policy = "C"; return p },
	}
	seen := map[string]string{base.Key(): "base"}
	for name, mutate := range variants {
		k := mutate(base).Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("point differing only in %s collides with %s", name, prev)
		}
		seen[k] = name
	}
	if base.Key() != testPoint().Key() {
		t.Fatal("identical points must share a key")
	}
}

// TestDiskRoundTrip persists a real Summary and reloads it through a fresh
// store: the replayed value must be indistinguishable from the computed one.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := testPoint()
	sum := testSummary(4, 2026)

	s1, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(p, sum); err != nil {
		t.Fatal(err)
	}

	s2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(p)
	if !ok {
		t.Fatal("persisted entry not found by a fresh store")
	}
	if !reflect.DeepEqual(got, sum) {
		t.Fatalf("round-trip changed the summary:\nwant %+v\ngot  %+v", sum, got)
	}
	if s2.Hits() != 1 || s2.Misses() != 0 {
		t.Fatalf("disk hit miscounted: %d hits / %d misses", s2.Hits(), s2.Misses())
	}

	// A different seed is a different address — the fresh store must miss.
	other := p
	other.Seed = 1
	if _, ok := s2.Get(other); ok {
		t.Fatal("differing seed must not resolve to the persisted entry")
	}
}

func TestMergeDirs(t *testing.T) {
	root := t.TempDir()
	a := filepath.Join(root, "a")
	b := filepath.Join(root, "b")
	dst := filepath.Join(root, "merged")

	pa, pb := testPoint(), testPoint()
	pb.Seed = 31
	sa, sb := testSummary(2, 2026), testSummary(2, 31)

	storeA, _ := New(a)
	storeB, _ := New(b)
	if err := storeA.Put(pa, sa); err != nil {
		t.Fatal(err)
	}
	// The overlapping point lands in both shards, as happens when two
	// shards' sweeps share a grid point; the union must not double-copy.
	if err := storeB.Put(pa, sa); err != nil {
		t.Fatal(err)
	}
	if err := storeB.Put(pb, sb); err != nil {
		t.Fatal(err)
	}

	n, err := MergeDirs(dst, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("want 2 entries copied, got %d", n)
	}

	merged, _ := New(dst)
	if got, ok := merged.Get(pa); !ok || !reflect.DeepEqual(got, sa) {
		t.Fatal("merged store missing shard A's entry")
	}
	if got, ok := merged.Get(pb); !ok || !reflect.DeepEqual(got, sb) {
		t.Fatal("merged store missing shard B's entry")
	}

	// Idempotent: re-merging copies nothing new.
	if n, err = MergeDirs(dst, a, b); err != nil || n != 0 {
		t.Fatalf("re-merge should be a no-op, copied %d (err %v)", n, err)
	}
}

// TestContainsDoesNotCount: the planning probe must see both memory and
// disk residency without perturbing hit/miss accounting or promoting disk
// entries into memory.
func TestContainsDoesNotCount(t *testing.T) {
	dir := t.TempDir()
	p := testPoint()
	writer, _ := New(dir)
	if err := writer.Put(p, testSummary(2, 2026)); err != nil {
		t.Fatal(err)
	}

	s, _ := New(dir)
	if !s.Contains(p) {
		t.Fatal("Contains missed a disk entry")
	}
	other := p
	other.Seed = 99
	if s.Contains(other) {
		t.Fatal("Contains claimed an absent point")
	}
	if s.Hits() != 0 || s.Misses() != 0 || s.Len() != 0 {
		t.Fatalf("Contains perturbed state: %d hits / %d misses / %d resident",
			s.Hits(), s.Misses(), s.Len())
	}

	mem, _ := New("")
	if mem.Contains(p) {
		t.Fatal("memory store claimed an unseen point")
	}
	_ = mem.Put(p, testSummary(2, 2026))
	if !mem.Contains(p) {
		t.Fatal("Contains missed a memory entry")
	}
}

// TestEvictionLRU: with a size cap armed, the store drops the
// least-recently-read disk entries first — a Get refreshes an entry's
// position, so the hot set survives a cap-exceeding Put.
func TestEvictionLRU(t *testing.T) {
	dir := t.TempDir()
	s, _ := New(dir)

	pts := make([]Point, 3)
	sums := make([]agent.Summary, 3)
	for i := range pts {
		pts[i] = testPoint()
		pts[i].Seed = int64(100 + i)
		sums[i] = testSummary(2, pts[i].Seed)
	}
	if err := s.Put(pts[0], sums[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(pts[1], sums[1]); err != nil {
		t.Fatal(err)
	}

	// Cap at the current two-entry footprint, then make entry 0 the most
	// recently used.
	if err := s.SetMaxBytes(1 << 30); err != nil { // arm the index to measure
		t.Fatal(err)
	}
	// Slack absorbs the few-byte size difference between entries, so the
	// third Put must evict exactly one LRU victim to fit.
	cap := s.DiskBytes() + 64
	if err := s.SetMaxBytes(cap); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(pts[0]); !ok {
		t.Fatal("entry 0 should be on disk")
	}

	// A third entry overflows the cap: the LRU victim is entry 1.
	if err := s.Put(pts[2], sums[2]); err != nil {
		t.Fatal(err)
	}
	if got := s.DiskBytes(); got > cap {
		t.Fatalf("disk footprint %d exceeds cap %d after eviction", got, cap)
	}
	fresh, _ := New(dir)
	if !fresh.Contains(pts[0]) {
		t.Fatal("recently read entry 0 was evicted")
	}
	if fresh.Contains(pts[1]) {
		t.Fatal("LRU entry 1 survived past the cap")
	}
	if !fresh.Contains(pts[2]) {
		t.Fatal("just-written entry 2 was evicted")
	}

	// Eviction only trims disk: the evicted point is still served from the
	// memory layer of the store that computed it.
	if _, ok := s.Get(pts[1]); !ok {
		t.Fatal("evicted point should remain resident in memory")
	}
	if got := s.Evictions(); got != 1 {
		t.Fatalf("evictions counter = %d, want 1", got)
	}
}

// TestStatsAndRegister asserts the Stats snapshot and the registered
// create_cache_* metric families report the same numbers as the accessor
// methods — the single-source-of-truth contract behind /v1/cache/stats
// and /metrics.
func TestStatsAndRegister(t *testing.T) {
	dir := t.TempDir()
	s, _ := New(dir)
	p := testPoint()
	if _, ok := s.Get(p); ok { // one miss
		t.Fatal("unexpected hit")
	}
	if err := s.Put(p, testSummary(2, 2026)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(p); !ok { // one hit
		t.Fatal("expected hit")
	}

	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 || st.Resident != 1 || st.Dir != dir {
		t.Fatalf("stats snapshot out of sync with accessors: %+v", st)
	}

	reg := obs.NewRegistry()
	s.Register(reg)
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	for _, line := range []string{
		"create_cache_hits_total 1",
		"create_cache_misses_total 1",
		"create_cache_evictions_total 0",
		"create_cache_resident_points 1",
		"create_cache_disk_bytes 0",
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("registered metrics missing %q:\n%s", line, b.String())
		}
	}
}

// TestSetMaxBytesScansExistingDir: arming a cap on a pre-populated directory
// enforces it immediately.
func TestSetMaxBytesScansExistingDir(t *testing.T) {
	dir := t.TempDir()
	writer, _ := New(dir)
	var pts []Point
	for i := 0; i < 4; i++ {
		p := testPoint()
		p.Seed = int64(200 + i)
		pts = append(pts, p)
		if err := writer.Put(p, testSummary(2, p.Seed)); err != nil {
			t.Fatal(err)
		}
	}
	full := writer.DiskBytes() // 0: no cap armed yet
	if full != 0 {
		t.Fatalf("footprint tracked before a cap was armed: %d", full)
	}

	s, _ := New(dir)
	if err := s.SetMaxBytes(1); err != nil { // smaller than any entry
		t.Fatal(err)
	}
	left := 0
	for _, p := range pts {
		if s.Contains(p) {
			left++
		}
	}
	if left != 0 {
		t.Fatalf("cap of 1 byte left %d entries on disk", left)
	}
}

// TestMaxResidentBoundsMemory: the in-memory layer stays at the bound no
// matter how many distinct points pass through; dropped entries re-read
// from disk on demand, so nothing is lost for disk-backed stores.
func TestMaxResidentBoundsMemory(t *testing.T) {
	dir := t.TempDir()
	s, _ := New(dir)
	s.SetMaxResident(3)

	pts := make([]Point, 6)
	for i := range pts {
		pts[i] = testPoint()
		pts[i].Seed = int64(300 + i)
		if err := s.Put(pts[i], testSummary(2, pts[i].Seed)); err != nil {
			t.Fatal(err)
		}
		if s.Len() > 3 {
			t.Fatalf("resident layer grew to %d past the bound", s.Len())
		}
	}
	// Every point is still served — from memory or by disk promotion.
	for _, p := range pts {
		if _, ok := s.Get(p); !ok {
			t.Fatalf("point %d lost after resident eviction", p.Seed)
		}
		if s.Len() > 3 {
			t.Fatalf("promotion grew the resident layer to %d", s.Len())
		}
	}
	// Tightening the bound trims immediately.
	s.SetMaxResident(1)
	if s.Len() > 1 {
		t.Fatalf("SetMaxResident(1) left %d resident", s.Len())
	}
}

// TestTouchMemPersistsStaleRecency: a memory-served read flushes its
// recency to the file's timestamps once the persist throttle has lapsed,
// so restart scans rank the hot working set correctly.
func TestTouchMemPersistsStaleRecency(t *testing.T) {
	dir := t.TempDir()
	s, _ := New(dir)
	p := testPoint()
	if err := s.Put(p, testSummary(2, 2026)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetMaxBytes(1 << 30); err != nil {
		t.Fatal(err)
	}
	path := s.path(p.Key())

	// Age both the file and the index entry past the persist interval.
	old := time.Now().Add(-2 * persistInterval)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	s.lru.Lock()
	e := s.lru.entries[path]
	e.atime, e.persisted = old, old
	s.lru.entries[path] = e
	s.lru.Unlock()

	if _, ok := s.Get(p); !ok { // memory hit
		t.Fatal("expected a memory hit")
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.ModTime().After(old.Add(persistInterval)) {
		t.Fatalf("stale recency not flushed to the file: mtime %v", st.ModTime())
	}
}

// TestCorruptEntryIsMiss: a torn or foreign file at a key's path must read
// as a miss, not poison the run.
func TestCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	p := testPoint()
	s, _ := New(dir)
	if err := s.Put(p, testSummary(2, 2026)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, p.Key()[:2], p.Key()+".json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, _ := New(dir)
	if _, ok := fresh.Get(p); ok {
		t.Fatal("corrupt entry returned as a hit")
	}
}

// TestPayloadRoundTrip: auxiliary artifacts share the content-addressed
// store with grid points — resident reuse, disk persistence across
// processes, and the same one-hit-or-one-miss accounting.
func TestPayloadRoundTrip(t *testing.T) {
	type artifact struct {
		MSE    float64
		Epochs int
	}
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	const fp = "payload|test-artifact|v1|epochs=3"
	var got artifact
	if s.GetPayload(fp, &got) {
		t.Fatal("empty store returned a payload hit")
	}
	if s.Misses() != 1 {
		t.Fatalf("payload miss not counted: %d", s.Misses())
	}
	want := artifact{MSE: 0.125, Epochs: 3}
	if err := s.PutPayload(fp, want); err != nil {
		t.Fatal(err)
	}
	if !s.GetPayload(fp, &got) || got != want {
		t.Fatalf("payload not returned intact: %+v", got)
	}
	if s.Hits() != 1 {
		t.Fatalf("payload hit not counted: %d", s.Hits())
	}

	// A cold store over the same directory decodes the payload from disk.
	cold, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	got = artifact{}
	if !cold.GetPayload(fp, &got) || got != want {
		t.Fatalf("disk payload replay failed: %+v", got)
	}

	// Unprefixed fingerprints are rejected: they could collide with a grid
	// point's canonical identity.
	if err := s.PutPayload("task=wooden", want); err == nil {
		t.Fatal("unprefixed payload fingerprint accepted")
	}

	// Payload and grid-point entries coexist: a Summary Get for a point
	// never confuses a payload entry and vice versa.
	p := testPoint()
	sum := testSummary(2, 7)
	if err := s.Put(p, sum); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(p); !ok || !reflect.DeepEqual(got, sum) {
		t.Fatal("summary entry disturbed by payload traffic")
	}
}

// TestExportImportStream: a store's entries survive the NDJSON wire format
// — subset export by key manifest, full export, idempotent import, and
// validation that rejects corrupt or address-forging records.
func TestExportImportStream(t *testing.T) {
	src, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := testPoint(), testPoint()
	p2.Seed = 9999
	s1, s2 := testSummary(2, 1), testSummary(2, 2)
	if err := src.Put(p1, s1); err != nil {
		t.Fatal(err)
	}
	if err := src.Put(p2, s2); err != nil {
		t.Fatal(err)
	}
	const fp = "payload|test-artifact|v1"
	if err := src.PutPayload(fp, 42); err != nil {
		t.Fatal(err)
	}

	// Subset export by manifest: one present key, one absent (skipped).
	var buf bytes.Buffer
	absent := Point{Task: "never-computed", Trials: 1}.Key()
	n, err := src.ExportTo(&buf, []string{p1.Key(), absent})
	if err != nil || n != 1 {
		t.Fatalf("subset export wrote %d entries, err %v", n, err)
	}
	dst, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := dst.ImportFrom(bytes.NewReader(buf.Bytes())); err != nil || n != 1 {
		t.Fatalf("import landed %d entries, err %v", n, err)
	}
	if got, ok := dst.Get(p1); !ok || !reflect.DeepEqual(got, s1) {
		t.Fatal("imported entry does not replay")
	}
	// Re-importing the same stream is a no-op: content addresses make the
	// transfer idempotent.
	if n, err := dst.ImportFrom(bytes.NewReader(buf.Bytes())); err != nil || n != 0 {
		t.Fatalf("duplicate import landed %d entries, err %v", n, err)
	}

	// Full export moves everything, payloads included.
	buf.Reset()
	if n, err := src.ExportTo(&buf, nil); err != nil || n != 3 {
		t.Fatalf("full export wrote %d entries, err %v", n, err)
	}
	all, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := all.ImportFrom(bytes.NewReader(buf.Bytes())); err != nil || n != 3 {
		t.Fatalf("full import landed %d entries, err %v", n, err)
	}
	var v int
	if !all.GetPayload(fp, &v) || v != 42 {
		t.Fatal("payload did not survive the stream")
	}

	// A memory-only store can import too (entries land resident).
	mem, _ := New("")
	if n, err := mem.ImportFrom(bytes.NewReader(buf.Bytes())); err != nil || n != 3 {
		t.Fatalf("memory import landed %d entries, err %v", n, err)
	}
	if got, ok := mem.Get(p2); !ok || !reflect.DeepEqual(got, s2) {
		t.Fatal("memory import does not replay")
	}
	// ...but cannot export: disk is the complete record it lacks.
	if _, err := mem.ExportTo(&buf, nil); err == nil {
		t.Fatal("memory-only export should be refused")
	}

	// Validation: a record whose claimed key does not match its
	// fingerprint's address is rejected, as is a path-traversing manifest.
	forged := `{"key":"` + absent + `","entry":{"fingerprint":"` + p1.Fingerprint() + `","summary":{}}}`
	if _, err := dst.ImportFrom(strings.NewReader(forged)); err == nil {
		t.Fatal("address-forging record accepted")
	}
	if _, err := src.ExportTo(&buf, []string{"../../etc/passwd"}); err == nil {
		t.Fatal("path-traversing export key accepted")
	}
}
