package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"viprof/internal/kernel"
	"viprof/internal/oprofile"
)

// buildStore runs a small fleet (with real network dups so the
// journals hold duplicate-absorption evidence, and a scripted shard
// crash so they hold a restart marker and torn-append salvage) and
// returns the machine whose disk is the store under test.
func buildStore(t *testing.T, seed int64, hosts, deltas int, crash bool) *kernel.Machine {
	t.Helper()
	m := newTestMachine(seed)
	if crash {
		m.Kern.SetFaultInjectors(kernel.FaultPlan{
			Seed:       seed,
			PathPrefix: JournalPrefix,
			Script:     []kernel.FaultPoint{{Write: 4, Kind: kernel.FaultCrash}},
		})
	}
	res, err := RunFleet(m, FleetConfig{
		Hosts: hosts, DeltasPerHost: deltas, Seed: seed,
		Net: NetFaultPlan{Seed: seed + 1, PDup: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RunErr != nil {
		t.Fatalf("run error: %v", res.RunErr)
	}
	requireConservation(t, res)
	return m
}

// sumCounts folds a windowed query result to a total.
func sumCounts(counts map[oprofile.Key]uint64) (n uint64) {
	for _, c := range counts {
		n += c
	}
	return n
}

// windowOracle is the brute-force reference: a full scan of every
// applied record, filtered by generation time — what QueryWindow must
// equal no matter how the store is laid out on disk.
func windowOracle(agg *Aggregate, from, to uint64) map[oprofile.Key]uint64 {
	oracle := make(map[oprofile.Key]uint64)
	for _, h := range agg.Hosts() {
		for _, rec := range agg.Records(h) {
			if rec.Kind != KindDelta || rec.At < from || rec.At >= to {
				continue
			}
			for _, kc := range rec.Counts {
				oracle[kc.Key] += kc.Count
			}
		}
	}
	return oracle
}

func sameCounts(a, b map[oprofile.Key]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, c := range a {
		if b[k] != c {
			return false
		}
	}
	return true
}

// windowRecsOracle is the record-level reference for Window: a scan of
// every applied record, filtered by generation time and sorted by
// (At, Host, Seq).
func windowRecsOracle(agg *Aggregate, from, to uint64) []*Record {
	var out []*Record
	for _, h := range agg.Hosts() {
		for _, rec := range agg.Records(h) {
			if rec.At >= from && rec.At < to {
				out = append(out, rec)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		x, y := out[i], out[j]
		if x.At != y.At {
			return x.At < y.At
		}
		if x.Host != y.Host {
			return x.Host < y.Host
		}
		return x.Seq < y.Seq
	})
	return out
}

// checkWindow compares one window of agg against the scans: the
// records Window returns (same pointers, same order) and the counts
// QueryWindow folds, the latter also against the pre-compaction store.
func checkWindow(t *testing.T, label string, agg, before *Aggregate, from, to uint64) {
	t.Helper()
	got, want := agg.Window(from, to), windowRecsOracle(agg, from, to)
	if len(got) != len(want) {
		t.Fatalf("%s window [%d,%d): %d records, scan %d", label, from, to, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s window [%d,%d): record %d is host %d seq %d at %d, scan has host %d seq %d at %d",
				label, from, to, i, got[i].Host, got[i].Seq, got[i].At, want[i].Host, want[i].Seq, want[i].At)
		}
	}
	if q, o := agg.QueryWindow(from, to), windowOracle(before, from, to); !sameCounts(q, o) {
		t.Fatalf("%s window [%d,%d): query %d samples, oracle %d", label, from, to, sumCounts(q), sumCounts(o))
	}
}

// TestWindowedQueryOracle is the compaction quickcheck: for random
// windows, a windowed query over the compacted generations must equal
// the same filter run as a full scan over the pre-compaction store —
// compaction changes layout, never meaning. The two halves of any cut
// must also partition the whole. Windows whose bounds sit on record
// timestamps, empty windows, and an apply after a query (which must
// drop the At index) pin the index behind Window.
func TestWindowedQueryOracle(t *testing.T) {
	for _, seed := range []int64{101, 202, 303} {
		m := buildStore(t, seed, 3, 7, seed == 202)
		disk := m.Kern.Disk()
		before, _, err := LoadStore(disk, 0)
		if err != nil {
			t.Fatalf("seed %d: pre-compaction load: %v", seed, err)
		}
		min, max, ok := before.TimeBounds()
		if !ok || max <= min {
			t.Fatalf("seed %d: no time spread: %d..%d", seed, min, max)
		}
		res, err := CompactDisk(disk)
		if err != nil {
			t.Fatalf("seed %d: compaction: %v", seed, err)
		}
		if !res.Committed || res.Gen != 1 || res.PrunedJournals == 0 {
			t.Fatalf("seed %d: compaction did not commit+prune: %+v", seed, res)
		}
		after, rep, err := LoadStore(disk, 0)
		if err != nil {
			t.Fatalf("seed %d: post-compaction load: %v", seed, err)
		}
		if rep.ManifestGen != 1 || rep.Journals != 0 {
			t.Fatalf("seed %d: store not compacted: %+v", seed, rep)
		}
		if after.Total() != before.Total() {
			t.Fatalf("seed %d: compaction changed the total: %d -> %d",
				seed, before.Total(), after.Total())
		}
		rng := rand.New(rand.NewSource(seed))
		span := max - min
		for i := 0; i < 40; i++ {
			from := min + uint64(rng.Int63n(int64(span)))
			to := from + 1 + uint64(rng.Int63n(int64(span)))
			got := after.QueryWindow(from, to)
			want := windowOracle(before, from, to)
			if !sameCounts(got, want) {
				t.Fatalf("seed %d window [%d,%d): query %d samples, oracle %d",
					seed, from, to, sumCounts(got), sumCounts(want))
			}
			cut := min + uint64(rng.Int63n(int64(span)))
			lo := sumCounts(after.QueryWindow(0, cut))
			hi := sumCounts(after.QueryWindow(cut, ^uint64(0)))
			if lo+hi != after.Total() {
				t.Fatalf("seed %d cut %d: %d + %d != %d", seed, cut, lo, hi, after.Total())
			}
		}
		label := fmt.Sprintf("seed %d", seed)
		all := windowRecsOracle(after, 0, ^uint64(0))
		for i := 0; i < 40; i++ {
			a, b := all[rng.Intn(len(all))].At, all[rng.Intn(len(all))].At
			checkWindow(t, label, after, before, a, b)
			checkWindow(t, label, after, before, b, a)
			checkWindow(t, label, after, before, a, a+1)
			checkWindow(t, label, after, before, a+1, b+1)
		}
		for _, w := range [][2]uint64{
			{0, ^uint64(0)}, {0, min}, {0, min + 1}, {min, min}, {min, max}, {min, max + 1},
			{max, max + 1}, {max + 1, ^uint64(0)}, {max + 1, max}, {^uint64(0), 0},
		} {
			checkWindow(t, label, after, before, w[0], w[1])
		}

		// An apply after a query must reach the next query and bounds.
		late := &Record{Kind: KindDelta, Host: 99, Seq: 1, At: max + 10,
			Counts: []oprofile.KeyCount{{Key: oprofile.Key{Image: "late.so", Proc: "late"}, Count: 3}}}
		early := &Record{Kind: KindDelta, Host: 99, Seq: 2, At: min - 1,
			Counts: []oprofile.KeyCount{{Key: oprofile.Key{Image: "early.so", Proc: "early"}, Count: 5}}}
		for _, msg := range []*Record{late, early} {
			if !after.Apply(msg) || !before.Apply(msg) {
				t.Fatalf("seed %d: fresh record at %d not applied", seed, msg.At)
			}
			if got := sumCounts(after.QueryWindow(msg.At, msg.At+1)); got != msg.Total() {
				t.Fatalf("seed %d: query at %d sees %d samples after apply, want %d", seed, msg.At, got, msg.Total())
			}
		}
		if lo, hi, ok := after.TimeBounds(); !ok || lo != min-1 || hi != max+10 {
			t.Fatalf("seed %d: bounds after apply [%d, %d] ok=%v, want [%d, %d]", seed, lo, hi, ok, min-1, max+10)
		}
		checkWindow(t, label+" after apply", after, before, 0, ^uint64(0))
		checkWindow(t, label+" after apply", after, before, min-1, max+10)
	}
}

// refCompactPass is the compaction pass as it was before passes copied
// frames: it decodes every record of the store (refCollectStore reads
// what that pass's scan read) and writes each kept record re-encoded.
// The pass that copies frames must write the same bytes.
func refCompactPass(disk *kernel.Disk, io compactIO) (CompactResult, error) {
	var res CompactResult
	st, err := refCollectStore(disk)
	if err != nil {
		return res, err
	}
	if len(st.journals) == 0 {
		return res, nil // nothing new since the last pass
	}
	recs := st.recs

	// Sort by (At, Host, Seq): the time axis first, so a windowed query
	// over a generation is a contiguous run and ManifestFile.MinAt/MaxAt
	// bounds are tight.
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		return a.Seq < b.Seq
	})
	markers := st.markers
	sort.Slice(markers, func(i, j int) bool {
		a, b := markers[i], markers[j]
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Attempt < b.Attempt
	})

	newGen := 1
	if st.man != nil {
		newGen = st.man.Gen + 1
	}
	// The read's salvage loss includes what the old manifest carried.
	man := &Manifest{
		Gen:       newGen,
		LostRecs:  st.lostRecs,
		LostBytes: st.lostBytes,
	}

	// Chunk into data files. Restart markers lead the first file (they
	// carry no timestamp and must survive every generation).
	type chunk struct {
		buf    bytes.Buffer
		frames int
		minAt  uint64
		maxAt  uint64
		any    bool
	}
	var chunks []*chunk
	cur := &chunk{}
	chunks = append(chunks, cur)
	for _, mk := range markers {
		cur.buf.Write(mk.Encode())
		cur.frames++
		res.Markers++
	}
	for _, rec := range recs {
		if cur.frames >= compactFileFrames {
			cur = &chunk{}
			chunks = append(chunks, cur)
		}
		// Re-encoding is canonical, so the same store always compacts
		// to the same bytes.
		cur.buf.Write(rec.Encode())
		cur.frames++
		if !cur.any || rec.At < cur.minAt {
			cur.minAt = rec.At
		}
		if !cur.any || rec.At > cur.maxAt {
			cur.maxAt = rec.At
		}
		cur.any = true
	}

	for idx, ch := range chunks {
		if ch.frames == 0 {
			continue // an empty store still prunes its empty journals
		}
		path := GenFilePath(newGen, idx)
		tmp := path + ".tmp"
		if err := io.WriteSync(tmp, ch.buf.Bytes()); err != nil {
			return res, err
		}
		if err := io.Rename(tmp, path); err != nil {
			return res, err
		}
		man.Files = append(man.Files, ManifestFile{
			Path: path, Frames: ch.frames, MinAt: ch.minAt, MaxAt: ch.maxAt,
		})
		res.Files++
		res.Frames += ch.frames
	}

	// COMMIT POINT: the manifest rename atomically switches the current
	// generation. Everything before it left the old generation live;
	// everything after is reclaim that replay tolerates losing.
	mtmp := ManifestPath + ".tmp"
	if err := io.WriteSync(mtmp, manifestPayload(man)); err != nil {
		return res, err
	}
	if err := io.Rename(mtmp, ManifestPath); err != nil {
		return res, err
	}
	res.Committed = true
	res.Gen = newGen

	// Persist-before-prune: only now reclaim the inputs.
	if st.man != nil {
		for _, mf := range st.man.Files {
			if err := io.Remove(mf.Path); err != nil {
				return res, err
			}
			res.PrunedGenFiles++
		}
	}
	for _, path := range st.journals {
		if err := io.Remove(path); err != nil {
			return res, err
		}
		res.PrunedJournals++
	}
	return res, nil
}

// checkPassMatchesReference runs compactPass and refCompactPass, each
// cut at the failAt-th mutation (0: never), on copies of disk and
// requires the same result, the same error, the same mutation count
// and the same files byte for byte. It returns compactPass's copy.
func checkPassMatchesReference(t *testing.T, disk *kernel.Disk, failAt int) (*kernel.Disk, CompactResult, *failingIO, error) {
	t.Helper()
	work, refWork := cloneDisk(t, disk), cloneDisk(t, disk)
	fio := &failingIO{inner: &diskCompactIO{d: work}, failAt: failAt}
	rio := &failingIO{inner: &diskCompactIO{d: refWork}, failAt: failAt}
	res, err := compactPass(work, fio)
	rres, rerr := refCompactPass(refWork, rio)
	if res != rres || fmt.Sprint(err) != fmt.Sprint(rerr) || fio.ops != rio.ops {
		t.Fatalf("pass cut at %d: %+v, %v after %d mutations; reference %+v, %v after %d",
			failAt, res, err, fio.ops, rres, rerr, rio.ops)
	}
	if err := sameFiles(work, refWork); err != nil {
		t.Fatalf("pass cut at %d: %v", failAt, err)
	}
	return work, res, fio, err
}

// sameFiles compares two disks file by file, byte for byte.
func sameFiles(got, want *kernel.Disk) error {
	paths, wantPaths := got.List(), want.List()
	if !reflect.DeepEqual(paths, wantPaths) {
		return fmt.Errorf("files %v, reference %v", paths, wantPaths)
	}
	for _, p := range paths {
		a, aerr := got.Read(p)
		b, berr := want.Read(p)
		if aerr != nil || berr != nil {
			return fmt.Errorf("%s: read %v, reference read %v", p, aerr, berr)
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("%s differs from the reference's (%d vs %d bytes)", p, len(a), len(b))
		}
	}
	return nil
}

// failingIO wraps a compactIO and fails cleanly at the k-th mutation,
// counting operations — the sweep driver for every fault point a
// compaction pass has.
type failingIO struct {
	inner   compactIO
	failAt  int // 0 = never
	ops     int
	injects int
}

var errInjected = errors.New("injected compaction fault")

func (f *failingIO) step() error {
	f.ops++
	if f.failAt > 0 && f.ops >= f.failAt {
		f.injects++
		return errInjected
	}
	return nil
}

func (f *failingIO) WriteSync(path string, data []byte) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.WriteSync(path, data)
}

func (f *failingIO) Rename(oldPath, newPath string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Rename(oldPath, newPath)
}

func (f *failingIO) Remove(path string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Remove(path)
}

// TestCompactionFaultPointSweep kills a compaction pass at every
// single mutation point in turn and proves the store stays readable
// and semantically identical at each one — and that a clean retry
// afterwards still commits. This is the crash-safety argument of the
// manifest commit protocol, exhaustively checked rather than sampled.
func TestCompactionFaultPointSweep(t *testing.T) {
	// 4 hosts x 30 deltas (plus map epochs and a restart marker) spills
	// past one generation file's 96-frame budget, so the sweep covers
	// the multi-chunk write path too.
	m := buildStore(t, 404, 4, 30, true)
	dir := t.TempDir()
	if err := m.Kern.Disk().DumpTo(dir); err != nil {
		t.Fatal(err)
	}
	oracle, orep, err := LoadStore(m.Kern.Disk(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if orep.Markers == 0 {
		t.Fatal("store has no restart markers — the sweep would not cover marker copying")
	}

	// Count the pass's total mutations on a throwaway copy.
	probeDisk, err := kernel.LoadDiskFrom(dir)
	if err != nil {
		t.Fatal(err)
	}
	probe := &failingIO{inner: &diskCompactIO{d: probeDisk}}
	if _, err := compactPass(probeDisk, probe); err != nil {
		t.Fatalf("clean probe pass failed: %v", err)
	}
	total := probe.ops
	// 2+ gen files (write+rename each), the manifest commit pair, and
	// at least one journal prune.
	if total < 7 {
		t.Fatalf("suspiciously small pass: %d mutations", total)
	}

	for k := 1; k <= total; k++ {
		k := k
		t.Run(fmt.Sprintf("fault-at-%d", k), func(t *testing.T) {
			disk, err := kernel.LoadDiskFrom(dir)
			if err != nil {
				t.Fatal(err)
			}
			fio := &failingIO{inner: &diskCompactIO{d: disk}, failAt: k}
			res, err := compactPass(disk, fio)
			if fio.injects == 0 {
				t.Fatalf("fault point %d never reached", k)
			}
			if err == nil {
				t.Fatalf("interrupted pass reported no error: %+v", res)
			}
			// The store must still load, losslessly, at this fault point.
			agg, rep, lerr := LoadStore(disk, 0)
			if lerr != nil {
				t.Fatalf("store unreadable after fault at %d: %v", k, lerr)
			}
			if rep.ManifestDamaged {
				t.Fatalf("manifest damaged after fault at %d", k)
			}
			if rep.Markers != orep.Markers {
				t.Fatalf("fault at %d: %d restart markers, oracle %d", k, rep.Markers, orep.Markers)
			}
			if !slices.Equal(agg.Counts(), oracle.Counts()) {
				t.Fatalf("fault at %d changed the store: %d samples vs oracle %d",
					k, agg.Total(), oracle.Total())
			}
			if res.Committed && rep.ManifestGen != res.Gen {
				t.Fatalf("committed gen %d but store reads gen %d", res.Gen, rep.ManifestGen)
			}
			// A clean retry must finish the job from any fault point.
			if _, rerr := CompactDisk(disk); rerr != nil {
				t.Fatalf("retry after fault at %d failed: %v", k, rerr)
			}
			agg2, rep2, lerr := LoadStore(disk, 0)
			if lerr != nil {
				t.Fatalf("store unreadable after retry at %d: %v", k, lerr)
			}
			if rep2.Journals != 0 || rep2.ManifestGen == 0 {
				t.Fatalf("retry at %d left the store uncompacted: %+v", k, rep2)
			}
			if !slices.Equal(agg2.Counts(), oracle.Counts()) {
				t.Fatalf("retry at %d changed the store: %d vs %d",
					k, agg2.Total(), oracle.Total())
			}
			if rep2.Markers != orep.Markers {
				t.Fatalf("retry at %d lost restart markers: %d vs %d",
					k, rep2.Markers, orep.Markers)
			}
		})
	}
}

// TestFleetMapReplication runs a hostile-but-nondestructive network
// (dups + reorders) and checks the code-map replication contract: all
// maps acked, every replicated epoch byte-identical to what the
// sender published, and the live compactor preserving them across a
// committed generation.
func TestFleetMapReplication(t *testing.T) {
	m := newTestMachine(55)
	cfg := FleetConfig{
		Hosts: 4, DeltasPerHost: 6, Seed: 55,
		Net: NetFaultPlan{Seed: 56, PDup: 0.25, PReorder: 0.25},
	}
	cfg.Collector.CompactEveryCycles = 250_000
	res, err := RunFleet(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RunErr != nil {
		t.Fatalf("run error: %v", res.RunErr)
	}
	requireConservation(t, res)
	var gen, acked uint64
	for _, s := range res.Senders {
		st := s.Stats()
		gen += st.MapsGenerated
		acked += st.MapsAcked
	}
	if gen == 0 || acked != gen {
		t.Fatalf("maps not fully acked: %d/%d", acked, gen)
	}
	for name, agg := range map[string]*Aggregate{
		"live": res.Collector.Aggregate(), "replayed": res.Replayed,
	} {
		if bad := CheckMapReplication(res.Senders, agg); len(bad) > 0 {
			t.Fatalf("%s replication violated:\n%v", name, bad)
		}
		for _, s := range res.Senders {
			if got := agg.MapEpochs(s.cfg.Host); got == 0 {
				t.Fatalf("%s: host %d has no replicated epochs", name, s.cfg.Host)
			}
		}
	}
	if res.Collector.Stats().Compactions == 0 {
		t.Fatal("compactor never committed — the maps-across-compaction leg did not run")
	}
	if res.Replay.ManifestGen == 0 {
		t.Fatalf("offline replay saw no generation: %+v", res.Replay)
	}
}
