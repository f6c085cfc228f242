package fleet

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

// Before the one store scan (store.go), four readers walked the store
// on their own: LoadStore (manifest, generation, then every journal,
// scanned and decoded concurrently), the restart replay
// (loadManifestInto + loadJournalInto), the handoff burn (loadBurnSet,
// a full LoadStore kept only for its (host, seq) pairs), and the
// compaction pass (collectStore). They survive here as references. The
// new readers must agree with them on every crash-built store, apart
// from one difference asserted explicitly: the reference LoadStore
// counted every restart marker it read, so a store whose compaction
// committed but was cut before its journal prune counted one restart
// twice; the scan keeps one marker per (shard, attempt), as collectStore
// always did.

// refReplayInto classifies one store payload into the aggregate.
func (rep *JournalReplay) refReplayInto(agg *Aggregate, payload []byte) {
	msg, err := DecodePayload(payload)
	if err != nil {
		rep.ParseErrors++
		return
	}
	rep.refApplyDecoded(agg, msg)
}

// refApplyDecoded classifies one already-decoded payload (nil = parse
// failure) into the aggregate.
func (rep *JournalReplay) refApplyDecoded(agg *Aggregate, msg *Record) {
	if msg == nil {
		rep.ParseErrors++
		return
	}
	switch msg.Kind {
	case KindDelta:
		if agg.Apply(msg) {
			rep.Deltas++
		} else {
			rep.Duplicates++
		}
	case KindMap:
		if agg.Apply(msg) {
			rep.Maps++
		} else {
			rep.Duplicates++
		}
	case KindRestart:
		rep.Markers++
	}
}

// refLoadStore is the reference offline replay.
func refLoadStore(disk *kernel.Disk) (*Aggregate, JournalReplay, error) {
	agg := NewAggregate()
	var rep JournalReplay
	if err := refLoadManifestInto(disk, agg, &rep); err != nil {
		return nil, rep, err
	}
	var datas [][]byte
	for i := 0; i < maxShardSlots; i++ {
		path := ShardJournalPath(i)
		if !disk.Exists(path) {
			continue
		}
		data, err := disk.Read(path)
		if err != nil {
			return nil, rep, err
		}
		datas = append(datas, data)
	}
	type decoded struct {
		msg *Record // nil on parse failure
	}
	type scanned struct {
		recs []decoded
		sal  record.Salvage
	}
	results := make([]scanned, len(datas))
	var wg sync.WaitGroup
	for idx, data := range datas {
		wg.Add(1)
		go func(idx int, data []byte) {
			defer wg.Done()
			recs, sal := record.Scan(data)
			out := make([]decoded, len(recs))
			for i, payload := range recs {
				msg, err := DecodePayload(payload)
				if err == nil {
					out[i].msg = msg
				}
			}
			results[idx] = scanned{recs: out, sal: sal}
		}(idx, data)
	}
	wg.Wait()
	for _, r := range results {
		rep.Journals++
		rep.Salvage.DroppedRecords += r.sal.DroppedRecords
		rep.Salvage.DroppedBytes += r.sal.DroppedBytes
		for _, d := range r.recs {
			rep.refApplyDecoded(agg, d.msg)
		}
	}
	return agg, rep, nil
}

// refLoadManifestInto replays the current compacted generation.
func refLoadManifestInto(disk *kernel.Disk, agg *Aggregate, rep *JournalReplay) error {
	if !disk.Exists(ManifestPath) {
		return nil
	}
	data, err := disk.Read(ManifestPath)
	if err != nil {
		return err
	}
	man, merr := parseManifest(data)
	if merr != nil {
		rep.ManifestDamaged = true
		return nil
	}
	rep.ManifestGen = man.Gen
	rep.Salvage.DroppedRecords += man.LostRecs
	rep.Salvage.DroppedBytes += man.LostBytes
	for _, mf := range man.Files {
		data, err := disk.Read(mf.Path)
		if err != nil {
			return err
		}
		recs, sal := record.Scan(data)
		rep.Salvage.DroppedRecords += sal.DroppedRecords
		rep.Salvage.DroppedBytes += sal.DroppedBytes
		rep.GenFiles++
		rep.GenFrames += len(recs)
		for _, payload := range recs {
			rep.refReplayInto(agg, payload)
		}
	}
	return nil
}

// refLoadJournalInto replays one shard journal into the aggregate.
func refLoadJournalInto(disk *kernel.Disk, path string, agg *Aggregate, rep *JournalReplay) error {
	if !disk.Exists(path) {
		return nil
	}
	data, err := disk.Read(path)
	if err != nil {
		return err
	}
	rep.Journals++
	recs, sal := record.Scan(data)
	rep.Salvage.DroppedRecords += sal.DroppedRecords
	rep.Salvage.DroppedBytes += sal.DroppedBytes
	for _, payload := range recs {
		rep.refReplayInto(agg, payload)
	}
	return nil
}

// refLoadBurnSet is the reference handoff burn set.
func refLoadBurnSet(disk *kernel.Disk) (map[int]map[uint64]bool, error) {
	agg, _, err := refLoadStore(disk)
	if err != nil {
		return nil, err
	}
	out := make(map[int]map[uint64]bool, len(agg.byHost))
	for h, recs := range agg.byHost {
		set := make(map[uint64]bool, len(recs))
		for s := range recs {
			set[s] = true
		}
		out[h] = set
	}
	return out, nil
}

// refStoreContents is everything one reference compaction pass read.
type refStoreContents struct {
	man                 *Manifest
	recs                []*Record
	markers             []*Record
	journals            []string
	lostRecs, lostBytes int
}

// refCollectStore is the reference compaction read.
func refCollectStore(disk *kernel.Disk) (*refStoreContents, error) {
	st := &refStoreContents{}
	agg := NewAggregate()
	markerSeen := make(map[[2]int]bool)
	absorb := func(data []byte, countLoss bool) error {
		recs, sal := record.Scan(data)
		if countLoss {
			st.lostRecs += sal.DroppedRecords
			st.lostBytes += sal.DroppedBytes
		}
		for _, payload := range recs {
			msg, err := DecodePayload(payload)
			if err != nil {
				if countLoss {
					st.lostRecs++
					st.lostBytes += len(payload)
				}
				continue
			}
			switch msg.Kind {
			case KindDelta, KindMap:
				agg.Apply(msg)
			case KindRestart:
				key := [2]int{msg.Shard, msg.Attempt}
				if !markerSeen[key] {
					markerSeen[key] = true
					st.markers = append(st.markers, msg)
				}
			}
		}
		return nil
	}

	if disk.Exists(ManifestPath) {
		data, err := disk.Read(ManifestPath)
		if err != nil {
			return nil, err
		}
		man, merr := parseManifest(data)
		if merr != nil {
			return nil, fmt.Errorf("fleet: compaction refused: %v", merr)
		}
		st.man = man
		st.lostRecs += man.LostRecs
		st.lostBytes += man.LostBytes
		for _, mf := range man.Files {
			data, err := disk.Read(mf.Path)
			if err != nil {
				return nil, err
			}
			if err := absorb(data, true); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < maxShardSlots; i++ {
		path := ShardJournalPath(i)
		if !disk.Exists(path) {
			continue
		}
		data, err := disk.Read(path)
		if err != nil {
			return nil, err
		}
		st.journals = append(st.journals, path)
		if err := absorb(data, true); err != nil {
			return nil, err
		}
	}
	for _, h := range agg.Hosts() {
		st.recs = append(st.recs, agg.Records(h)...)
	}
	return st, nil
}

// cloneDisk copies every file of d onto a fresh disk.
func cloneDisk(t *testing.T, d *kernel.Disk) *kernel.Disk {
	t.Helper()
	out := kernel.NewDisk()
	for _, p := range d.List() {
		data, err := d.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		out.Append(p, data)
	}
	return out
}

// sameAggregate compares two aggregates record by record.
func sameAggregate(a, b *Aggregate) error {
	if !slices.Equal(a.Counts(), b.Counts()) {
		return fmt.Errorf("counts differ: %d vs %d samples", a.Total(), b.Total())
	}
	if !reflect.DeepEqual(a.Hosts(), b.Hosts()) {
		return fmt.Errorf("hosts differ: %v vs %v", a.Hosts(), b.Hosts())
	}
	for _, h := range a.Hosts() {
		if !reflect.DeepEqual(a.Records(h), b.Records(h)) {
			return fmt.Errorf("host %d records differ", h)
		}
		if a.HostTotal(h) != b.HostTotal(h) || a.MaxSeq(h) != b.MaxSeq(h) {
			return fmt.Errorf("host %d totals differ", h)
		}
	}
	return nil
}

// markerKeys lists markers as (shard, attempt) pairs in order.
func markerKeys(ms []*Record) [][2]int {
	out := make([][2]int, len(ms))
	for i, m := range ms {
		out[i] = [2]int{m.Shard, m.Attempt}
	}
	return out
}

// frameRecs lists the scanned frames' records in order.
func frameRecs(fs []storeFrame) []*Record {
	out := make([]*Record, len(fs))
	for i, f := range fs {
		out[i] = f.rec
	}
	return out
}

// checkStoreAgainstReference runs every reference reader and its
// replacement over one store, and reports whether the reference
// LoadStore counted a restart marker twice.
func checkStoreAgainstReference(t *testing.T, disk *kernel.Disk) (doubled bool) {
	t.Helper()
	ref, refCollectErr := refCollectStore(disk)

	// Offline replay: same aggregate, same replay apart from markers,
	// which now count each (shard, attempt) once.
	oagg, orep, oerr := refLoadStore(disk)
	nagg, nrep, nerr := LoadStore(disk, 0)
	if oerr != nil || nerr != nil {
		t.Fatalf("load: reference %v, scan %v", oerr, nerr)
	}
	if err := sameAggregate(oagg, nagg); err != nil {
		t.Fatalf("LoadStore aggregate: %v", err)
	}
	if ref != nil && nrep.Markers != len(ref.markers) {
		t.Fatalf("LoadStore markers %d, distinct markers %d", nrep.Markers, len(ref.markers))
	}
	if nrep.Markers > orep.Markers {
		t.Fatalf("LoadStore markers %d exceed the reference's %d", nrep.Markers, orep.Markers)
	}
	doubled = orep.Markers > nrep.Markers
	orep.Markers = nrep.Markers
	if orep != nrep {
		t.Fatalf("LoadStore replay:\nreference %+v\nscan      %+v", orep, nrep)
	}

	// Restart replay: the generation plus one shard's own journal.
	for i := 0; i < maxShardSlots; i++ {
		path := ShardJournalPath(i)
		if !disk.Exists(path) {
			continue
		}
		oagg := NewAggregate()
		var orep JournalReplay
		if err := refLoadManifestInto(disk, oagg, &orep); err != nil {
			t.Fatal(err)
		}
		if err := refLoadJournalInto(disk, path, oagg, &orep); err != nil {
			t.Fatal(err)
		}
		sc, err := scanStore(disk, []string{path})
		if err != nil {
			t.Fatal(err)
		}
		nagg, nrep := sc.replay()
		if err := sameAggregate(oagg, nagg); err != nil {
			t.Fatalf("restart replay of %s: %v", path, err)
		}
		orep.Markers = nrep.Markers
		if orep != nrep {
			t.Fatalf("restart replay of %s:\nreference %+v\nscan      %+v", path, orep, nrep)
		}
	}

	// Handoff burn set.
	oburn, err := refLoadBurnSet(disk)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scanStore(disk, storeJournals)
	if err != nil {
		t.Fatal(err)
	}
	if nburn := sc.burnSet(); !reflect.DeepEqual(oburn, nburn) {
		t.Fatalf("burn set differs:\nreference %v\nscan      %v", oburn, nburn)
	}

	// Compaction: the pass must write what the reference pass writes,
	// byte for byte, refuse exactly what the reference read refused,
	// and otherwise write the reference's markers, records and carried
	// loss and prune the reference's inputs.
	work, res, fio, cerr := checkPassMatchesReference(t, disk, 0)
	if refCollectErr != nil {
		if cerr == nil || cerr.Error() != refCollectErr.Error() || fio.ops != 0 {
			t.Fatalf("reference refused (%v), pass returned %v after %d mutations", refCollectErr, cerr, fio.ops)
		}
		return doubled
	}
	if cerr != nil {
		t.Fatalf("compaction: %v", cerr)
	}
	if !reflect.DeepEqual(sc.journals, ref.journals) {
		t.Fatalf("journals read: scan %v, reference %v", sc.journals, ref.journals)
	}
	if got := markerKeys(frameRecs(sc.markers)); !reflect.DeepEqual(got, markerKeys(ref.markers)) {
		t.Fatalf("markers: scan %v, reference %v", got, markerKeys(ref.markers))
	}
	if len(ref.journals) == 0 {
		if res != (CompactResult{}) || fio.ops != 0 {
			t.Fatalf("nothing to compact, but the pass did %+v", res)
		}
		return doubled
	}
	wantPrunedGen := 0
	if ref.man != nil {
		wantPrunedGen = len(ref.man.Files)
	}
	if !res.Committed || res.PrunedJournals != len(ref.journals) || res.PrunedGenFiles != wantPrunedGen {
		t.Fatalf("prune set: %+v, reference %d journals and %d generation files",
			res, len(ref.journals), wantPrunedGen)
	}
	if res.Markers != len(ref.markers) || res.Frames != len(ref.markers)+len(ref.recs) {
		t.Fatalf("generation footprint %+v, reference %d markers + %d records",
			res, len(ref.markers), len(ref.recs))
	}
	man, merr, err := readManifest(work)
	if err != nil || merr != nil || man == nil {
		t.Fatalf("new manifest unreadable: %v %v", err, merr)
	}
	if man.LostRecs != ref.lostRecs || man.LostBytes != ref.lostBytes {
		t.Fatalf("carried loss %d records / %d bytes, reference %d / %d",
			man.LostRecs, man.LostBytes, ref.lostRecs, ref.lostBytes)
	}
	after, err := scanStore(work, storeJournals)
	if err != nil {
		t.Fatal(err)
	}
	agg, _ := after.replay()
	var recs []*Record
	for _, h := range agg.Hosts() {
		recs = append(recs, agg.Records(h)...)
	}
	if len(recs) != len(ref.recs) {
		t.Fatalf("compacted %d records, reference %d", len(recs), len(ref.recs))
	}
	for i, rec := range recs {
		want := ref.recs[i]
		if rec.Host != want.Host || rec.Seq != want.Seq || rec.At != want.At ||
			rec.Kind != want.Kind || rec.Total() != want.Total() || !slices.Equal(rec.Counts, want.Counts) ||
			rec.Epoch != want.Epoch || !reflect.DeepEqual(rec.Entries, want.Entries) {
			t.Fatalf("compacted record %d (host %d seq %d) differs from the reference", i, want.Host, want.Seq)
		}
	}
	// The generation holds the markers sorted by (shard, attempt).
	want := markerKeys(ref.markers)
	sort.Slice(want, func(i, j int) bool {
		return want[i][0] < want[j][0] || want[i][0] == want[j][0] && want[i][1] < want[j][1]
	})
	if got := markerKeys(frameRecs(after.markers)); !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted markers %v, reference %v", got, want)
	}
	return doubled
}

// TestStoreScanMatchesReference runs the references and the store scan
// over crash-built stores, before and after an offline compaction, and
// over the store left by a compaction pass cut at every mutation point.
// A pass cut after its manifest commit but before pruning the journal
// that holds a restart marker leaves the marker in both places: the
// reference LoadStore counted it twice, the scan counts it once. No
// simulated run reaches that state (pruning is Disk.Remove, which has
// no fault point); the sweep's failing I/O does, and must.
func TestStoreScanMatchesReference(t *testing.T) {
	var sweep *kernel.Disk
	for _, seed := range []int64{101, 202, 303, 404} {
		hosts, deltas := 3, 7
		if seed == 404 {
			hosts, deltas = 4, 30 // the fault-point sweep's store
		}
		disk := buildStore(t, seed, hosts, deltas, seed != 101).Kern.Disk()
		if seed == 404 {
			sweep = cloneDisk(t, disk)
		}
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			checkStoreAgainstReference(t, disk)
			if _, err := CompactDisk(disk); err != nil {
				t.Fatal(err)
			}
			checkStoreAgainstReference(t, disk)
		})
	}
	probeDisk := cloneDisk(t, sweep)
	probe := &failingIO{inner: &diskCompactIO{d: probeDisk}}
	if _, err := compactPass(probeDisk, probe); err != nil {
		t.Fatal(err)
	}
	doubled := 0
	for k := 1; k <= probe.ops; k++ {
		t.Run(fmt.Sprintf("fault-at-%d", k), func(t *testing.T) {
			disk, res, _, err := checkPassMatchesReference(t, sweep, k)
			if err == nil {
				t.Fatalf("pass cut at %d reported no error", k)
			}
			if checkStoreAgainstReference(t, disk) {
				if !res.Committed {
					t.Fatalf("reference double-counted a marker before the commit at %d", k)
				}
				doubled++
			}
		})
	}
	if doubled == 0 {
		t.Fatal("no fault point left a marker in both the generation and a journal")
	}
}

// TestDamagedManifest covers the damaged-manifest path: a manifest
// with no intact record, and intact records with a bad header or a
// file count that disagrees with their file lines. Replay marks the
// damage, skips the generation (whose named file does not exist, so
// reading it would fail the load) and still replays every journal; a
// compaction pass refuses before its first mutation.
func TestDamagedManifest(t *testing.T) {
	base := buildStore(t, 202, 3, 7, true).Kern.Disk()
	want, wantRep, err := LoadStore(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	line := "file=" + GenFilePath(1, 0) + " frames=3 minat=1 maxat=2\n"
	for name, manifest := range map[string][]byte{
		"no-intact-record": record.Frame([]byte("#manifest gen=1 files=1 lostrecs=0 lostbytes=0\n" + line))[:20],
		"bad-header":       record.Frame([]byte("#manifest gen=one files=1 lostrecs=0 lostbytes=0\n" + line)),
		"not-a-manifest":   record.Frame([]byte(line)),
		"file-count":       record.Frame([]byte("#manifest gen=1 files=2 lostrecs=0 lostbytes=0\n" + line)),
	} {
		t.Run(name, func(t *testing.T) {
			disk := cloneDisk(t, base)
			disk.Append(ManifestPath, manifest)
			agg, rep, err := LoadStore(disk, 0)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if !rep.ManifestDamaged || rep.ManifestGen != 0 || rep.GenFiles != 0 {
				t.Fatalf("replay %+v: want a damaged manifest and no generation", rep)
			}
			if err := sameAggregate(agg, want); err != nil {
				t.Fatalf("journals not replayed: %v", err)
			}
			rep.ManifestDamaged = false
			if rep != wantRep {
				t.Fatalf("replay %+v, want %+v", rep, wantRep)
			}
			fio := &failingIO{inner: &diskCompactIO{d: disk}}
			if _, err := compactPass(disk, fio); err == nil || !strings.Contains(err.Error(), "compaction refused") {
				t.Fatalf("compaction over a damaged manifest: %v", err)
			}
			if fio.ops != 0 {
				t.Fatalf("refused pass made %d mutations", fio.ops)
			}
			checkStoreAgainstReference(t, disk)
		})
	}
}

// TestReadSpill: the one spill reader keeps a host's own delta and map
// records in file order and counts everything else — a record from
// another host, a restart marker, a payload that will not parse — while
// the salvage layer drops a torn tail; ReingestSpills and
// AssembleIntegrity both report what it read.
func TestReadSpill(t *testing.T) {
	counts := []oprofile.KeyCount{{Key: oprofile.Key{Image: "a", Proc: "p"}, Count: 5}}
	encode := func(r Record) []byte { return r.Encode() }
	own1 := encode(Record{Kind: KindDelta, Host: 3, Seq: 1, At: 10, Counts: counts})
	foreign := encode(Record{Kind: KindDelta, Host: 4, Seq: 2, At: 10, Counts: counts})
	own2 := encode(Record{Kind: KindMap, Host: 3, Seq: 3, Epoch: 1, At: 20})
	own3 := encode(Record{Kind: KindDelta, Host: 3, Seq: 4, At: 30, Counts: counts})
	disk := kernel.NewDisk()
	for _, frame := range [][]byte{own1, foreign, encode(Record{Kind: KindRestart, Attempt: 1}), own2,
		record.Frame([]byte("junk")), own3[:len(own3)-1]} {
		disk.Append(SpillPath(3), frame)
	}
	msgs, sal, bad, err := readSpill(disk, 3)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for _, m := range msgs {
		seqs = append(seqs, m.Seq)
	}
	if !reflect.DeepEqual(seqs, []uint64{1, 3}) || bad != 3 || sal.DroppedRecords != 1 {
		t.Fatalf("read seqs %v, %d bad, salvage %+v; want [1 3], 3 bad, one dropped record", seqs, bad, sal)
	}
	if msgs, _, bad, err := readSpill(disk, 5); msgs != nil || bad != 0 || err != nil {
		t.Fatalf("missing spill file read as %v, %d bad, %v", msgs, bad, err)
	}
	ri := ReingestSpills(disk, NewAggregate(), []int{3})[0]
	if ri.Applied != 2 || ri.ParseErrors != 3 || ri.Salvage != sal || ri.ReadError {
		t.Fatalf("reingest %+v", ri)
	}
	hr := AssembleIntegrity(disk, NewAggregate(), JournalReplay{}, []int{3}, NetFaultStats{}).Hosts[0]
	if !reflect.DeepEqual(hr.SpillSeqs, []uint64{1, 3}) || hr.SpillSamples != 5 || hr.SpillParse != 3 || hr.SpillSalvage != sal {
		t.Fatalf("integrity host report %+v", hr)
	}
}
