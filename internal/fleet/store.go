package fleet

import (
	"slices"

	"viprof/internal/kernel"
	"viprof/internal/record"
)

// The store scan. Every reader of the durable store reads it one way:
// MANIFEST, then the generation files it names, then the given shard
// journals in slot order, each file salvage-scanned as it is read and
// every intact frame classified by its header alone. Bodies are parsed
// only where records are applied: offline replay (LoadStore) and a
// shard's restart replay. The handoff burn of a failover or restart
// keeps the headers' (host, seq) pairs, and a compaction pass dedups
// and sorts by header and copies each kept frame verbatim, refusing a
// damaged manifest and carrying records whose header will not parse
// forward as loss. The fixed read order means every caller draws the
// read-fault schedule the same way; an EIO anywhere fails the scan.
//
// Copying a frame writes what re-encoding its record would, because
// every frame in the store is Record.Encode output: a shard journals
// the exact bytes DecodeWire accepted from a sender's Encode, restart
// markers are encoded where they are written, and generation frames
// are copies of those. CheckStoreFrames checks the invariant.

// storeJournals is every shard-journal slot, probed by direct path so a
// damaged directory listing can never hide a journal.
var storeJournals = func() []string {
	paths := make([]string, maxShardSlots)
	for i := range paths {
		paths[i] = ShardJournalPath(i)
	}
	return paths
}()

// storeFrame is one intact frame of the store as its header reads: rec
// holds the header's fields (and the body once replay decodes it into
// it), payload the frame's payload.
type storeFrame struct {
	rec     *Record
	payload []byte
}

// storeScan is one read of the durable store.
type storeScan struct {
	// man indexes the current generation: nil if there is none, or if
	// the manifest is damaged (manErr says how) and its generation was
	// skipped.
	man    *Manifest
	manErr error
	// genFiles / genFrames are the generation's footprint; journals the
	// journal paths that existed.
	genFiles, genFrames int
	journals            []string
	// frames are the delta and map frames in read order, duplicates
	// included; markers the restart markers, one per (shard, attempt).
	frames, markers []storeFrame
	markerSeen      map[[2]int]bool
	// sal sums the salvage loss of every file read; unparsed counts the
	// checksum-valid records whose header would not parse.
	sal, unparsed record.Salvage
}

// scanStore reads the store: the manifest, its generation files, then
// whichever of journals exist.
func scanStore(disk *kernel.Disk, journals []string) (*storeScan, error) {
	sc := &storeScan{markerSeen: make(map[[2]int]bool)}
	man, merr, err := readManifest(disk)
	if err != nil {
		return nil, err
	}
	sc.man, sc.manErr = man, merr
	if man != nil {
		for _, mf := range man.Files {
			n, err := sc.scanFile(disk, mf.Path)
			if err != nil {
				return nil, err
			}
			sc.genFiles++
			sc.genFrames += n
		}
	}
	for _, path := range journals {
		if !disk.Exists(path) {
			continue
		}
		if _, err := sc.scanFile(disk, path); err != nil {
			return nil, err
		}
		sc.journals = append(sc.journals, path)
	}
	return sc, nil
}

// scanFile reads one generation file or journal into sc and returns its
// intact record count.
func (sc *storeScan) scanFile(disk *kernel.Disk, path string) (int, error) {
	data, err := disk.Read(path)
	if err != nil {
		return 0, err
	}
	recs, sal := record.Scan(data)
	sc.sal.DroppedRecords += sal.DroppedRecords
	sc.sal.DroppedBytes += sal.DroppedBytes
	sc.frames = slices.Grow(sc.frames, len(recs))
	// One allocation holds the file's headers.
	heads := make([]Record, len(recs))
	for i, payload := range recs {
		msg := &heads[i]
		switch herr := msg.parseHeader(payload); {
		case herr != nil:
			// Checksum-valid but unparseable: the torn tail of a map
			// frame sheds its inner entry records as intact-looking
			// fragments (the map body is itself a framed stream), and
			// none of them starts with a record header. The torn record
			// was never acked, so its intact retry copy is also in the
			// store; the fragment is loss evidence, not content.
			sc.unparsed.DroppedRecords++
			sc.unparsed.DroppedBytes += len(payload)
		case msg.Kind == KindDelta || msg.Kind == KindMap:
			sc.frames = append(sc.frames, storeFrame{msg, payload})
		case msg.Kind == KindRestart:
			key := [2]int{msg.Shard, msg.Attempt}
			if !sc.markerSeen[key] {
				sc.markerSeen[key] = true
				sc.markers = append(sc.markers, storeFrame{msg, payload})
			}
		}
	}
	return len(recs), nil
}

// replay decodes the first copy of each (host, seq) into a fresh
// aggregate and classifies every scanned frame. A body that will not
// parse is a parse error, like a header that will not.
func (sc *storeScan) replay() (*Aggregate, JournalReplay) {
	agg := NewAggregate()
	rep := JournalReplay{
		Salvage:         sc.sal,
		Markers:         len(sc.markers),
		ParseErrors:     sc.unparsed.DroppedRecords,
		Journals:        len(sc.journals),
		GenFiles:        sc.genFiles,
		GenFrames:       sc.genFrames,
		ManifestDamaged: sc.manErr != nil,
	}
	if sc.man != nil {
		rep.ManifestGen = sc.man.Gen
		// Damage absorbed by past compactions is carried forward in the
		// manifest, so pruned torn journals still count as loss here.
		rep.Salvage.DroppedRecords += sc.man.LostRecs
		rep.Salvage.DroppedBytes += sc.man.LostBytes
	}
	for _, f := range sc.frames {
		switch {
		case agg.Applied(f.rec.Host, f.rec.Seq):
			rep.Duplicates++
		case f.rec.decodeBody(f.payload) != nil:
			rep.ParseErrors++
		default:
			agg.Apply(f.rec)
			if f.rec.Kind == KindMap {
				rep.Maps++
			} else {
				rep.Deltas++
			}
		}
	}
	return agg, rep
}

// burnSet returns the scanned (host, seq) pairs: the
// duplicate-suppression set a shard burns before absorbing a dead
// peer's hosts or rejoining the serving set.
func (sc *storeScan) burnSet() map[int]map[uint64]bool {
	burn := make(map[int]map[uint64]bool)
	for _, f := range sc.frames {
		set := burn[f.rec.Host]
		if set == nil {
			set = make(map[uint64]bool)
			burn[f.rec.Host] = set
		}
		set[f.rec.Seq] = true
	}
	return burn
}

// readManifest reads the generation index: a nil manifest and nil
// errors if there is none, the parse failure as merr if it is damaged,
// and the read failure as err if it cannot be read.
func readManifest(disk *kernel.Disk) (man *Manifest, merr, err error) {
	if !disk.Exists(ManifestPath) {
		return nil, nil, nil
	}
	data, err := disk.Read(ManifestPath)
	if err != nil {
		return nil, nil, err
	}
	man, merr = parseManifest(data)
	return man, merr, nil
}

// readSpill reads a host's spill file: the parked delta and map records
// from that host in file order, the file's salvage loss, and how many
// checksum-valid records would not parse or belong elsewhere. A missing
// file reads as empty.
func readSpill(disk *kernel.Disk, host int) (msgs []*Record, sal record.Salvage, bad int, err error) {
	path := SpillPath(host)
	if !disk.Exists(path) {
		return nil, sal, 0, nil
	}
	data, err := disk.Read(path)
	if err != nil {
		return nil, sal, 0, err
	}
	recs, sal := record.Scan(data)
	for _, payload := range recs {
		msg, derr := DecodePayload(payload)
		if derr != nil || (msg.Kind != KindDelta && msg.Kind != KindMap) || msg.Host != host {
			bad++
			continue
		}
		msgs = append(msgs, msg)
	}
	return msgs, sal, bad, nil
}
