package fleet

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"viprof/internal/kernel"
	"viprof/internal/record"
)

// LSM-style compaction of the fleet sample store. The shard journals
// are the write path: append-only, one per shard, growing without
// bound. The compactor periodically folds the current generation plus
// every journal into a fresh generation of sorted, deduplicated files
// and then prunes what it read — with a commit discipline that makes a
// crash at any fault point harmless:
//
//  1. every new-generation data file is written temp-then-rename;
//  2. the manifest naming the new files is written temp-then-rename —
//     this rename is the COMMIT POINT;
//  3. only after the commit are the old generation's files and the
//     absorbed journals pruned.
//
// Before the commit the old manifest still names the old files and the
// journals are untouched, so a crashed pass leaves at worst stray
// g-files the next pass overwrites (and integrity counts). After the
// commit, an interrupted prune leaves journals whose every frame the
// new generation already holds — replay dedups them by seq burning.
// Either way the store reads back complete.
//
// A compaction pass never destroys evidence: restart markers are
// copied into the new generation, and record-level damage salvaged out
// of the journals is carried forward in the manifest's lost counters,
// so offline integrity still sees cumulative loss no matter how many
// generations later it runs. Checksum-valid records whose header will
// not parse (the fragments a torn map frame sheds) are not copied
// either: they too are carried forward as loss.
//
// A pass parses no record body. It dedups and orders the store's
// frames by their headers and copies each kept frame's payload into
// the new generation, which writes the bytes re-encoding the record
// would: every frame in the store is Record.Encode output (store.go).
//
// Concurrency: the pass runs inside one executor Step of the
// compactord daemon. The scheduler is cooperative — a Step is atomic —
// so the pass never interleaves with shard appends; the single-writer
// discipline is the machine model, not a lock.

// compactFileFrames is the frame-count chunk size of one generation
// data file.
const compactFileFrames = 96

// Manifest is the parsed generation index: the one file that names the
// current generation. Its atomic replacement is the compaction commit.
type Manifest struct {
	Gen int
	// LostRecs / LostBytes carry cumulative salvage damage absorbed by
	// past compactions forward, so pruning a torn journal does not
	// erase the evidence that it was torn.
	LostRecs, LostBytes int
	Files               []ManifestFile
}

// ManifestFile is one generation data file with its replay footprint.
type ManifestFile struct {
	Path   string
	Frames int
	// MinAt / MaxAt bound the sample-delta timestamps inside, letting
	// windowed queries skip whole files (0,0 for marker-only files).
	MinAt, MaxAt uint64
}

// manifestPayload serializes the manifest as one framed record:
//
//	#manifest gen=<g> files=<k> lostrecs=<n> lostbytes=<n>
//	file=<path> frames=<n> minat=<a> maxat=<b>
//	...
func manifestPayload(man *Manifest) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "#manifest gen=%d files=%d lostrecs=%d lostbytes=%d\n",
		man.Gen, len(man.Files), man.LostRecs, man.LostBytes)
	for _, mf := range man.Files {
		fmt.Fprintf(&buf, "file=%s frames=%d minat=%d maxat=%d\n",
			mf.Path, mf.Frames, mf.MinAt, mf.MaxAt)
	}
	return record.Frame(buf.Bytes())
}

// parseManifest parses a manifest file. The last intact record wins
// (a rewritten manifest appends before its stale predecessor is
// reclaimed); no intact record, a malformed header, or a file-line
// count that disagrees with the header is damage — the caller treats
// the generation index as gone and falls back to the journals.
func parseManifest(data []byte) (*Manifest, error) {
	recs, _ := record.Scan(data)
	if len(recs) == 0 {
		return nil, fmt.Errorf("fleet: manifest has no intact record")
	}
	payload := recs[len(recs)-1]
	lines := strings.Split(strings.TrimRight(string(payload), "\n"), "\n")
	fields := strings.Fields(lines[0])
	if len(fields) == 0 || fields[0] != "#manifest" {
		return nil, fmt.Errorf("fleet: manifest record has no #manifest header")
	}
	man := &Manifest{}
	wantFiles := -1
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("fleet: malformed manifest field %q", f)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("fleet: manifest %s: %v", k, err)
		}
		switch k {
		case "gen":
			man.Gen = n
		case "files":
			wantFiles = n
		case "lostrecs":
			man.LostRecs = n
		case "lostbytes":
			man.LostBytes = n
		}
	}
	if man.Gen <= 0 {
		return nil, fmt.Errorf("fleet: manifest gen %d", man.Gen)
	}
	for _, line := range lines[1:] {
		mf := ManifestFile{}
		if _, err := fmt.Sscanf(line, "file=%s frames=%d minat=%d maxat=%d",
			&mf.Path, &mf.Frames, &mf.MinAt, &mf.MaxAt); err != nil {
			return nil, fmt.Errorf("fleet: manifest file line %q: %v", line, err)
		}
		man.Files = append(man.Files, mf)
	}
	if wantFiles >= 0 && wantFiles != len(man.Files) {
		return nil, fmt.Errorf("fleet: manifest names %d files, header says %d",
			len(man.Files), wantFiles)
	}
	return man, nil
}

// compactIO is the write-side the compaction pass runs against: the
// faultable kernel syscalls for the online daemon, direct disk ops for
// the offline API, and (in tests) a wrapper that fails at the k-th
// operation to sweep every fault point.
type compactIO interface {
	WriteSync(path string, data []byte) error
	Rename(oldPath, newPath string) error
	Remove(path string) error
}

// kernelCompactIO charges writes and renames through the (faultable)
// syscall layer on behalf of the compactord process. Removes are
// metadata-only disk ops.
type kernelCompactIO struct {
	m *kernel.Machine
	p *kernel.Process
}

func (io *kernelCompactIO) WriteSync(path string, data []byte) error {
	// The target is always a fresh temp path; clear any leftover from
	// an aborted pass first, because the write syscall appends.
	io.m.Kern.Disk().Remove(path)
	//viplint:allow record-frame compaction payloads are concatenations of already-framed records (record.AppendFrame / manifestPayload)
	return io.m.Kern.SysWriteSync(io.p, path, data)
}

func (io *kernelCompactIO) Rename(oldPath, newPath string) error {
	return io.m.Kern.SysRename(io.p, oldPath, newPath)
}

func (io *kernelCompactIO) Remove(path string) error {
	io.m.Kern.Disk().Remove(path)
	return nil
}

// diskCompactIO is the offline write-side: direct disk mutation, no
// faults, no process.
type diskCompactIO struct {
	d *kernel.Disk
}

func (io *diskCompactIO) WriteSync(path string, data []byte) error {
	io.d.Remove(path)
	io.d.Append(path, data)
	return nil
}

func (io *diskCompactIO) Rename(oldPath, newPath string) error {
	return io.d.Rename(oldPath, newPath)
}

func (io *diskCompactIO) Remove(path string) error {
	io.d.Remove(path)
	return nil
}

// CompactResult summarizes one compaction pass.
type CompactResult struct {
	// Committed: the new manifest rename landed (the store's current
	// generation is now Gen). A pass can commit and still return an
	// error if pruning was interrupted — replay dedups the leftovers.
	Committed bool
	Gen       int
	// Files / Frames / Markers are the new generation's footprint.
	Files, Frames, Markers int
	// PrunedJournals / PrunedGenFiles count what the pass reclaimed.
	PrunedJournals, PrunedGenFiles int
}

// compactPass runs one full compaction: scan, sort, write the new
// generation temp-then-rename, commit the manifest, prune. See the
// file comment for the crash-safety argument at each fault point.
//
// A pass reads the whole store — current generation first, so its copy
// of a record wins the dedup — and never builds a generation from a
// store it could not fully read: an EIO or a damaged manifest aborts
// before the first write, because committing would prune files whose
// content the pass missed. Checksum-valid records whose header fails
// to parse are carried forward as loss instead.
func compactPass(disk *kernel.Disk, io compactIO) (CompactResult, error) {
	var res CompactResult
	sc, err := scanStore(disk, storeJournals)
	if err != nil {
		return res, err
	}
	if sc.manErr != nil {
		return res, fmt.Errorf("fleet: compaction refused: %v", sc.manErr)
	}
	if len(sc.journals) == 0 {
		return res, nil // nothing new since the last pass
	}
	// The new generation's frames in file order. Restart markers lead
	// (they carry no timestamp and must survive every generation),
	// sorted by (Shard, Attempt).
	markers := sc.markers
	slices.SortFunc(markers, func(x, y storeFrame) int {
		a, b := x.rec, y.rec
		if c := cmp.Compare(a.Shard, b.Shard); c != 0 {
			return c
		}
		return cmp.Compare(a.Attempt, b.Attempt)
	})
	frames := make([]storeFrame, len(markers), len(markers)+len(sc.frames))
	copy(frames, markers)
	// Then the first copy of each (host, seq), the one a replay applies,
	// sorted by (At, Host, Seq): the time axis first, so a windowed
	// query over a generation is a contiguous run and
	// ManifestFile.MinAt/MaxAt bounds are tight.
	seen := make(map[[2]uint64]bool, len(sc.frames))
	for _, f := range sc.frames {
		key := [2]uint64{uint64(f.rec.Host), f.rec.Seq}
		if !seen[key] {
			seen[key] = true
			frames = append(frames, f)
		}
	}
	slices.SortFunc(frames[len(markers):], func(x, y storeFrame) int {
		a, b := x.rec, y.rec
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Host, b.Host); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})

	// The new manifest carries the scan's salvage loss and unparseable
	// records forward, with what the old manifest carried.
	man := &Manifest{
		Gen:       1,
		LostRecs:  sc.sal.DroppedRecords + sc.unparsed.DroppedRecords,
		LostBytes: sc.sal.DroppedBytes + sc.unparsed.DroppedBytes,
	}
	if sc.man != nil {
		man.Gen = sc.man.Gen + 1
		man.LostRecs += sc.man.LostRecs
		man.LostBytes += sc.man.LostBytes
	}

	// Chunk into data files of compactFileFrames frames; the first
	// holds every marker, however many, and an empty store writes none
	// but still prunes its empty journals. A frame's size is known, so
	// each file's buffer is allocated once at its final size.
	res.Markers = len(markers)
	for idx, lo := 0, 0; lo < len(frames); idx++ {
		hi := min(lo+compactFileFrames, len(frames))
		if idx == 0 {
			hi = max(hi, len(markers))
		}
		chunk := frames[lo:hi]
		lo = hi
		size := 0
		for _, f := range chunk {
			size += record.HeaderSize + len(f.payload)
		}
		buf := make([]byte, 0, size)
		mf := ManifestFile{Path: GenFilePath(man.Gen, idx), Frames: len(chunk)}
		timed := false
		for _, f := range chunk {
			buf = record.AppendFrame(buf, f.payload)
			if f.rec.Kind == KindRestart {
				continue // markers carry no timestamp
			}
			if !timed {
				mf.MinAt, mf.MaxAt, timed = f.rec.At, f.rec.At, true
			}
			mf.MinAt, mf.MaxAt = min(mf.MinAt, f.rec.At), max(mf.MaxAt, f.rec.At)
		}
		tmp := mf.Path + ".tmp"
		if err := io.WriteSync(tmp, buf); err != nil {
			return res, err
		}
		if err := io.Rename(tmp, mf.Path); err != nil {
			return res, err
		}
		man.Files = append(man.Files, mf)
		res.Files++
		res.Frames += len(chunk)
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
	res.Gen = man.Gen

	// Persist-before-prune: only now reclaim the inputs.
	if sc.man != nil {
		for _, mf := range sc.man.Files {
			if err := io.Remove(mf.Path); err != nil {
				return res, err
			}
			res.PrunedGenFiles++
		}
	}
	for _, path := range sc.journals {
		if err := io.Remove(path); err != nil {
			return res, err
		}
		res.PrunedJournals++
	}
	return res, nil
}

// CompactDisk compacts the store offline (direct disk mutation, no
// machine): the API vipreport-side tooling and the quickcheck oracle
// drive.
func CompactDisk(disk *kernel.Disk) (CompactResult, error) {
	return compactPass(disk, &diskCompactIO{d: disk})
}

// Compactor is the compactord daemon: one compaction pass per wake.
// The supervisor restarts it like a shard, but a gave-up compactor
// only stops compacting; it never fails the service (journals keep the
// store complete, just unreclaimed).
type Compactor struct {
	supervised
	c *Collector
}

// Step implements kernel.Executor: one atomic compaction pass, then
// sleep a period. The pass's syscalls are faultable; an injected crash
// kills the process mid-pass, which is exactly the fault point the
// commit discipline exists for.
func (co *Compactor) Step(m *kernel.Machine, p *kernel.Process) kernel.StepResult {
	res, err := compactPass(m.Kern.Disk(), &kernelCompactIO{m: m, p: p})
	if res.Committed {
		co.c.stats.Compactions++
	}
	if p.Killed() {
		return kernel.StepBlocked
	}
	if err != nil {
		co.c.stats.CompactErrors++
	}
	m.Kern.Sleep(p, co.c.cfg.CompactEveryCycles)
	return kernel.StepBlocked
}

// spawnCompactor registers the compactord daemon process (unpinned —
// the scheduler floats it to whatever core is idle).
func (c *Collector) spawnCompactor(m *kernel.Machine) error {
	if c.compactor == nil {
		c.compactor = &Compactor{c: c}
	}
	proc, err := m.Kern.NewProcess("compactord", c.compactor)
	if err != nil {
		return err
	}
	proc.Daemon = true
	c.compactor.proc = proc
	return nil
}
