// Package core implements VIProf, the paper's contribution: the
// runtime-profiler extension that claims JIT-region samples, the VM
// agent that tracks compilations and GC code motion through epoch code
// maps, and the post-processing that resolves epoch-tagged samples to
// Java methods across the whole stack.
package core

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"viprof/internal/addr"
	"viprof/internal/kernel"
	"viprof/internal/record"
)

// MapEntry is one record of a JIT code map: where a compiled method
// body lived when the map was written.
type MapEntry struct {
	Start addr.Address
	Size  uint32
	// Epoch is the epoch this entry belongs to. Map files carry it per
	// entry because a failed epoch write is deferred into the next
	// file: the tag lets recovery re-slot each entry into its true
	// epoch, so deferral is lossless for resolution.
	Epoch int
	Level string // compiler tier ("base"/"opt")
	Sig   string // fully qualified method signature
}

// End returns the exclusive end of the body.
func (e MapEntry) End() addr.Address { return e.Start + addr.Address(e.Size) }

// MapDir is the disk directory the VM agent writes code maps under.
const MapDir = "var/lib/viprof/jit-maps"

// MapPath names the map file for one (pid, epoch).
func MapPath(pid, epoch int) string {
	return fmt.Sprintf("%s/%d/map.%d", MapDir, pid, epoch)
}

// AppendMapFile appends the map file of entries to dst: one framed +
// checksummed record per entry (see internal/record),
//
//	<hex start> <size> <epoch> <level> <signature>
//
// then a framed trailer recording the entry count. A write torn
// mid-file loses only the records past the tear — the salvage reader
// recovers every intact entry and the missing trailer marks the file
// as incomplete.
func AppendMapFile(dst []byte, entries []MapEntry) []byte {
	var line []byte
	for _, e := range entries {
		line = fmt.Appendf(line[:0], "%08x %d %d %s %s\n",
			uint64(e.Start), e.Size, e.Epoch, e.Level, e.Sig)
		dst = record.AppendFrame(dst, line)
	}
	return record.AppendFrame(dst, fmt.Appendf(line[:0], "#end %d\n", len(entries)))
}

// ReadMapFile parses map entries and verifies the trailer; any damage
// is a hard error here. Use salvageMapData to recover what survives a
// torn file.
func ReadMapFile(data []byte) ([]MapEntry, error) {
	entries, sal, trailerOK, err := salvageMapData(data)
	if err != nil {
		return nil, err
	}
	if sal.Lossy() {
		return nil, fmt.Errorf("code map corrupt: %d records dropped (%d bytes)",
			sal.DroppedRecords, sal.DroppedBytes)
	}
	if !trailerOK {
		return nil, fmt.Errorf("code map truncated: trailer missing or entry count mismatch (torn write?)")
	}
	return entries, nil
}

// salvageMapData recovers every intact entry of a possibly-damaged map
// file. trailerOK reports whether the end-trailer was found and its
// count matches the recovered entries (i.e. the file is provably
// complete). A checksum-valid record that fails to parse is a writer
// bug, not disk damage, and errors hard. No entry aliases data.
func salvageMapData(data []byte) (entries []MapEntry, sal record.Salvage, trailerOK bool, err error) {
	recs, sal := record.Scan(data)
	trailer := -1
	for _, payload := range recs {
		text := bytes.TrimSpace(payload)
		if len(text) == 0 {
			continue
		}
		if rest, ok := bytes.CutPrefix(text, []byte("#end ")); ok {
			n, perr := strconv.Atoi(string(mapTrailerCount(rest)))
			if perr != nil {
				return nil, sal, false, fmt.Errorf("code map: bad trailer %q", text)
			}
			trailer = n
			continue
		}
		e, perr := parseMapEntry(text)
		if perr != nil {
			return nil, sal, false, fmt.Errorf("code map entry %q: %v", text, perr)
		}
		if entries == nil {
			// Every record but the trailer is an entry.
			entries = make([]MapEntry, 0, len(recs)-1)
		}
		entries = append(entries, e)
	}
	trailerOK = trailer == len(entries)
	return entries, sal, trailerOK, nil
}

// parseMapEntry parses one trimmed, non-empty entry line in place with
// strconv. It accepts exactly the lines fmt.Sscanf(text,
// "%x %d %d %s %s") accepts, and returns the same fields:
//
//   - fields are split on runs of white space (unicode.IsSpace, the set
//     fmt's scanner splits on), and no separator may hold a newline;
//   - start is hex digits, size decimal digits below 2^32, and epoch a
//     decimal with an optional sign: what strconv reads, so no sign on
//     start or size and no base prefix anywhere;
//   - level and signature are runs of non-space runes;
//   - anything after the signature is ignored.
func parseMapEntry(text []byte) (MapEntry, error) {
	var f [5][]byte
	for i := range f {
		if f[i], text = mapField(text); len(f[i]) == 0 {
			return MapEntry{}, fmt.Errorf("%d fields, want 5", i)
		}
	}
	// string(field) of a short numeric field stays on the stack:
	// strconv copies whatever text it keeps in an error.
	start, err := strconv.ParseUint(string(f[0]), 16, 64)
	var size uint64
	var epoch int
	if err == nil {
		size, err = strconv.ParseUint(string(f[1]), 10, 32)
	}
	if err == nil {
		epoch, err = strconv.Atoi(string(f[2]))
	}
	if err != nil {
		return MapEntry{}, err
	}
	return MapEntry{
		Start: addr.Address(start), Size: uint32(size), Epoch: epoch,
		Level: mapLevel(f[3]), Sig: mapText(f[4]),
	}, nil
}

// mapTrailerCount returns the optionally signed run of digits that
// leads the text after a trailer's "#end " (empty if there is none),
// which is what fmt.Sscanf(text, "#end %d") reads: anything after the
// digits is ignored.
func mapTrailerCount(rest []byte) []byte {
	field, _ := mapField(rest)
	n := 0
	if n < len(field) && (field[0] == '+' || field[0] == '-') {
		n++
	}
	for n < len(field) && '0' <= field[n] && field[n] <= '9' {
		n++
	}
	return field[:n]
}

// mapField skips white space other than a newline and splits the run
// of non-space bytes after it off text. The field is empty when text
// ends or a newline comes first.
func mapField(text []byte) (field, rest []byte) {
	for len(text) > 0 && text[0] != '\n' {
		w := mapSpace(text)
		if w == 0 {
			break
		}
		text = text[w:]
	}
	n := 0
	for n < len(text) {
		// Stepping byte by byte finds the spaces that decoding rune by
		// rune would: a continuation byte never starts one.
		c := text[n]
		if c == ' ' || c-'\t' <= '\r'-'\t' || c >= utf8.RuneSelf && mapSpace(text[n:]) > 0 {
			break
		}
		n++
	}
	return text[:n], text[n:]
}

// mapSpace returns the width of the white-space rune that starts b, or
// 0.
func mapSpace(b []byte) int {
	if r, w := utf8.DecodeRune(b); unicode.IsSpace(r) {
		return w
	}
	return 0
}

// mapLevel returns the compiler tier field: a constant for the two
// tiers the agent writes, a copy for anything else.
func mapLevel(b []byte) string {
	switch string(b) {
	case "base":
		return "base"
	case "opt":
		return "opt"
	}
	return mapText(b)
}

// mapText copies a text field out of the input. Like fmt's %s, which
// re-encodes what it reads rune by rune, it turns each byte of invalid
// UTF-8 into U+FFFD.
func mapText(b []byte) string {
	if utf8.Valid(b) {
		return string(b)
	}
	return string([]rune(string(b)))
}

// ChainIntegrity sums the damage found while loading one process's map
// chain from disk.
type ChainIntegrity struct {
	// Files is map files read; OrphanTmp counts .tmp files left by a
	// crash between the data write and the atomic rename.
	Files, OrphanTmp int
	// Entries is intact entries recovered.
	Entries int
	// Salvage accounting summed over files.
	DroppedRecords, DroppedBytes int
	// TornFiles is files with dropped records or a bad trailer.
	TornFiles int
	// UnreadableFiles is map files that exist but failed to read back
	// (EIO from a degraded disk). Every entry they held is lost, so they
	// poison the chain at their epoch like a torn file does.
	UnreadableFiles int
	// Quarantined counts .quarantined files the recovery pass set
	// aside: orphan temps too damaged to adopt, preserved as evidence.
	Quarantined int
	// MissingCommitted counts epochs the agent journal ratified whose
	// final files were nonetheless absent from the directory listing —
	// a lost dirent, not a deferred write. Each poisons the chain at
	// its epoch so hidden entries cannot shadow-resolve.
	MissingCommitted int
	// JournalDamaged is 1 when the commit journal was torn, unreadable,
	// or unparseable; the chain is conservatively poisoned whole.
	JournalDamaged int
}

// MapChain is one process's sequence of epoch code maps, supporting the
// paper's backward search: "the tools will initially search for a
// sample in the map file corresponding to the epoch during which the
// sample was recorded. If the sample is not found in the epoch's map,
// the tool will search the immediately preceding map and so on" (§3.2).
type MapChain struct {
	// maps[e] holds epoch e's entries sorted by Start; nil when the
	// epoch wrote no map.
	maps [][]MapEntry

	// integ is what loading from disk found; poisonCeil is the highest
	// epoch whose file was damaged (-1 = none). ResolveDurable refuses
	// to attribute through damaged epochs rather than guess.
	integ      ChainIntegrity
	poisonCeil int
}

// NewMapChain builds a chain from per-epoch entry lists (index =
// epoch).
func NewMapChain(perEpoch [][]MapEntry) *MapChain {
	return NewLossyMapChain(perEpoch, nil)
}

// NewLossyMapChain builds a chain like NewMapChain that knows the maps
// of the lost epochs existed and are gone (a torn, unreadable or
// vanished file, an unreplicated epoch). The chain is poisoned at the
// highest of them: ResolveDurable refuses any hit those maps could
// have shadowed.
func NewLossyMapChain(perEpoch [][]MapEntry, lost []int) *MapChain {
	c := &MapChain{maps: make([][]MapEntry, len(perEpoch)), poisonCeil: -1}
	for e, entries := range perEpoch {
		sorted := append([]MapEntry(nil), entries...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
		c.maps[e] = sorted
	}
	for _, e := range lost {
		c.poisonCeil = max(c.poisonCeil, e)
	}
	return c
}

// ReadMapChain loads every map file for a pid from the simulated disk,
// salvaging what damage allows and accounting for the rest (see
// Integrity). Missing epochs (no file) are tolerated; entries land in
// the epoch their tag names, which is how deferred-then-merged entries
// find their way home.
func ReadMapChain(disk *kernel.Disk, pid int) (*MapChain, error) {
	prefix := fmt.Sprintf("%s/%d/", MapDir, pid)
	var integ ChainIntegrity
	var lost []int
	maxEpoch := -1
	type loaded struct {
		fileEpoch int
		entries   []MapEntry
	}
	var files []loaded
	present := make(map[int]bool)
	for _, name := range disk.List() {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		base := name[len(prefix):]
		if strings.HasSuffix(base, ".quarantined") {
			// The recovery pass set this damaged orphan aside; it is
			// preserved evidence, never resolved through.
			integ.Quarantined++
			continue
		}
		if strings.HasSuffix(base, ".tmp") {
			// A crash struck between the map data write and the atomic
			// rename: the final file never appeared, and this orphan is
			// the durable evidence (until recovery adopts or quarantines
			// it).
			integ.OrphanTmp++
			continue
		}
		numStr, found := strings.CutPrefix(base, "map.")
		if !found {
			continue // agent.stats, the commit journal, other non-map files
		}
		fileEpoch, err := strconv.Atoi(numStr)
		if err != nil || fileEpoch < 0 {
			continue // move logs ("map.-1.moves") etc.
		}
		present[fileEpoch] = true
		data, err := disk.Read(name)
		if err != nil {
			// The file exists but would not read back (EIO). Silently
			// skipping it would let the backward search walk past the
			// epoch and attribute samples through entries we never saw —
			// misattribution by omission. Count the loss and poison the
			// chain at this epoch instead, exactly as for a torn file.
			integ.Files++
			integ.UnreadableFiles++
			lost = append(lost, fileEpoch)
			if fileEpoch > maxEpoch {
				maxEpoch = fileEpoch
			}
			continue
		}
		entries, sal, trailerOK, err := salvageMapData(data)
		if err != nil {
			return nil, fmt.Errorf("map chain pid %d epoch %d: %v", pid, fileEpoch, err)
		}
		integ.Files++
		integ.Entries += len(entries)
		integ.DroppedRecords += sal.DroppedRecords
		integ.DroppedBytes += sal.DroppedBytes
		if sal.Lossy() || !trailerOK {
			integ.TornFiles++
			lost = append(lost, fileEpoch)
		}
		if fileEpoch > maxEpoch {
			maxEpoch = fileEpoch
		}
		files = append(files, loaded{fileEpoch, entries})
	}
	// Cross-check the listing against the agent's commit journal. A
	// directory listing is the third trusted surface after writes and
	// reads: a lost dirent silently hides a committed epoch, and the
	// backward search would then attribute samples through older,
	// staler entries — misattribution by omission. The journal (read by
	// direct path, so a damaged listing cannot hide it) says which
	// epochs were actually committed:
	//
	//   - journal intact + agent stats clean with zero journal errors:
	//     the journal is complete, so every committed epoch must have a
	//     file. A committed epoch with no file is a lost dirent —
	//     counted and poisoned at its epoch.
	//   - journal damaged, or its completeness unverifiable (agent
	//     stats absent, or they admit failed journal appends): the
	//     listing cannot be vouched for at all, so the whole chain is
	//     conservatively poisoned — ResolveDurable then only trusts
	//     hits at the newest epoch, which no hidden file can shadow.
	//   - journal missing with no files: an empty chain, nothing to
	//     guard. Journal missing with files present: same conservative
	//     poisoning (hand-assembled disks keep working through the
	//     poison-blind Resolve).
	//
	// This read happens after the map-file loop so the read-fault
	// schedule for map files is unchanged.
	journal := ReadAgentJournal(disk, pid)
	var agentStats *AgentPersisted
	if spath := AgentStatsPath(pid); disk.Exists(spath) {
		data, err := disk.Read(spath)
		if err != nil {
			// The stats exist but would not read back: the journal's
			// completeness witness is gone to an EIO, which must be as
			// loud as any other unreadable artifact.
			integ.JournalDamaged++
		} else {
			agentStats = ReadAgentStats(data)
		}
	}
	verified := !journal.Missing && !journal.Damaged &&
		agentStats != nil && agentStats.JournalErrors == 0
	if journal.Damaged {
		integ.JournalDamaged++
	}
	if !journal.Missing || len(files) > 0 || integ.UnreadableFiles > 0 {
		for c := range journal.Committed {
			if e := int(c); !present[e] {
				integ.MissingCommitted++
				lost = append(lost, e)
			}
		}
		if !verified {
			lost = append(lost, maxEpoch)
		}
	}
	perEpoch := make([][]MapEntry, maxEpoch+1)
	for _, f := range files {
		for _, e := range f.entries {
			ep := e.Epoch
			// Clamp stray tags: an entry cannot belong to a later epoch
			// than the file that carries it (legacy epoch-0 tags from
			// zero values also land safely in their file's epoch).
			if ep < 0 || ep > f.fileEpoch {
				ep = f.fileEpoch
			}
			perEpoch[ep] = append(perEpoch[ep], e)
		}
	}
	c := NewLossyMapChain(perEpoch, lost)
	c.integ = integ
	return c, nil
}

// Integrity returns what loading this chain from disk found.
func (c *MapChain) Integrity() ChainIntegrity { return c.integ }

// Epochs returns the number of epochs present in the chain.
func (c *MapChain) Epochs() int { return len(c.maps) }

// Entries returns epoch e's entries (nil if none).
func (c *MapChain) Entries(e int) []MapEntry {
	if e < 0 || e >= len(c.maps) {
		return nil
	}
	return c.maps[e]
}

// Resolve finds the method occupying pc as of the given epoch: the
// most recent body at or before that epoch to occupy the address,
// exactly as the paper's backward search defines it. It probes the
// sample's epoch map, then each earlier map in descending order
// (§3.2); searched reports how many maps it examined, which the
// ablation benchmarks histogram. An epoch past the chain clamps to its
// last map. Resolve reads the chain only, so concurrent calls are safe.
func (c *MapChain) Resolve(epoch int, pc addr.Address) (entry MapEntry, searched int, ok bool) {
	if epoch >= len(c.maps) {
		epoch = len(c.maps) - 1
	}
	for e := epoch; e >= 0; e-- {
		searched++
		if entry, found := lookupEntry(c.maps[e], pc); found {
			return entry, searched, true
		}
	}
	return MapEntry{}, searched, false
}

// ResolveDurable is Resolve hardened against a damaged chain: it
// refuses to attribute a sample when lost map entries could change the
// answer, returning not-found instead (degrade, don't lie).
//
// Two rules derive from how entries get lost:
//
//   - A sample epoch past the end of the chain is unresolved, never
//     clamped: the entries that would have covered it were lost with
//     the tail of the run (a killed VM's unwritten final map).
//   - Below a damaged ("poisoned") epoch file, a backward-search hit in
//     epoch e is trusted only when e >= the highest damaged epoch: an
//     entry lost from a damaged file has epoch <= that ceiling, and a
//     hit at or above it is newer than anything lost, so the loss
//     cannot shadow it. A hit strictly below the ceiling could have
//     been shadowed by a lost entry — unresolved.
//
// The hit and its depth come from Resolve: a hit searched maps deep
// lies in epoch epoch-searched+1.
func (c *MapChain) ResolveDurable(epoch int, pc addr.Address) (entry MapEntry, searched int, ok bool) {
	if epoch < 0 || epoch >= len(c.maps) {
		return MapEntry{}, 0, false
	}
	entry, searched, ok = c.Resolve(epoch, pc)
	if ok && epoch-searched+1 < c.poisonCeil {
		return MapEntry{}, searched, false
	}
	return entry, searched, ok
}

// lookupEntry binary-searches one epoch's sorted entries.
func lookupEntry(entries []MapEntry, pc addr.Address) (MapEntry, bool) {
	i := sort.Search(len(entries), func(i int) bool { return entries[i].End() > pc })
	if i < len(entries) && pc >= entries[i].Start {
		return entries[i], true
	}
	return MapEntry{}, false
}
