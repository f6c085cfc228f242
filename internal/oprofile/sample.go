// Package oprofile implements the baseline system-wide profiler the
// paper extends (OProfile 0.9.1, §3): a kernel driver that programs the
// hardware performance counters and services the resulting NMIs, a
// user-level daemon that drains the driver's sample buffer to sample
// files on disk, and opreport-style post-processing. Its known
// limitation — samples in dynamically generated code are logged as
// anonymous-memory black boxes — is exactly what VIProf (internal/core)
// fixes by plugging a JIT registry and epoch tags into this package's
// extension points.
package oprofile

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"

	"viprof/internal/addr"
	"viprof/internal/hpc"
	"viprof/internal/record"
)

// Sample is one attributed counter-overflow event, the unit the daemon
// logs: "OProfile ... identifies the corresponding binary or library
// [and] computes the offset into the corresponding object file" (§3).
type Sample struct {
	Event  hpc.Event
	PID    int
	Proc   string // process name at sampling time
	Kernel bool   // privilege mode
	PC     addr.Address

	// Image/Offset identify file-backed code. For anonymous memory,
	// Image is empty and AnonStart/AnonEnd give the region.
	Image  string
	Offset addr.Address

	AnonStart, AnonEnd addr.Address

	// JIT marks a sample inside a VM-registered JIT region; Epoch is
	// the GC execution epoch it was taken in. Only the VIProf-extended
	// pipeline sets these (plain OProfile has no JIT registry).
	JIT   bool
	Epoch int

	// CPU is the core the overflow fired on. The driver shards its ring
	// buffer by this id, and the daemon tallies and flushes per CPU.
	CPU int
}

// AnonName formats the anonymous-region pseudo-image name the way
// OProfile's reports show it: "anon (range:0xA-0xB),proc".
func (s Sample) AnonName() string {
	return fmt.Sprintf("anon (range:%s-%s),%s", s.AnonStart, s.AnonEnd, s.Proc)
}

// JITImageName is the pseudo-image the VIProf pipeline logs JIT samples
// under (Figure 1's "JIT.App" rows).
const JITImageName = "JIT.App"

// Key is the aggregation key the daemon accumulates sample counts
// under; one key maps to one line in a sample file.
type Key struct {
	Event hpc.Event
	Image string // image name, AnonName(), or JITImageName
	Proc  string
	JIT   bool
	Epoch int
	// CPU is the core the sample was taken on; the report path folds it
	// away for aggregate views and keeps it for per-CPU breakdowns.
	CPU int
	// Off is the image offset for file-backed samples and the absolute
	// PC for anonymous/JIT samples (JIT code maps use absolute
	// addresses).
	Off addr.Address
}

// KeyOf reduces a sample to its aggregation key.
func KeyOf(s Sample) Key {
	switch {
	case s.JIT:
		return Key{Event: s.Event, Image: JITImageName, Proc: s.Proc, JIT: true,
			Epoch: s.Epoch, CPU: s.CPU, Off: s.PC}
	case s.Image != "":
		return Key{Event: s.Event, Image: s.Image, Proc: s.Proc, CPU: s.CPU, Off: s.Offset}
	default:
		return Key{Event: s.Event, Image: s.AnonName(), Proc: s.Proc, CPU: s.CPU, Off: s.PC}
	}
}

// SampleFile is the on-disk path prefix for sample data.
const SampleFile = "var/lib/oprofile/samples.log"

// KeyCount is one key's sample count. A slice of them in one key
// order, each key once, is a count run: the fleet's form of a sample
// body, written by AppendRun and read by ParseRun.
type KeyCount struct {
	Key   Key
	Count uint64
}

// AppendCounts appends aggregated counts to dst as sample-file lines,
// the keys in the given order:
//
//	event<TAB>jit<TAB>epoch<TAB>offset<TAB>count<TAB>cpu<TAB>proc<TAB>image
//
// Image goes last because it may contain spaces and commas; readers
// reject a line with fewer than eight fields. Keys with a zero count
// are skipped.
func AppendCounts(dst []byte, counts map[Key]uint64, order []Key) []byte {
	for _, k := range order {
		dst = appendLine(dst, k, counts[k])
	}
	return dst
}

// AppendRun appends a count run to dst as sample-file lines (the
// AppendCounts format), in run order. Keys with a zero count are
// skipped.
func AppendRun(dst []byte, run []KeyCount) []byte {
	for _, kc := range run {
		dst = appendLine(dst, kc.Key, kc.Count)
	}
	return dst
}

// appendLine is the one sample-line writer: it appends k's line with
// count c, or nothing when c is zero.
func appendLine(b []byte, k Key, c uint64) []byte {
	if c == 0 {
		return b
	}
	jit := byte('0')
	if k.JIT {
		jit = '1'
	}
	b = strconv.AppendUint(b, uint64(k.Event), 10)
	b = append(b, '\t', jit, '\t')
	b = strconv.AppendInt(b, int64(k.Epoch), 10)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(k.Off), 10)
	b = append(b, '\t')
	b = strconv.AppendUint(b, c, 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(k.CPU), 10)
	b = append(b, '\t')
	b = append(b, k.Proc...)
	b = append(b, '\t')
	b = append(b, k.Image...)
	return append(b, '\n')
}

// ReadCounts parses a sample file, summing duplicate keys (the daemon
// appends deltas across flushes). A sample file is a stream of framed
// records (each flush is one checksummed record, see internal/record);
// a file with any damage is a hard error here — use ReadCountsSalvage
// to recover the intact records with loss accounting.
func ReadCounts(r io.Reader) (map[Key]uint64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	counts, sal, err := ReadCountsSalvage(data)
	if err != nil {
		return nil, err
	}
	if sal.Lossy() {
		return nil, fmt.Errorf("oprofile: sample file corrupt: %d records dropped (%d bytes)",
			sal.DroppedRecords, sal.DroppedBytes)
	}
	return counts, nil
}

// ReadCountsSalvage parses a sample file, recovering every intact
// framed record and accounting for damage instead of failing.
func ReadCountsSalvage(data []byte) (map[Key]uint64, record.Salvage, error) {
	counts := make(map[Key]uint64)
	recs, sal := record.Scan(data)
	for _, payload := range recs {
		// A checksum-valid record that fails to parse is a writer bug,
		// not disk damage: fail hard rather than salvage it away.
		if err := readCountsText(payload, counts); err != nil {
			return nil, sal, err
		}
	}
	return counts, sal, nil
}

// CheckCountsSalvage reads a sample file the way ReadCountsSalvage
// does and keeps no counts: it returns the file's salvage accounting
// and the first checksum-valid line that will not parse.
func CheckCountsSalvage(data []byte) (record.Salvage, error) {
	recs, sal := record.Scan(data)
	for _, payload := range recs {
		lines := sampleLines{data: payload}
		for lines.next() {
		}
		if lines.err != nil {
			return sal, lines.err
		}
	}
	return sal, nil
}

// ParseRun appends the plain sample-file lines in data (an AppendRun
// body: framing is handled out of line) to run, one pair per line in
// line order. It neither sorts nor sums duplicate keys, and it keeps
// zero counts. A line's proc and image reuse the previous line's
// strings when they are equal, so a body written in key order copies
// each name out once per change, and no key aliases data.
func ParseRun(run []KeyCount, data []byte) ([]KeyCount, error) {
	var proc, image string
	lines := sampleLines{data: data}
	for lines.next() {
		if string(lines.proc) != proc {
			proc = string(lines.proc)
		}
		if string(lines.image) != image {
			image = string(lines.image)
		}
		k := lines.key
		k.Proc, k.Image = proc, image
		run = append(run, KeyCount{k, lines.count})
	}
	return run, lines.err
}

// maxLineBytes bounds a sample line (newline excluded): a line this
// long or longer fails with bufio.ErrTooLong.
const maxLineBytes = 1 << 20

// readCountsText parses plain sample-file lines into counts, summing
// duplicate keys. Each distinct proc and image is copied out once per
// call, so the keys it stores never alias data.
func readCountsText(data []byte, counts map[Key]uint64) error {
	names := make(map[string]string)
	intern := func(b []byte) string {
		if s, ok := names[string(b)]; ok {
			return s
		}
		s := string(b)
		names[s] = s
		return s
	}
	lines := sampleLines{data: data}
	for lines.next() {
		k := lines.key
		k.Image, k.Proc = intern(lines.image), intern(lines.proc)
		counts[k] += lines.count
	}
	return lines.err
}

// sampleLines is the one sample-line parser. It walks data in place,
// one line per next: no line buffer and no string per line. A trailing
// '\r' is dropped from every line, blank lines are skipped, and extra
// tabs stay in the last field.
type sampleLines struct {
	data []byte
	line int
	// key and count are the last line parsed; key's Proc and Image are
	// left to the caller, from proc and image, which alias data.
	key         Key
	count       uint64
	proc, image []byte
	// err is the line that stopped next early (nil at the end of data).
	err error
}

// next parses the next non-blank line. It reports false at the end of
// data and at a line that will not parse, with err set.
func (s *sampleLines) next() bool {
	var f [8][]byte
	for len(s.data) > 0 {
		s.line++
		text := s.data
		if i := bytes.IndexByte(s.data, '\n'); i >= 0 {
			text, s.data = s.data[:i], s.data[i+1:]
		} else {
			s.data = nil
		}
		if len(text) >= maxLineBytes {
			return s.fail(bufio.ErrTooLong)
		}
		if n := len(text); n > 0 && text[n-1] == '\r' {
			text = text[:n-1]
		}
		if len(text) == 0 {
			continue
		}
		nf := 0
		for ; nf < len(f)-1; nf++ {
			i := bytes.IndexByte(text, '\t')
			if i < 0 {
				break
			}
			f[nf], text = text[:i], text[i+1:]
		}
		f[nf] = text
		nf++
		if nf < len(f) {
			return s.fail(fmt.Errorf("oprofile: sample line %d: %d fields", s.line, nf))
		}
		// string(field) of a short numeric field stays on the stack:
		// strconv copies whatever text it keeps in an error.
		ev, err := strconv.Atoi(string(f[0]))
		var jit, epoch, cpu int
		var off, cnt uint64
		if err == nil {
			jit, err = strconv.Atoi(string(f[1]))
		}
		if err == nil {
			epoch, err = strconv.Atoi(string(f[2]))
		}
		if err == nil {
			off, err = strconv.ParseUint(string(f[3]), 10, 64)
		}
		if err == nil {
			cnt, err = strconv.ParseUint(string(f[4]), 10, 64)
		}
		if err == nil {
			cpu, err = strconv.Atoi(string(f[5]))
		}
		if err == nil && (ev < 0 || ev >= hpc.NumEvents) {
			err = fmt.Errorf("event %d out of range [0, %d)", ev, hpc.NumEvents)
		}
		if err != nil {
			return s.fail(fmt.Errorf("oprofile: sample line %d: %v", s.line, err))
		}
		s.key = Key{Event: hpc.Event(ev), JIT: jit != 0, Epoch: epoch, CPU: cpu, Off: addr.Address(off)}
		s.count = cnt
		s.proc, s.image = f[6], f[7]
		return true
	}
	return false
}

// fail stops the walk at the current line with err.
func (s *sampleLines) fail(err error) bool {
	s.data, s.err = nil, err
	return false
}
