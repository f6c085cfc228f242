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
	// buffer by this id so the daemon can drain shards concurrently.
	CPU int
}

// Anonymous reports whether the sample fell in anonymous memory that no
// JIT registry claimed.
func (s Sample) Anonymous() bool { return s.Image == "" && !s.JIT }

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

// WriteCounts serializes aggregated counts as sample-file lines:
//
//	event<TAB>jit<TAB>epoch<TAB>offset<TAB>count<TAB>cpu<TAB>proc<TAB>image
//
// Image goes last because it may contain spaces and commas. The cpu
// field was appended for SMP machines; readers accept the older
// 7-field layout and treat those lines as CPU 0. The lines are built
// in one slice (sized for typical 64-byte lines) and handed to w in at
// most one Write.
func WriteCounts(w io.Writer, counts map[Key]uint64, order []Key) error {
	b := make([]byte, 0, 64*len(order))
	for _, k := range order {
		c := counts[k]
		if c == 0 {
			continue
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
		b = append(b, '\n')
	}
	if len(b) == 0 {
		return nil
	}
	_, err := w.Write(b)
	return err
}

// ReadCounts parses a sample file, summing duplicate keys (the daemon
// appends deltas across flushes). It auto-detects the durable framed
// format (each flush is one checksummed record, see internal/record)
// and falls back to legacy plain-text parsing; a framed file with any
// damage is a hard error here — use ReadCountsSalvage to recover the
// intact records with loss accounting.
func ReadCounts(r io.Reader) (map[Key]uint64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if record.IsFramed(data) {
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
	counts := make(map[Key]uint64)
	if err := readCountsText(data, counts); err != nil {
		return nil, err
	}
	return counts, nil
}

// ReadCountsSalvage parses a sample file, recovering every intact
// framed record and accounting for damage instead of failing. Legacy
// plain-text files parse as a single clean pseudo-record.
func ReadCountsSalvage(data []byte) (map[Key]uint64, record.Salvage, error) {
	counts := make(map[Key]uint64)
	if len(data) == 0 {
		return counts, record.Salvage{}, nil
	}
	if !record.IsFramed(data) {
		if err := readCountsText(data, counts); err != nil {
			return nil, record.Salvage{}, err
		}
		return counts, record.Salvage{Records: 1}, nil
	}
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

// ParseCountsText parses plain sample-file lines (the WriteCounts
// format) into counts, summing duplicate keys. It is the payload parser
// for contexts where framing is handled out of line — the fleet wire
// protocol ships one WriteCounts body per framed delta record.
func ParseCountsText(data []byte, counts map[Key]uint64) error {
	return readCountsText(data, counts)
}

// maxLineBytes bounds a sample line (newline excluded): a line this
// long or longer fails with bufio.ErrTooLong.
const maxLineBytes = 1 << 20

// readCountsText parses plain sample-file lines into counts. It walks
// data in place: no line buffer, no string per line. Each distinct
// proc and image is copied out once per call, so the keys it stores
// never alias data. A trailing '\r' is dropped from every line, blank
// lines are skipped, and extra tabs stay in the last field.
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
	var f [8][]byte
	for line := 1; len(data) > 0; line++ {
		text := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			text, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(text) >= maxLineBytes {
			return bufio.ErrTooLong
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
		if nf < 7 {
			return fmt.Errorf("oprofile: sample line %d: %d fields", line, nf)
		}
		// 7-field lines predate the per-CPU pipeline: no cpu column,
		// proc/image shifted left. Parse them as CPU 0.
		cpu := 0
		procIdx := nf - 2
		// string(field) of a short numeric field stays on the stack:
		// strconv copies whatever text it keeps in an error.
		ev, err := strconv.Atoi(string(f[0]))
		var jit, epoch int
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
		if err == nil && nf == 8 {
			cpu, err = strconv.Atoi(string(f[5]))
		}
		if err != nil {
			return fmt.Errorf("oprofile: sample line %d: %v", line, err)
		}
		k := Key{
			Event: hpc.Event(ev),
			Image: intern(f[procIdx+1]),
			Proc:  intern(f[procIdx]),
			JIT:   jit != 0,
			Epoch: epoch,
			CPU:   cpu,
			Off:   addr.Address(off),
		}
		counts[k] += cnt
	}
	return nil
}
