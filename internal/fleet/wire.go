package fleet

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"viprof/internal/core"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

// Wire format. Every datagram is one framed+CRC record (record.Frame —
// the same format every durable artifact uses, DESIGN §10), so a
// mangled or torn payload fails its checksum at the receiver instead of
// misparsing, and a collector shard can append the received frame
// verbatim to its write-ahead journal. The payload is a '#'-header line
// followed by a kind-specific body:
//
//	#delta host=<id> seq=<n> at=<cycles>
//	event<TAB>jit<TAB>epoch<TAB>offset<TAB>count<TAB>cpu<TAB>proc<TAB>image
//	...
//
//	#map host=<id> seq=<n> epoch=<e> at=<cycles>
//	<a core.AppendMapFile body: one framed record per entry, then a framed #end trailer>
//
// Code maps ride the same seq space, retry protocol, and journal as
// sample deltas — replication is just delivery plus the WAL. The map
// body is a VM agent map file, so a replicated map is parsed (and
// salvaged) by exactly the reader the per-host chain loader uses.
//
// Acks are header-only: "#ack host=<id> seq=<n>". Restart markers
// ("#restart shard=<i> attempt=<n>") appear only in shard journals (and
// compacted generations), as durable evidence of supervisor restarts.
//
// Every kind is one Record, written by Record.Encode and read by
// DecodePayload.

// Kind is a record's kind, the word after the header's '#'.
type Kind uint8

// Record kinds. The zero Kind is none of them.
const (
	KindDelta Kind = iota + 1
	KindAck
	KindMap
	KindRestart
)

var kindNames = [...]string{KindDelta: "delta", KindAck: "ack", KindMap: "map", KindRestart: "restart"}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is the one fleet record: what a sender generates and
// retries, what crosses the wire, what a shard journals and its
// aggregate keeps as decoded, what a compaction pass copies. The
// aggregate's records are the unit the LSM store compacts, the
// windowed queries filter, and the shard merge dedups on (Host, Seq).
type Record struct {
	Kind Kind
	// Host and Seq identify a delta, map or ack. At is the sender-side
	// generation timestamp in machine cycles (deltas and maps) — the
	// time axis windowed queries cut on.
	Host int
	Seq  uint64
	At   uint64
	// Counts is the sample body (deltas only) as a count run: one pair
	// per key, in the wire's key order (keyCompare), as Encode writes
	// it.
	Counts []oprofile.KeyCount
	// Epoch and Entries are the replicated code map (maps only).
	Epoch   int
	Entries []core.MapEntry
	// Shard is the restarting shard and Attempt the restart ordinal
	// (restart markers only).
	Shard, Attempt int
}

// Total returns the record's sample total (0 for all but deltas).
func (r *Record) Total() uint64 {
	var n uint64
	for _, kc := range r.Counts {
		n += kc.Count
	}
	return n
}

// sortRun makes run a count run: it sorts run in place into the wire's
// key order and sums the counts of equal keys, so each key appears
// once, and returns the result (a prefix of run). A run already in
// that order is returned untouched.
func sortRun(run []oprofile.KeyCount) []oprofile.KeyCount {
	if isRun(run) {
		return run
	}
	slices.SortFunc(run, func(a, b oprofile.KeyCount) int { return keyCompare(a.Key, b.Key) })
	out := run[:0]
	for _, kc := range run {
		if n := len(out); n > 0 && out[n-1].Key == kc.Key {
			out[n-1].Count += kc.Count
			continue
		}
		out = append(out, kc)
	}
	return out
}

// isRun reports whether run's keys are strictly increasing in the
// wire's key order.
func isRun(run []oprofile.KeyCount) bool {
	for i := 1; i < len(run); i++ {
		if keyCompare(run[i-1].Key, run[i].Key) >= 0 {
			return false
		}
	}
	return true
}

// keyCompare is the wire's total order on keys: event, proc, image, JIT
// (non-JIT first), epoch, offset, CPU.
func keyCompare(a, b oprofile.Key) int {
	if c := cmp.Compare(a.Event, b.Event); c != 0 {
		return c
	}
	if c := strings.Compare(a.Proc, b.Proc); c != 0 {
		return c
	}
	if c := strings.Compare(a.Image, b.Image); c != 0 {
		return c
	}
	if a.JIT != b.JIT {
		if a.JIT {
			return 1
		}
		return -1
	}
	if c := cmp.Compare(a.Epoch, b.Epoch); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Off, b.Off); c != 0 {
		return c
	}
	return cmp.Compare(a.CPU, b.CPU)
}

// Encode returns the record framed for the wire, a journal or a
// generation file. A delta's run is already in the wire's total key
// order, so the same record always encodes to the same bytes.
func (r *Record) Encode() []byte {
	b := make([]byte, 0, 64+64*(len(r.Counts)+len(r.Entries)))
	switch r.Kind {
	case KindDelta:
		b = fmt.Appendf(b, "#%s host=%d seq=%d at=%d\n", r.Kind, r.Host, r.Seq, r.At)
		b = oprofile.AppendRun(b, r.Counts)
	case KindMap:
		b = fmt.Appendf(b, "#%s host=%d seq=%d epoch=%d at=%d\n", r.Kind, r.Host, r.Seq, r.Epoch, r.At)
		b = core.AppendMapFile(b, r.Entries)
	case KindAck:
		b = fmt.Appendf(b, "#%s host=%d seq=%d\n", r.Kind, r.Host, r.Seq)
	case KindRestart:
		b = fmt.Appendf(b, "#%s shard=%d attempt=%d\n", r.Kind, r.Shard, r.Attempt)
	}
	return record.Frame(b)
}

// DecodeWire decodes one framed wire record. A torn, mangled, or
// multi-record payload is an error — the caller drops it (and, for
// deltas, withholds the ack so the sender retries).
func DecodeWire(data []byte) (*Record, error) {
	recs, sal := record.Scan(data)
	if sal.Lossy() || len(recs) != 1 {
		return nil, fmt.Errorf("fleet: wire record damaged (%d intact, %d dropped)",
			len(recs), sal.DroppedRecords)
	}
	return DecodePayload(recs[0])
}

// DecodePayload decodes one already-unframed wire payload (a single
// record's bytes, e.g. one journal entry out of record.Scan): the one
// decoder, for every kind.
func DecodePayload(payload []byte) (*Record, error) {
	msg := new(Record)
	if err := msg.parseHeader(payload); err != nil {
		return nil, err
	}
	if err := msg.decodeBody(payload); err != nil {
		return nil, err
	}
	return msg, nil
}

// parseHeader parses a payload's '#' header line into msg, which must
// be zero, setting every header field and no body. It makes every
// check DecodePayload makes short of parsing the body, so a store scan
// can classify, dedup and order frames by header alone. It walks the
// line's fields in place, split at white space as bytes.Fields splits.
func (msg *Record) parseHeader(payload []byte) error {
	header, _, _ := bytes.Cut(payload, []byte("\n"))
	name, rest := nextField(header)
	if len(name) == 0 || name[0] != '#' {
		return fmt.Errorf("fleet: wire payload has no #header")
	}
	name = name[1:]
	for k, n := range kindNames {
		if n == string(name) {
			msg.Kind = Kind(k) // a bare "#" matches slot 0: no kind
		}
	}
	for {
		var f []byte
		if f, rest = nextField(rest); len(f) == 0 {
			break
		}
		k, v, ok := bytes.Cut(f, []byte("="))
		if !ok {
			return fmt.Errorf("fleet: malformed wire header field %q", f)
		}
		// string(v) of a short numeric field stays on the stack:
		// strconv copies whatever text it keeps in an error.
		n, err := strconv.ParseUint(string(v), 10, 64)
		if err != nil {
			return fmt.Errorf("fleet: wire header %s: %v", k, err)
		}
		switch string(k) {
		case "host":
			msg.Host = int(n)
		case "seq":
			msg.Seq = n
		case "at":
			msg.At = n
		case "epoch":
			msg.Epoch = int(n)
		case "attempt":
			msg.Attempt = int(n)
		case "shard":
			msg.Shard = int(n)
		}
	}
	switch msg.Kind {
	case KindDelta, KindMap, KindAck:
		if msg.Seq == 0 {
			return fmt.Errorf("fleet: %s with seq 0", msg.Kind)
		}
		if msg.Kind == KindMap && msg.Epoch <= 0 {
			return fmt.Errorf("fleet: map with epoch %d", msg.Epoch)
		}
	case KindRestart:
	default:
		return fmt.Errorf("fleet: unknown wire kind %q", name)
	}
	return nil
}

// nextField returns the first field of s, split at white space as
// bytes.Fields splits (unicode.IsSpace, invalid UTF-8 not space), and
// what follows it; the field is empty when s holds no more fields.
func nextField(s []byte) (field, rest []byte) {
	i := 0
	for i < len(s) {
		n, space := spaceAt(s[i:])
		if !space {
			break
		}
		i += n
	}
	start := i
	for i < len(s) {
		n, space := spaceAt(s[i:])
		if space {
			break
		}
		i += n
	}
	return s[start:i], s[i:]
}

// spaceAt returns the width of the rune s opens with and whether it is
// white space.
func spaceAt(s []byte) (int, bool) {
	if c := s[0]; c < utf8.RuneSelf {
		return 1, c == ' ' || '\t' <= c && c <= '\r'
	}
	r, n := utf8.DecodeRune(s)
	return n, unicode.IsSpace(r)
}

// decodeBody parses the body of payload, a delta's sample lines or a
// map's entries, into the record parseHeader filled from it.
func (msg *Record) decodeBody(payload []byte) error {
	_, body, _ := bytes.Cut(payload, []byte("\n"))
	switch msg.Kind {
	case KindDelta:
		// One pair per line: a body Encode wrote is already a run, so it
		// is kept as parsed, in a slice sized by its line count.
		lines := bytes.Count(body, []byte("\n"))
		if len(body) > 0 && body[len(body)-1] != '\n' {
			lines++
		}
		run, err := oprofile.ParseRun(make([]oprofile.KeyCount, 0, lines), body)
		if err != nil {
			return fmt.Errorf("fleet: delta body: %v", err)
		}
		msg.Counts = sortRun(run)
	case KindMap:
		// The outer CRC already passed, so a body that will not parse is
		// a writer bug, not wire damage — strict read, loud error.
		entries, err := core.ReadMapFile(body)
		if err != nil {
			return fmt.Errorf("fleet: map body: %v", err)
		}
		msg.Entries = entries
	}
	return nil
}
