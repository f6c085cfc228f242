package fleet

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

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
//	event<TAB>jit<TAB>epoch<TAB>offset<TAB>count<TAB>proc<TAB>image
//	...
//
//	#map host=<id> seq=<n> epoch=<e> at=<cycles>
//	<core.WriteMapFile body: framed entries + framed #end trailer>
//
// Code maps ride the same seq space, retry protocol, and journal as
// sample deltas — replication is just delivery plus the WAL. The map
// body reuses the VM agent's map-file framing verbatim, so a replicated
// map is parsed (and salvaged) by exactly the reader the per-host
// chain loader uses.
//
// Acks are header-only: "#ack host=<id> seq=<n>". Restart markers
// ("#restart shard=<i> attempt=<n>") appear only in shard journals (and
// compacted generations), as durable evidence of supervisor restarts.

// Wire message kinds.
const (
	KindDelta   = "delta"
	KindAck     = "ack"
	KindMap     = "map"
	KindRestart = "restart"
)

// WireMsg is one decoded wire record.
type WireMsg struct {
	Kind string
	Host int
	Seq  uint64
	// At is the sender-side generation timestamp in machine cycles
	// (deltas and maps) — the time axis windowed queries cut on.
	At uint64
	// Attempt is the restart ordinal and Shard the restarting shard
	// (restart markers only).
	Attempt int
	Shard   int
	// Counts is the delta body (deltas only).
	Counts map[oprofile.Key]uint64
	// Epoch and Entries are the map body (maps only).
	Epoch   int
	Entries []core.MapEntry
}

// Total returns the message's sample total.
func (m *WireMsg) Total() uint64 {
	var n uint64
	for _, c := range m.Counts {
		n += c
	}
	return n
}

// sortedKeys returns the counts' keys in a deterministic total order
// (keyLess plus the proc/jit fields it does not compare), so the same
// delta always serializes to the same bytes.
func sortedKeys(counts map[oprofile.Key]uint64) []oprofile.Key {
	order := make([]oprofile.Key, 0, len(counts))
	for k := range counts {
		order = append(order, k)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.Event != b.Event {
			return a.Event < b.Event
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Image != b.Image {
			return a.Image < b.Image
		}
		if a.JIT != b.JIT {
			return !a.JIT
		}
		if a.Epoch != b.Epoch {
			return a.Epoch < b.Epoch
		}
		return a.Off < b.Off
	})
	return order
}

// DeltaFrame builds the framed wire record for one sample delta.
func DeltaFrame(host int, seq, at uint64, counts map[oprofile.Key]uint64) ([]byte, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "#%s host=%d seq=%d at=%d\n", KindDelta, host, seq, at)
	if err := oprofile.WriteCounts(&buf, counts, sortedKeys(counts)); err != nil {
		return nil, err
	}
	return record.Frame(buf.Bytes()), nil
}

// MapFrame builds the framed wire record replicating one epoch code
// map. The body is a verbatim core.WriteMapFile stream (per-entry
// frames plus the #end trailer), so the receiver parses it with the
// same strict reader — and the same salvage discipline — the VM agent's
// own map files get.
func MapFrame(host int, seq uint64, epoch int, at uint64, entries []core.MapEntry) ([]byte, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "#%s host=%d seq=%d epoch=%d at=%d\n", KindMap, host, seq, epoch, at)
	if err := core.WriteMapFile(&buf, entries); err != nil {
		return nil, err
	}
	return record.Frame(buf.Bytes()), nil
}

// AckFrame builds the framed wire record acknowledging (host, seq).
func AckFrame(host int, seq uint64) []byte {
	return record.Frame([]byte(fmt.Sprintf("#%s host=%d seq=%d\n", KindAck, host, seq)))
}

// RestartJournalFrame builds the framed restart marker the supervisor
// appends to the restarting shard's journal as durable evidence.
// Markers survive compaction: the compactor copies them into the new
// generation, so "restarts happened" stays visible to offline replay
// no matter how many generations later it runs.
func RestartJournalFrame(shard, attempt int) []byte {
	return record.Frame([]byte(fmt.Sprintf("#%s shard=%d attempt=%d\n", KindRestart, shard, attempt)))
}

// DecodeWire decodes one framed wire record. A torn, mangled, or
// multi-record payload is an error — the caller drops it (and, for
// deltas, withholds the ack so the sender retries).
func DecodeWire(data []byte) (*WireMsg, error) {
	recs, sal := record.Scan(data)
	if sal.Lossy() || len(recs) != 1 {
		return nil, fmt.Errorf("fleet: wire record damaged (%d intact, %d dropped)",
			len(recs), sal.DroppedRecords)
	}
	return DecodePayload(recs[0])
}

// DecodePayload decodes one already-unframed wire payload (a single
// record's bytes, e.g. one journal entry out of record.Scan).
func DecodePayload(payload []byte) (*WireMsg, error) {
	header, body, _ := bytes.Cut(payload, []byte("\n"))
	fields := strings.Fields(string(header))
	if len(fields) == 0 || !strings.HasPrefix(fields[0], "#") {
		return nil, fmt.Errorf("fleet: wire payload has no #header")
	}
	msg := &WireMsg{Kind: strings.TrimPrefix(fields[0], "#")}
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("fleet: malformed wire header field %q", f)
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fleet: wire header %s: %v", k, err)
		}
		switch k {
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
	case KindDelta:
		msg.Counts = make(map[oprofile.Key]uint64)
		if err := oprofile.ParseCountsText(body, msg.Counts); err != nil {
			return nil, fmt.Errorf("fleet: delta body: %v", err)
		}
		if msg.Seq == 0 {
			return nil, fmt.Errorf("fleet: delta with seq 0")
		}
	case KindMap:
		// The outer CRC already passed, so a body that will not parse is
		// a writer bug, not wire damage — strict read, loud error.
		entries, err := core.ReadMapFile(body)
		if err != nil {
			return nil, fmt.Errorf("fleet: map body: %v", err)
		}
		msg.Entries = entries
		if msg.Seq == 0 {
			return nil, fmt.Errorf("fleet: map with seq 0")
		}
		if msg.Epoch <= 0 {
			return nil, fmt.Errorf("fleet: map with epoch %d", msg.Epoch)
		}
	case KindAck:
		if msg.Seq == 0 {
			return nil, fmt.Errorf("fleet: ack with seq 0")
		}
	case KindRestart:
	default:
		return nil, fmt.Errorf("fleet: unknown wire kind %q", msg.Kind)
	}
	return msg, nil
}
