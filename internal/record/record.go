// Package record implements the durable on-disk framing the profiling
// pipeline's writers share: every logical write is a length-prefixed,
// CRC-checksummed record, so a torn or interrupted write is detectable
// and the salvage reader can recover every intact record around the
// damage instead of discarding (or worse, misparsing) the whole file.
//
// Frame layout, little-endian:
//
//	magic "VPR1" (4 B) | payload length (uint32) | CRC-32/IEEE of payload (uint32) | payload
//
// The magic doubles as a resynchronization marker: after a corrupt
// region the scanner advances byte by byte until the next offset that
// parses as a complete, checksum-valid record.
package record

import (
	"encoding/binary"
	"hash/crc32"
)

// Magic starts every record (and therefore every framed file).
const Magic = "VPR1"

// HeaderSize is the fixed per-record framing overhead in bytes.
const HeaderSize = 12

// Frame wraps a payload in the record header.
func Frame(payload []byte) []byte {
	return AppendFrame(make([]byte, 0, HeaderSize+len(payload)), payload)
}

// AppendFrame appends the payload, wrapped in the record header, to
// dst and returns the extended slice. payload must not overlap dst's
// spare capacity.
func AppendFrame(dst, payload []byte) []byte {
	dst = append(dst, Magic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// Salvage accounts for what a Scan recovered and what it had to drop.
// "Degrade, don't lie": every byte that does not end up in a returned
// record is counted here, never silently skipped.
type Salvage struct {
	// Records is the number of intact records recovered.
	Records int
	// DroppedRecords counts contiguous corrupt regions (each region is
	// at least one destroyed record: a torn tail, a short write, or
	// flipped bytes).
	DroppedRecords int
	// DroppedBytes is the total size of the corrupt regions.
	DroppedBytes int
}

// Lossy reports whether anything at all was dropped.
func (s Salvage) Lossy() bool { return s.DroppedRecords > 0 || s.DroppedBytes > 0 }

// Scan walks a framed file and returns every intact record's payload in
// file order, resynchronizing on the magic after corruption. It never
// fails: damage is reported through the Salvage accounting.
func Scan(data []byte) ([][]byte, Salvage) {
	var recs [][]byte
	var s Salvage
	i := 0
	inGap := false
	for i < len(data) {
		if payload, size, ok := tryRecord(data[i:]); ok {
			recs = append(recs, payload)
			s.Records++
			i += size
			inGap = false
			continue
		}
		if !inGap {
			s.DroppedRecords++
			inGap = true
		}
		s.DroppedBytes++
		i++
	}
	return recs, s
}

// tryRecord attempts to parse one complete record at the start of data.
func tryRecord(data []byte) (payload []byte, size int, ok bool) {
	if len(data) < HeaderSize || string(data[:len(Magic)]) != Magic {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data[4:8]))
	if n > len(data)-HeaderSize {
		return nil, 0, false
	}
	sum := binary.LittleEndian.Uint32(data[8:12])
	payload = data[HeaderSize : HeaderSize+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, false
	}
	return payload, HeaderSize + n, true
}
