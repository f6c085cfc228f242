package record

import (
	"bytes"
	"testing"
)

func TestFrameScanRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), []byte(""), []byte("gamma delta")}
	var file, appended []byte
	for _, p := range payloads {
		file = append(file, Frame(p)...)
		appended = AppendFrame(appended, p)
	}
	if !bytes.Equal(appended, file) {
		t.Fatalf("AppendFrame built %q, Frame %q", appended, file)
	}
	recs, sal := Scan(file)
	if sal.Lossy() {
		t.Fatalf("clean file reported lossy: %+v", sal)
	}
	if sal.Records != len(payloads) || len(recs) != len(payloads) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(payloads))
	}
	for i, p := range payloads {
		if !bytes.Equal(recs[i], p) {
			t.Errorf("record %d = %q, want %q", i, recs[i], p)
		}
	}
}

// Truncating a framed file at any offset must recover exactly the
// records that fit intact, with the torn remainder accounted.
func TestScanTruncationSweep(t *testing.T) {
	payloads := [][]byte{[]byte("one"), []byte("two two"), []byte("three three three")}
	var file []byte
	var bounds []int // end offset of each record
	for _, p := range payloads {
		file = append(file, Frame(p)...)
		bounds = append(bounds, len(file))
	}
	for cut := 0; cut <= len(file); cut++ {
		recs, sal := Scan(file[:cut])
		wantIntact := 0
		for _, b := range bounds {
			if cut >= b {
				wantIntact++
			}
		}
		if len(recs) != wantIntact {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(recs), wantIntact)
		}
		for i := range recs {
			if !bytes.Equal(recs[i], payloads[i]) {
				t.Fatalf("cut %d: record %d corrupted: %q", cut, i, recs[i])
			}
		}
		tornBytes := cut
		if wantIntact > 0 {
			tornBytes = cut - bounds[wantIntact-1]
		}
		if sal.DroppedBytes != tornBytes {
			t.Fatalf("cut %d: dropped %d bytes, want %d", cut, sal.DroppedBytes, tornBytes)
		}
		if (tornBytes > 0) != sal.Lossy() {
			t.Fatalf("cut %d: lossy=%v with %d torn bytes", cut, sal.Lossy(), tornBytes)
		}
	}
}

// Corruption in the middle of a file must not take out the records
// after it: the scanner resynchronizes on the next magic.
func TestScanResyncAfterCorruption(t *testing.T) {
	a, b, c := Frame([]byte("first")), Frame([]byte("second")), Frame([]byte("third"))
	var file []byte
	file = append(file, a...)
	file = append(file, b[:len(b)-3]...) // torn middle record
	file = append(file, c...)
	recs, sal := Scan(file)
	if len(recs) != 2 || !bytes.Equal(recs[0], []byte("first")) || !bytes.Equal(recs[1], []byte("third")) {
		t.Fatalf("resync failed: %q", recs)
	}
	if sal.DroppedRecords != 1 || sal.DroppedBytes != len(b)-3 {
		t.Errorf("salvage accounting: %+v", sal)
	}
}

// Flipping any single byte must never yield a record that was not
// written: the checksum drops the damaged record, everything else
// survives byte-identical.
func TestScanBitFlipSweep(t *testing.T) {
	payloads := [][]byte{[]byte("rec A"), []byte("rec B longer"), []byte("rec C")}
	var file []byte
	for _, p := range payloads {
		file = append(file, Frame(p)...)
	}
	valid := make(map[string]bool)
	for _, p := range payloads {
		valid[string(p)] = true
	}
	for pos := 0; pos < len(file); pos++ {
		mut := append([]byte(nil), file...)
		mut[pos] ^= 0x41
		recs, sal := Scan(mut)
		for _, r := range recs {
			if !valid[string(r)] {
				t.Fatalf("flip at %d fabricated record %q", pos, r)
			}
		}
		if len(recs)+sal.DroppedRecords < len(payloads)-1 {
			t.Fatalf("flip at %d lost records silently: %d recovered, %+v", pos, len(recs), sal)
		}
		if len(recs) < len(payloads) && !sal.Lossy() {
			t.Fatalf("flip at %d dropped a record without accounting", pos)
		}
	}
}

// TestScanTornFirstRecord: a file whose very FIRST record was torn
// mid-magic resynchronizes past the stub to the intact record after
// it, and a file that is nothing but a magic prefix (first write torn
// inside the magic, nothing after) is all damage.
func TestScanTornFirstRecord(t *testing.T) {
	frame := Frame([]byte("event payload"))
	for cut := 1; cut < len(Magic); cut++ {
		stub := frame[:cut]
		if recs, sal := Scan(stub); len(recs) != 0 || sal.DroppedBytes != cut {
			t.Errorf("magic prefix %q: salvaged %d records, %+v", stub, len(recs), sal)
		}
		combined := append(append([]byte{}, stub...), frame...)
		recs, sal := Scan(combined)
		if len(recs) != 1 || string(recs[0]) != "event payload" {
			t.Errorf("cut %d: salvaged %d records, want the intact one", cut, len(recs))
		}
		if !sal.Lossy() || sal.DroppedBytes != cut {
			t.Errorf("cut %d: salvage %+v, want %d dropped bytes", cut, sal, cut)
		}
	}
}
