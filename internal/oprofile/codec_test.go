package oprofile

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"viprof/internal/addr"
	"viprof/internal/hpc"
	"viprof/internal/record"
)

// refWriteCounts is the original sample-line writer (fmt.Fprintf
// through a bufio.Writer), kept as the byte-for-byte reference for
// AppendCounts.
func refWriteCounts(w io.Writer, counts map[Key]uint64, order []Key) error {
	bw := bufio.NewWriter(w)
	for _, k := range order {
		c := counts[k]
		if c == 0 {
			continue
		}
		jit := 0
		if k.JIT {
			jit = 1
		}
		if _, err := fmt.Fprintf(bw, "%d\t%d\t%d\t%d\t%d\t%d\t%s\t%s\n",
			k.Event, jit, k.Epoch, uint64(k.Off), c, k.CPU, k.Proc, k.Image); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// refReadCountsText is the original sample-line reader (bufio.Scanner
// with a 1 MiB buffer plus strings.SplitN), kept as the reference for
// readCountsText: same counts, same error text. Like the reader, it
// rejects any line with fewer than eight fields.
func refReadCountsText(data []byte, counts map[Key]uint64) error {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		parts := strings.SplitN(text, "\t", 8)
		if len(parts) != 8 {
			return fmt.Errorf("oprofile: sample line %d: %d fields", line, len(parts))
		}
		ev, err1 := strconv.Atoi(parts[0])
		jit, err2 := strconv.Atoi(parts[1])
		epoch, err3 := strconv.Atoi(parts[2])
		off, err4 := strconv.ParseUint(parts[3], 10, 64)
		cnt, err5 := strconv.ParseUint(parts[4], 10, 64)
		cpu, err6 := strconv.Atoi(parts[5])
		for _, err := range []error{err1, err2, err3, err4, err5, err6} {
			if err != nil {
				return fmt.Errorf("oprofile: sample line %d: %v", line, err)
			}
		}
		k := Key{
			Event: hpc.Event(ev),
			Image: parts[7],
			Proc:  parts[6],
			JIT:   jit != 0,
			Epoch: epoch,
			CPU:   cpu,
			Off:   addr.Address(off),
		}
		counts[k] += cnt
	}
	return sc.Err()
}

// checkReadMatchesRef parses data with the reference reader, the map
// reader and the run reader and fails on any difference in the
// resulting counts (partial ones included, on error; the run folded
// into a map) or in the error text.
func checkReadMatchesRef(t *testing.T, name string, data []byte) {
	t.Helper()
	want := make(map[Key]uint64)
	wantErr := refReadCountsText(data, want)
	got := make(map[Key]uint64)
	gotErr := readCountsText(data, got)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Errorf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: counts differ from reference:\n got %v\nwant %v", name, got, want)
	}
	run, runErr := ParseRun(nil, data)
	if fmt.Sprint(runErr) != fmt.Sprint(wantErr) {
		t.Errorf("%s: run error %v, reference %v", name, runErr, wantErr)
	}
	folded := make(map[Key]uint64)
	for _, kc := range run {
		folded[kc.Key] += kc.Count
	}
	if !reflect.DeepEqual(folded, want) {
		t.Errorf("%s: run counts differ from reference:\n got %v\nwant %v", name, folded, want)
	}
	if _, err := CheckCountsSalvage(record.Frame(data)); fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Errorf("%s: check error %v, reference %v", name, err, wantErr)
	}
}

// randName draws a proc or image name that may carry the characters
// the line format is sensitive to: spaces, commas, parens, tabs, and
// now and then a CR or LF.
func randName(r *rand.Rand) string {
	const alpha = "abcdefgjkvmxyz.0123456789_/"
	const special = " ,()\t"
	var sb strings.Builder
	for n := r.Intn(12); n > 0; n-- {
		switch p := r.Intn(100); {
		case p < 15:
			sb.WriteByte(special[r.Intn(len(special))])
		case p == 15:
			sb.WriteByte("\r\n"[r.Intn(2)])
		default:
			sb.WriteByte(alpha[r.Intn(len(alpha))])
		}
	}
	return sb.String()
}

// randKeys draws a key set mixing JIT, anonymous and file-backed keys
// over CPUs 0-7, with offsets anywhere in the 64-bit range (often near
// 2^64), plus a write order that sometimes repeats a key.
func randKeys(r *rand.Rand) (map[Key]uint64, []Key) {
	procs := []string{randName(r), randName(r), "jikesrvm"}
	counts := make(map[Key]uint64)
	var order []Key
	for n := r.Intn(24); n > 0; n-- {
		k := Key{
			Event: hpc.Event(r.Intn(hpc.NumEvents)),
			Proc:  procs[r.Intn(len(procs))],
			CPU:   r.Intn(8),
		}
		switch r.Intn(3) {
		case 0:
			k.Image, k.JIT, k.Epoch = JITImageName, true, r.Intn(40)
			k.Off = addr.Address(0x6000_0000 + r.Intn(1<<24))
		case 1:
			k.Image = Sample{AnonStart: 0x6000_0000, AnonEnd: 0x6800_0000, Proc: k.Proc}.AnonName()
			k.Off = addr.Address(r.Uint64())
		default:
			k.Image = randName(r)
			k.Off = addr.Address(math.MaxUint64 - uint64(r.Intn(1<<16)))
		}
		c := r.Uint64() >> uint(r.Intn(64))
		if r.Intn(10) == 0 {
			c = 0
		}
		counts[k] = c
		order = append(order, k)
		if r.Intn(8) == 0 {
			order = append(order, k)
		}
	}
	return counts, order
}

// Property: on random key sets, AppendCounts (and AppendRun over the
// same keys in the same order) emits exactly the reference writer's
// bytes after whatever dst already holds, and readCountsText, ParseRun
// and CheckCountsSalvage parse them (and a CRLF-converted copy) exactly
// as the reference reader does.
func TestCodecMatchesReferenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		counts, order := randKeys(r)
		prefix := []byte(randName(r))
		var want bytes.Buffer
		want.Write(prefix)
		if err := refWriteCounts(&want, counts, order); err != nil {
			t.Errorf("seed %d: reference writer: %v", seed, err)
			return false
		}
		got := AppendCounts(prefix, counts, order)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("seed %d: writer output differs:\n got %q\nwant %q", seed, got, want.Bytes())
			return false
		}
		run := make([]KeyCount, 0, len(order))
		for _, k := range order {
			run = append(run, KeyCount{k, counts[k]})
		}
		if got := AppendRun(prefix, run); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("seed %d: run writer output differs:\n got %q\nwant %q", seed, got, want.Bytes())
			return false
		}
		got = got[len(prefix):]
		name := fmt.Sprintf("seed %d", seed)
		checkReadMatchesRef(t, name, got)
		checkReadMatchesRef(t, name+" crlf", bytes.ReplaceAll(got, []byte("\n"), []byte("\r\n")))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCodecMatchesReferenceFixed pins the reader against the
// reference on the inputs the format's edges live at: line endings,
// the retired 7-field layout (rejected, alone or mixed with 8-field
// lines), malformed fields and the 1 MiB line limit.
func TestCodecMatchesReferenceFixed(t *testing.T) {
	long := func(n int) string {
		return "0\t0\t0\t1\t1\t0\tp\t" + strings.Repeat("i", n-len("0\t0\t0\t1\t1\t0\tp\t"))
	}
	good := "2\t1\t3\t1610612800\t7\t1\tjikesrvm\tJIT.App\n"
	cases := map[string]string{
		"empty":              "",
		"one line":           good,
		"crlf":               "0\t0\t0\t64\t5\t0\tapp\tlibc.so\r\n0\t0\t0\t64\t5\t0\tapp\tlibc.so\r\n",
		"double cr":          "0\t0\t0\t64\t5\t0\tapp\tlibc.so\r\r\n",
		"lone cr line":       good + "\r\n" + good,
		"legacy 7 fields":    "0\t0\t0\t64\t5\tapp\tlibc.so\n1\t1\t2\t99\t3\tjvm\tJIT.App\n",
		"mixed layouts":      good + "0\t0\t0\t64\t5\tapp\tlibc.so\n",
		"blank lines":        "\n\n" + good + "\n\n" + good,
		"no trailing nl":     strings.TrimSuffix(good, "\n"),
		"extra tabs":         "0\t0\t0\t64\t5\t0\tapp\tanon (range:0x1-0x2),a\tb\tc\n",
		"legacy tab image":   "0\t0\t0\t64\t5\tapp\tlib\tc.so\n",
		"empty names":        "0\t0\t0\t64\t5\t0\t\t\n",
		"garbage":            good + "garbage line\n",
		"too few fields":     "1\t2\t3\n",
		"six fields":         "0\t0\t0\t64\t5\tapp\n",
		"bad event":          "x\t0\t0\t1\t1\t0\tp\timg\n",
		"bad jit":            "0\tx\t0\t1\t1\t0\tp\timg\n",
		"bad epoch":          "0\t0\t1.5\t1\t1\t0\tp\timg\n",
		"bad offset":         "0\t0\t0\t0x10\t1\t0\tp\timg\n",
		"bad count":          good + "0\t0\t0\t1\t\t0\tp\timg\n",
		"bad cpu":            "0\t0\t0\t1\t1\tcpu0\tp\timg\n",
		"two bad fields":     "0\tx\ty\t1\t1\t0\tp\timg\n",
		"negative epoch":     "0\t0\t-1\t1\t1\t-2\tp\timg\n",
		"negative offset":    "0\t0\t0\t-1\t1\t0\tp\timg\n",
		"plus signs":         "+0\t+1\t+2\t3\t4\t+5\tp\timg\n",
		"offset max":         "0\t0\t0\t18446744073709551615\t18446744073709551615\t0\tp\timg\n",
		"offset overflow":    "0\t0\t0\t18446744073709551616\t1\t0\tp\timg\n",
		"event overflow":     "99999999999999999999\t0\t0\t1\t1\t0\tp\timg\n",
		"long numeric field": "0\t0\t0\t" + strings.Repeat("1", 40) + "\t1\t0\tp\timg\n",
		"underscore":         "0\t0\t0\t1_000\t1\t0\tp\timg\n",
		"sums duplicates":    good + good + good,
		"limit-1 nl":         good + long(1<<20-1) + "\n" + good,
		"limit-1 eof":        good + long(1<<20-1),
		"limit nl":           good + long(1<<20) + "\n" + good,
		"limit eof":          good + long(1<<20),
		"limit+1 nl":         good + long(1<<20+1) + "\n",
		"limit-2 crlf":       good + long(1<<20-2) + "\r\n",
		"limit-1 crlf":       good + long(1<<20-1) + "\r\n",
		"error before limit": "garbage\n" + long(1<<20+5),
	}
	for name, in := range cases {
		checkReadMatchesRef(t, name, []byte(in))
	}
	// The limit cases must actually straddle the limit.
	for name, wantErr := range map[string]error{"limit-1 eof": nil, "limit eof": bufio.ErrTooLong, "limit-1 crlf": bufio.ErrTooLong} {
		if err := readCountsText([]byte(cases[name]), make(map[Key]uint64)); err != wantErr {
			t.Errorf("%s: error %v, want %v", name, err, wantErr)
		}
	}
}

// TestAppendCountsMatchesReferenceFixed pins the writer's edge cases
// byte for byte: nothing to write, zero counts, extreme values.
func TestAppendCountsMatchesReferenceFixed(t *testing.T) {
	ks := []Key{
		{Event: hpc.Event(255), Image: "a\tb", Proc: "p q,r", JIT: true, Epoch: -3, CPU: -1, Off: math.MaxUint64},
		{Image: "", Proc: ""},
		{Event: hpc.BSQCacheReference, Image: "vmlinux", Proc: "swapper", CPU: 7, Off: 0x40},
	}
	cases := map[string]struct {
		counts map[Key]uint64
		order  []Key
	}{
		"nil":        {nil, nil},
		"zero only":  {map[Key]uint64{ks[0]: 0}, ks[:1]},
		"missing":    {map[Key]uint64{}, ks},
		"extremes":   {map[Key]uint64{ks[0]: math.MaxUint64, ks[1]: 1, ks[2]: 9}, ks},
		"repeated":   {map[Key]uint64{ks[2]: 5}, []Key{ks[2], ks[2]}},
		"zero mixed": {map[Key]uint64{ks[0]: 0, ks[1]: 2, ks[2]: 0}, ks},
	}
	for name, c := range cases {
		var want bytes.Buffer
		if err := refWriteCounts(&want, c.counts, c.order); err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if got := AppendCounts(nil, c.counts, c.order); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: got %q, want %q", name, got, want.Bytes())
		}
	}
}

// TestReadCountsKeysDoNotAliasInput pins the interning contract of
// both readers: clobbering the parsed buffer afterwards leaves the keys
// intact.
func TestReadCountsKeysDoNotAliasInput(t *testing.T) {
	data := []byte("0\t0\t0\t64\t5\t0\tapp\tlibc.so\n0\t0\t0\t65\t1\t0\tapp\tlibc.so\n")
	counts := make(map[Key]uint64)
	if err := readCountsText(data, counts); err != nil {
		t.Fatal(err)
	}
	run, err := ParseRun(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'X'
	}
	for k := range counts {
		if k.Proc != "app" || k.Image != "libc.so" {
			t.Fatalf("key aliases the input buffer: %+v", k)
		}
	}
	for _, kc := range run {
		if kc.Key.Proc != "app" || kc.Key.Image != "libc.so" {
			t.Fatalf("run key aliases the input buffer: %+v", kc.Key)
		}
	}
}

// totalAlloc returns the heap bytes allocated while f runs.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadCountsSalvageAllocs bounds what reading a framed sample file
// allocates per record. The Scanner-based reader zeroed a fresh 1 MiB
// line buffer for every record (about 1.06 MB per record); the bound
// here is 32 KiB.
func TestReadCountsSalvageAllocs(t *testing.T) {
	const records, keys = 50, 20
	var file []byte
	for rec := 0; rec < records; rec++ {
		counts := make(map[Key]uint64)
		order := make([]Key, 0, keys)
		for i := 0; i < keys; i++ {
			k := Key{Event: hpc.GlobalPowerEvents, Image: JITImageName, Proc: "jikesrvm", JIT: true,
				Epoch: rec / 10, CPU: i % 4, Off: addr.Address(0x6000_0000 + 64*((rec*7+i)%100))}
			if i%5 == 0 {
				k = Key{Event: hpc.GlobalPowerEvents, Image: "libc.so", Proc: "jikesrvm", CPU: i % 4, Off: addr.Address(i)}
			}
			counts[k] = uint64(rec + i + 1)
			order = append(order, k)
		}
		file = append(file, record.Frame(AppendCounts(nil, counts, order))...)
	}
	const reads = 10
	var sal record.Salvage
	perRecord := totalAlloc(func() {
		for i := 0; i < reads; i++ {
			var err error
			if _, sal, err = ReadCountsSalvage(file); err != nil {
				t.Fatal(err)
			}
		}
	}) / (reads * records)
	if sal.Records != records || sal.Lossy() {
		t.Fatalf("salvage = %+v, want %d clean records", sal, records)
	}
	t.Logf("ReadCountsSalvage: %d bytes allocated per record", perRecord)
	if perRecord >= 32<<10 {
		t.Errorf("ReadCountsSalvage allocates %d bytes per record, want < %d", perRecord, 32<<10)
	}
}
