package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"viprof/internal/addr"
	"viprof/internal/cache"
	"viprof/internal/cpu"
	"viprof/internal/hpc"
	"viprof/internal/kernel"
	"viprof/internal/record"
)

func TestMapFileRoundTrip(t *testing.T) {
	entries := []MapEntry{
		{Start: 0x6000_0040, Size: 512, Level: "base", Sig: "app.Main.main"},
		{Start: 0x6000_0400, Size: 128, Level: "opt", Sig: "app.Worker.run"},
	}
	got, err := ReadMapFile(AppendMapFile(nil, entries))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d entries", len(got))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Errorf("entry %d: %+v != %+v", i, got[i], entries[i])
		}
	}
}

func TestReadMapFileErrors(t *testing.T) {
	// Unframed garbage: nothing salvages, no trailer — rejected.
	if _, err := ReadMapFile([]byte("not a map\n")); err == nil {
		t.Error("garbage accepted")
	}
	// An empty entry set with a valid trailer is a legitimate empty map.
	got, err := ReadMapFile(AppendMapFile(nil, nil))
	if err != nil || len(got) != 0 {
		t.Errorf("empty map: %v, %d entries", err, len(got))
	}
	// A map missing its trailer record reads as torn.
	var noTrailer bytes.Buffer
	noTrailer.Write(record.Frame([]byte("00000010 5 0 base a.b\n")))
	if _, err := ReadMapFile(noTrailer.Bytes()); err == nil {
		t.Error("map without trailer accepted (torn writes undetectable)")
	}
	// A trailer whose count disagrees with the entries reads as torn.
	var mismatch bytes.Buffer
	mismatch.Write(record.Frame([]byte("00000010 5 0 base a.b\n")))
	mismatch.Write(record.Frame([]byte("#end 2\n")))
	if _, err := ReadMapFile(mismatch.Bytes()); err == nil {
		t.Error("trailer count mismatch accepted")
	}
	// A checksum-valid record with an unparseable payload is a writer
	// bug and errors hard even through the salvage path.
	var badPayload bytes.Buffer
	badPayload.Write(record.Frame([]byte("zz not numbers\n")))
	if _, _, _, err := salvageMapData(badPayload.Bytes()); err == nil {
		t.Error("unparseable checksum-valid record accepted")
	}
}

func TestMapChainBackwardSearch(t *testing.T) {
	// Epoch 0: method A at [100,200). Epoch 1: method B compiled at
	// [300,400); A unmoved (not rewritten). Epoch 2: GC moved A to
	// [500,600) and B to [100,200) — B now occupies A's old range.
	chain := NewMapChain([][]MapEntry{
		{{Start: 100, Size: 100, Sig: "A", Level: "base"}},
		{{Start: 300, Size: 100, Sig: "B", Level: "base"}},
		{
			{Start: 500, Size: 100, Sig: "A", Level: "base"},
			{Start: 100, Size: 100, Sig: "B", Level: "base"},
		},
	})
	tests := []struct {
		epoch int
		pc    addr.Address
		want  string
		found bool
	}{
		{0, 150, "A", true}, // same epoch
		{1, 150, "A", true}, // falls back to epoch 0's map
		{1, 350, "B", true}, // epoch 1's own map
		{2, 150, "B", true}, // B moved onto A's old range: epoch 2 wins
		{2, 550, "A", true}, // A's new home
		{2, 999, "", false}, // nowhere
		{0, 350, "", false}, // B doesn't exist yet in epoch 0's view
		{9, 550, "A", true}, // epoch beyond chain clamps to last map
	}
	for _, tt := range tests {
		e, _, ok := chain.Resolve(tt.epoch, tt.pc)
		if ok != tt.found || (ok && e.Sig != tt.want) {
			t.Errorf("Resolve(%d, %d) = %q,%v; want %q,%v", tt.epoch, tt.pc, e.Sig, ok, tt.want, tt.found)
		}
	}
	// Depth accounting: epoch-1 lookup of A searches 2 maps.
	_, depth, _ := chain.Resolve(1, 150)
	if depth != 2 {
		t.Errorf("search depth = %d, want 2", depth)
	}
}

func TestMapChainEmptyEpochs(t *testing.T) {
	chain := NewMapChain([][]MapEntry{
		{{Start: 100, Size: 50, Sig: "A", Level: "base"}},
		nil, // epoch with no writes
		{{Start: 100, Size: 50, Sig: "C", Level: "opt"}},
	})
	if e, _, ok := chain.Resolve(1, 120); !ok || e.Sig != "A" {
		t.Errorf("empty epoch fallthrough: %+v %v", e, ok)
	}
	if e, _, ok := chain.Resolve(2, 120); !ok || e.Sig != "C" {
		t.Errorf("latest epoch: %+v %v", e, ok)
	}
}

func TestReadMapChainFromDisk(t *testing.T) {
	disk := kernel.NewDisk()
	disk.Append(MapPath(7, 0), AppendMapFile(nil, []MapEntry{{Start: 10, Size: 5, Sig: "X", Level: "base"}}))
	// epoch 1 missing, epoch 2 present
	disk.Append(MapPath(7, 2), AppendMapFile(nil, []MapEntry{{Start: 20, Size: 5, Sig: "Y", Level: "opt"}}))
	chain, err := ReadMapChain(disk, 7)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Epochs() != 3 {
		t.Fatalf("epochs = %d, want 3", chain.Epochs())
	}
	if e, _, ok := chain.Resolve(2, 12); !ok || e.Sig != "X" {
		t.Errorf("backward search across gap: %+v %v", e, ok)
	}
	if e, _, ok := chain.Resolve(2, 22); !ok || e.Sig != "Y" {
		t.Errorf("epoch 2 entry: %+v %v", e, ok)
	}
	// Unknown pid: empty chain, no error.
	empty, err := ReadMapChain(disk, 99)
	if err != nil || empty.Epochs() != 0 {
		t.Errorf("unknown pid: %v, %d epochs", err, empty.Epochs())
	}
}

func newTestMachine() *kernel.Machine {
	core := cpu.New(hpc.NewBank(), cache.DefaultHierarchy())
	return kernel.NewMachine(core, 1)
}

func TestRuntimeRegistry(t *testing.T) {
	rt := NewRuntime()
	epoch := 0
	rt.RegisterJIT(5, 0x6000_0000, 0x6800_0000, func() int { return epoch })
	if !rt.Registered(5) || rt.Registered(6) {
		t.Error("registration state wrong")
	}
	if jit, e := rt.Check(5, 0x6100_0000); !jit || e != 0 {
		t.Errorf("Check inside = %v,%d", jit, e)
	}
	epoch = 3
	if _, e := rt.Check(5, 0x6100_0000); e != 3 {
		t.Errorf("epoch not live: %d", e)
	}
	if jit, _ := rt.Check(5, 0x5000_0000); jit {
		t.Error("Check outside region matched")
	}
	if jit, _ := rt.Check(6, 0x6100_0000); jit {
		t.Error("Check wrong pid matched")
	}
	if rt.Stack(5, 4) != nil {
		t.Error("stack walker before attach")
	}
	rt.AttachStackWalker(5, func(max int) []addr.Address { return []addr.Address{1, 2} })
	if got := rt.Stack(5, 4); len(got) != 2 {
		t.Errorf("stack = %v", got)
	}
	checks, hits := rt.Stats()
	if checks < 4 || hits != 2 {
		t.Errorf("stats = %d/%d", checks, hits)
	}
	rt.UnregisterJIT(5)
	if jit, _ := rt.Check(5, 0x6100_0000); jit {
		t.Error("Check after unregister matched")
	}
}

// refMapLine is the map writer's line format (the fmt.Sprintf of the
// io.Writer-based WriteMapFile that AppendMapFile replaced), kept as
// the reference the codec tests generate lines with.
func refMapLine(e MapEntry) string {
	return fmt.Sprintf("%08x %d %d %s %s\n", uint64(e.Start), e.Size, e.Epoch, e.Level, e.Sig)
}

// refWriteMapFile is the io.Writer-based map writer AppendMapFile
// replaced, kept as its byte-for-byte reference.
func refWriteMapFile(w io.Writer, entries []MapEntry) error {
	for _, e := range entries {
		line := fmt.Sprintf("%08x %d %d %s %s\n",
			uint64(e.Start), e.Size, e.Epoch, e.Level, e.Sig)
		if _, err := w.Write(record.Frame([]byte(line))); err != nil {
			return err
		}
	}
	trailer := fmt.Sprintf("#end %d\n", len(entries))
	_, err := w.Write(record.Frame([]byte(trailer)))
	return err
}

// TestAppendMapFileMatchesReference: on random entry sets AppendMapFile
// appends exactly the reference writer's bytes after whatever dst holds.
func TestAppendMapFileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for it := 0; it < 200; it++ {
		entries := make([]MapEntry, rng.Intn(6))
		for i := range entries {
			entries[i] = MapEntry{Start: addr.Address(rng.Uint64() >> uint(rng.Intn(64))), Size: rng.Uint32(),
				Epoch: rng.Intn(40) - 2, Level: [...]string{"base", "opt", ""}[rng.Intn(3)],
				Sig: fmt.Sprintf("LA%d;.m(I)V", rng.Intn(1000))}
		}
		prefix := []byte(fmt.Sprint(it))
		want := bytes.NewBuffer(append([]byte(nil), prefix...))
		if err := refWriteMapFile(want, entries); err != nil {
			t.Fatal(err)
		}
		if got := AppendMapFile(prefix, entries); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("iter %d: got %q, want %q", it, got, want.Bytes())
		}
	}
}

// refSalvageMapData is the fmt.Sscanf map reader that salvageMapData
// replaced, kept as the reference for what the new reader accepts,
// rejects and returns.
func refSalvageMapData(data []byte) (entries []MapEntry, sal record.Salvage, trailerOK bool, err error) {
	recs, sal := record.Scan(data)
	trailer := -1
	for _, payload := range recs {
		text := strings.TrimSpace(string(payload))
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#end ") {
			var n int
			if c, serr := fmt.Sscanf(text, "#end %d", &n); c != 1 || serr != nil {
				return nil, sal, false, fmt.Errorf("code map: bad trailer %q", text)
			}
			trailer = n
			continue
		}
		var start uint64
		var size uint32
		var epoch int
		var level, sig string
		if _, serr := fmt.Sscanf(text, "%x %d %d %s %s", &start, &size, &epoch, &level, &sig); serr != nil {
			return nil, sal, false, fmt.Errorf("code map entry %q: %v", text, serr)
		}
		entries = append(entries, MapEntry{
			Start: addr.Address(start), Size: size, Epoch: epoch, Level: level, Sig: sig,
		})
	}
	trailerOK = trailer == len(entries)
	return entries, sal, trailerOK, nil
}

// mapErrHead is the part of a reader error that names the rejected
// record; the reason after it is the parser's own.
func mapErrHead(payload string) string {
	text := strings.TrimSpace(payload)
	if strings.HasPrefix(text, "#end ") {
		return fmt.Sprintf("code map: bad trailer %q", text)
	}
	return fmt.Sprintf("code map entry %q: ", text)
}

// checkMapReadersAgree frames the payloads as one map file and reports
// where salvageMapData and the reference disagree: entries, salvage
// accounting, trailer verdict, and whether and on which record each
// errors.
func checkMapReadersAgree(payloads ...string) error {
	var data []byte
	for _, p := range payloads {
		data = append(data, record.Frame([]byte(p))...)
	}
	got, gsal, gok, gerr := salvageMapData(data)
	want, wsal, wok, werr := refSalvageMapData(data)
	if (gerr != nil) != (werr != nil) {
		return fmt.Errorf("%q: error %v, reference %v", payloads, gerr, werr)
	}
	if werr != nil {
		for _, p := range payloads {
			head := mapErrHead(p)
			if strings.HasPrefix(werr.Error(), head) {
				if !strings.HasPrefix(gerr.Error(), head) {
					return fmt.Errorf("%q: error %q, want it to start %q", payloads, gerr, head)
				}
				return nil
			}
		}
		return fmt.Errorf("%q: reference error %q names no payload", payloads, werr)
	}
	if gsal != wsal || gok != wok || !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%q: got %+v %+v trailerOK=%v, reference %+v %+v trailerOK=%v",
			payloads, got, gsal, gok, want, wsal, wok)
	}
	return nil
}

// genMapEntry draws an entry that covers the writer's extremes: start
// 0 and 2^64-1, size 0 and 2^32-1, negative epochs, both tiers, and
// signatures built from the JVM descriptor punctuation.
func genMapEntry(rng *rand.Rand) MapEntry {
	e := MapEntry{Level: [...]string{"base", "opt"}[rng.Intn(2)]}
	switch rng.Intn(4) {
	case 0:
		e.Start = 0
	case 1:
		e.Start = addr.Address(math.MaxUint64)
	default:
		e.Start = addr.Address(rng.Uint64() >> uint(rng.Intn(64)))
	}
	switch rng.Intn(4) {
	case 0:
		e.Size = 0
	case 1:
		e.Size = math.MaxUint32
	default:
		e.Size = uint32(rng.Int63n(1 << 20))
	}
	switch rng.Intn(5) {
	case 0:
		e.Epoch = -rng.Intn(50) - 1
	case 1:
		e.Epoch = math.MinInt64
	case 2:
		e.Epoch = math.MaxInt64
	default:
		e.Epoch = rng.Intn(200)
	}
	const alphabet = "abcXYZ019_.;()$<>/[L"
	sig := make([]byte, 1+rng.Intn(40))
	for i := range sig {
		sig[i] = alphabet[rng.Intn(len(alphabet))]
	}
	e.Sig = string(sig)
	return e
}

// mutateMapLine derives edge-case lines from a well-formed entry line:
// signs, tabs, a trailing token, uppercase hex, a 0x prefix, size
// 2^32, a missing field, and bytes the writer never emits (newlines,
// carriage returns, Unicode spaces, invalid UTF-8) dropped in at
// random.
func mutateMapLine(rng *rand.Rand, line string) []string {
	f := strings.Fields(line)
	join := func(g []string) string { return strings.Join(g, " ") + "\n" }
	with := func(i int, v string) string {
		g := append([]string(nil), f...)
		g[i] = v
		return join(g)
	}
	field := rng.Intn(len(f))
	missing := append(append([]string(nil), f[:field]...), f[field+1:]...)
	out := []string{
		with(field, "+"+f[field]),
		with(field, "-"+f[field]),
		strings.ReplaceAll(line, " ", "\t"),
		strings.Replace(line, " ", " \t ", 1+rng.Intn(4)),
		join(append(append([]string(nil), f...), "extra")),
		with(0, strings.ToUpper(f[0])),
		with(0, "0x"+f[0]),
		with(0, "0X"+f[0]),
		with(1, "4294967296"),
		with(1, f[1]+"0"),
		join(missing),
	}
	odd := []string{"\n", "\r", "\r\n", "\v", "\t", " ", "\u0085", "\u00a0", "\u3000", "\xff", "\xc2", "#", "%", "0", "-", "+"}
	for i := 0; i < 4; i++ {
		at := rng.Intn(len(line) + 1)
		out = append(out, line[:at]+odd[rng.Intn(len(odd))]+line[at:])
	}
	return out
}

// mutateMapTrailer derives trailer lines for an n-entry file: signs,
// a trailing token, junk after the digits, tabs, and no digits.
func mutateMapTrailer(rng *rand.Rand, n int) []string {
	d := fmt.Sprint(n)
	return []string{
		"#end " + d + "\n",
		"#end +" + d + "\n",
		"#end -" + d + "\n",
		"#end " + d + " extra\n",
		"#end " + d + "x\n",
		"#end \t " + d + "\n",
		"#end\t" + d + "\n",
		"#end \n" + d + "\n",
		"#end +\n",
		"#end " + []string{"x", "+x", "--1", "0x1", "\u00a0" + d}[rng.Intn(5)] + "\n",
	}
}

// TestMapLineCodecMatchesSscanf is the codec quickcheck: the in-place
// reader must return the entries the fmt.Sscanf reader returned, and
// accept and reject exactly the lines it did, over generated entries
// and lines mutated around them. `-args -quickchecks=N` widens it.
func TestMapLineCodecMatchesSscanf(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		entries := make([]string, 1+rng.Intn(3))
		for i := range entries {
			entries[i] = refMapLine(genMapEntry(rng))
		}
		trailer := fmt.Sprintf("#end %d\n", len(entries))
		check := func(payloads ...string) bool {
			if err := checkMapReadersAgree(payloads...); err != nil {
				t.Error(err)
				return false
			}
			return true
		}
		ok := check(append(entries, trailer)...)
		for _, line := range mutateMapLine(rng, entries[0]) {
			ok = check(line, entries[len(entries)-1], trailer) && ok
		}
		for _, tr := range mutateMapTrailer(rng, len(entries)) {
			ok = check(append(append([]string(nil), entries...), tr)...) && ok
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMapLineCodecEdgeCases pins each edge case to its outcome and to
// the reference reader's.
func TestMapLineCodecEdgeCases(t *testing.T) {
	const rt = "\uFFFD"
	for _, c := range []struct {
		line string
		want *MapEntry // nil: the record is rejected
	}{
		{"00000000 0 0 base a", &MapEntry{Start: 0, Size: 0, Epoch: 0, Level: "base", Sig: "a"}},
		{"ffffffffffffffff 4294967295 -7 opt LA;.m()V", &MapEntry{Start: math.MaxUint64, Size: math.MaxUint32, Epoch: -7, Level: "opt", Sig: "LA;.m()V"}},
		{"ABCdef 1 2 base s", &MapEntry{Start: 0xabcdef, Size: 1, Epoch: 2, Level: "base", Sig: "s"}},
		{"00000000000000000010 1 2 base s", &MapEntry{Start: 0x10, Size: 1, Epoch: 2, Level: "base", Sig: "s"}},
		{"10 1 +2 base s", &MapEntry{Start: 0x10, Size: 1, Epoch: 2, Level: "base", Sig: "s"}},
		{"10 1 -9223372036854775808 base s", &MapEntry{Start: 0x10, Size: 1, Epoch: math.MinInt64, Level: "base", Sig: "s"}},
		{"10\t1 \t 2\vbase\fs", &MapEntry{Start: 0x10, Size: 1, Epoch: 2, Level: "base", Sig: "s"}},
		{"10 1 2 base s extra tokens", &MapEntry{Start: 0x10, Size: 1, Epoch: 2, Level: "base", Sig: "s"}},
		{"10 1 2 base s\nnext line", &MapEntry{Start: 0x10, Size: 1, Epoch: 2, Level: "base", Sig: "s"}},
		{"10 1 2 base s\u3000t", &MapEntry{Start: 0x10, Size: 1, Epoch: 2, Level: "base", Sig: "s"}},
		{"10 1 2 baseline s\xffx", &MapEntry{Start: 0x10, Size: 1, Epoch: 2, Level: "baseline", Sig: "s" + rt + "x"}},
		{"10 1 2 b\xc2 s", &MapEntry{Start: 0x10, Size: 1, Epoch: 2, Level: "b" + rt, Sig: "s"}},
		{"+10 1 2 base s", nil},
		{"-10 1 2 base s", nil},
		{"10 +1 2 base s", nil},
		{"10 -1 2 base s", nil},
		{"10 1 ++2 base s", nil},
		{"0x10 1 2 base s", nil},
		{"10000000000000000 1 2 base s", nil},
		{"10 4294967296 2 base s", nil},
		{"10 1 9223372036854775808 base s", nil},
		{"10 1 2 base", nil},
		{"10 1 2", nil},
		{"10g 1 2 base s", nil},
		{"10 1x 2 base s", nil},
		{"10 1 2\nbase s", nil},
		{"10 1 2 base\ns", nil},
		{"10 1 2 base \r\ns", nil},
		{"#end", nil},
		{"#end\t1", nil},
	} {
		payload := c.line + "\n"
		if err := checkMapReadersAgree(payload); err != nil {
			t.Error(err)
		}
		got, _, _, err := salvageMapData(record.Frame([]byte(payload)))
		switch {
		case c.want == nil && err == nil:
			t.Errorf("%q accepted as %+v", c.line, got)
		case c.want != nil && err != nil:
			t.Errorf("%q rejected: %v", c.line, err)
		case c.want != nil && (len(got) != 1 || got[0] != *c.want):
			t.Errorf("%q = %+v, want %+v", c.line, got, *c.want)
		}
	}
	for _, c := range []struct {
		trailer string
		ok      bool // the trailer parses and counts the one entry
	}{
		{"#end 1", true},
		{"#end +1", true},
		{"#end 1 extra", true},
		{"#end 1x", true},
		{"#end \t 1", true},
		{"#end 01", true},
		{"#end 2", false},
		{"#end -1", false},
	} {
		data := append(record.Frame([]byte("10 1 2 base s\n")), record.Frame([]byte(c.trailer+"\n"))...)
		if err := checkMapReadersAgree("10 1 2 base s\n", c.trailer+"\n"); err != nil {
			t.Error(err)
		}
		if _, _, ok, err := salvageMapData(data); err != nil || ok != c.ok {
			t.Errorf("%q: trailerOK=%v err=%v, want trailerOK=%v", c.trailer, ok, err, c.ok)
		}
	}
	for _, bad := range []string{"#end x", "#end +", "#end -x", "#end \n1", "#end 99999999999999999999"} {
		if err := checkMapReadersAgree("10 1 2 base s\n", bad+"\n"); err != nil {
			t.Error(err)
		}
		data := append(record.Frame([]byte("10 1 2 base s\n")), record.Frame([]byte(bad+"\n"))...)
		if _, _, _, err := salvageMapData(data); err == nil || !strings.HasPrefix(err.Error(), "code map: bad trailer") {
			t.Errorf("%q: err = %v, want a bad-trailer error", bad, err)
		}
	}
}

// TestMapEntriesDoNotAliasInput pins the copy contract: clobbering the
// parsed buffer afterwards leaves every entry intact.
func TestMapEntriesDoNotAliasInput(t *testing.T) {
	want := []MapEntry{
		{Start: 0x6000_0040, Size: 512, Epoch: 1, Level: "base", Sig: "LApp;.main([Ljava/lang/String;)V"},
		{Start: 0x6000_0400, Size: 128, Epoch: 2, Level: "opt", Sig: "LWorker;.run()V"},
		{Start: 0x6000_0800, Size: 64, Epoch: 2, Level: "tier9", Sig: "LWorker;.spin()V"},
	}
	data := AppendMapFile(nil, want)
	got, err := ReadMapFile(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'X'
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("entries alias the input buffer:\n got %+v\nwant %+v", got, want)
	}
}

// TestMapReadAllocs bounds what reading a map file allocates: one
// string per entry for its signature (the tier is a constant), the
// result slice, and whatever record.Scan itself allocates.
func TestMapReadAllocs(t *testing.T) {
	const n = 64
	entries := make([]MapEntry, n)
	for i := range entries {
		entries[i] = MapEntry{Start: addr.Address(0x6000_0000 + 64*i), Size: 64, Epoch: i / 8,
			Level: [...]string{"base", "opt"}[i%2], Sig: fmt.Sprintf("LBench;.m%d(I)V", i)}
	}
	data := AppendMapFile(nil, entries)
	scan := testing.AllocsPerRun(20, func() { record.Scan(data) })
	read := testing.AllocsPerRun(20, func() {
		if got, err := ReadMapFile(data); err != nil || len(got) != n {
			t.Fatalf("read %d entries: %v", len(got), err)
		}
	})
	t.Logf("ReadMapFile: %.0f allocations for %d entries (record.Scan: %.0f)", read, n, scan)
	if limit := n + 1 + scan; read > limit {
		t.Errorf("ReadMapFile made %.0f allocations for %d entries, want <= %.0f", read, n, limit)
	}
}
