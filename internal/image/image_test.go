package image

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"viprof/internal/addr"
)

func TestAddAndResolve(t *testing.T) {
	im := New("libc.so", 0x10000)
	syms := []Symbol{
		{Name: "memset", Off: 0x100, Size: 0x80},
		{Name: "memcpy", Off: 0x200, Size: 0x100},
		{Name: "malloc", Off: 0x1000, Size: 0x400},
	}
	for _, s := range syms {
		if err := im.AddSymbol(s); err != nil {
			t.Fatalf("AddSymbol(%q): %v", s.Name, err)
		}
	}
	tests := []struct {
		off  addr.Address
		want string
		ok   bool
	}{
		{0x100, "memset", true},
		{0x17F, "memset", true},
		{0x180, "", false}, // gap between memset and memcpy
		{0x2FF, "memcpy", true},
		{0x13FF, "malloc", true},
		{0x1400, "", false},
		{0x0, "", false},
	}
	for _, tt := range tests {
		s, ok := im.Resolve(tt.off)
		if ok != tt.ok || (ok && s.Name != tt.want) {
			t.Errorf("Resolve(%s) = %q,%v; want %q,%v", tt.off, s.Name, ok, tt.want, tt.ok)
		}
	}
	if s, ok := im.Lookup("memcpy"); !ok || s.Off != 0x200 {
		t.Errorf("Lookup(memcpy) = %+v,%v", s, ok)
	}
	if _, ok := im.Lookup("free"); ok {
		t.Error("Lookup of missing symbol succeeded")
	}
}

func TestAddSymbolErrors(t *testing.T) {
	im := New("app", 0x1000)
	if err := im.AddSymbol(Symbol{Name: "empty", Off: 0, Size: 0}); err == nil {
		t.Error("empty symbol accepted")
	}
	if err := im.AddSymbol(Symbol{Name: "big", Off: 0xF00, Size: 0x200}); err == nil {
		t.Error("out-of-image symbol accepted")
	}
	if err := im.AddSymbol(Symbol{Name: "a", Off: 0x100, Size: 0x100}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Symbol{
		{Name: "o1", Off: 0x80, Size: 0x100},
		{Name: "o2", Off: 0x1FF, Size: 0x10},
		{Name: "o3", Off: 0x100, Size: 0x100},
		{Name: "o4", Off: 0x140, Size: 0x10},
	} {
		if err := im.AddSymbol(s); err == nil {
			t.Errorf("overlapping symbol %q accepted", s.Name)
		}
	}
	// Adjacent is fine.
	if err := im.AddSymbol(Symbol{Name: "adj", Off: 0x200, Size: 0x10}); err != nil {
		t.Errorf("adjacent symbol rejected: %v", err)
	}
}

// Property: every offset within an accepted symbol resolves to it, and
// the table remains sorted and non-overlapping.
func TestResolveQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		im := New("x", 1<<20)
		var accepted []Symbol
		for i := 0; i < 30; i++ {
			s := Symbol{
				Name: "f" + string(rune('a'+i)),
				Off:  addr.Address(rng.Intn(1 << 18)),
				Size: uint64(rng.Intn(256) + 1),
			}
			if err := im.AddSymbol(s); err == nil {
				accepted = append(accepted, s)
			}
		}
		all := im.Symbols()
		for i := 1; i < len(all); i++ {
			if all[i-1].End() > all[i].Off {
				return false
			}
		}
		for _, s := range accepted {
			for _, off := range []addr.Address{s.Off, s.End() - 1} {
				got, ok := im.Resolve(off)
				if !ok || got.Name != s.Name {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder("RVM.code.image")
	off1 := b.Add("com.ibm.jikesrvm.VM_Scheduler.run", 300)
	off2 := b.Add("com.ibm.jikesrvm.VM_Compiler.compile", 1000)
	im, err := b.Image()
	if err != nil {
		t.Fatal(err)
	}
	if off1 != 0 {
		t.Errorf("first symbol at %s, want 0", off1)
	}
	if off2%16 != 0 || off2 < 300 {
		t.Errorf("second symbol at %s: want 16-aligned after first", off2)
	}
	if im.Size != uint64(off2)+1000 {
		t.Errorf("image size %d", im.Size)
	}
	if s, ok := im.Resolve(off2 + 500); !ok || !strings.Contains(s.Name, "compile") {
		t.Errorf("Resolve mid-symbol: %+v %v", s, ok)
	}
}

func TestRVMMapRoundTrip(t *testing.T) {
	b := NewBuilder("RVM.code.image")
	names := []string{
		"com.ibm.jikesrvm.classloader.VM_NormalMethod.getOsrPrologueLength",
		"com.ibm.jikesrvm.opt.VM_OptCompiledMethod.createCodePatchMaps",
		"com.ibm.jikesrvm.MainThread.run",
	}
	for i, n := range names {
		b.Add(n, uint64(100*(i+1)))
	}
	im, err := b.Image()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadRVMMap(bytes.NewReader(AppendRVMMap(nil, im)), "RVM.code.image")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSymbols() != len(names) {
		t.Fatalf("round trip lost symbols: %d vs %d", got.NumSymbols(), len(names))
	}
	for _, want := range im.Symbols() {
		s, ok := got.Lookup(want.Name)
		if !ok || s.Off != want.Off || s.Size != want.Size {
			t.Errorf("symbol %q round trip = %+v,%v; want %+v", want.Name, s, ok, want)
		}
	}
}

func TestRVMMapErrors(t *testing.T) {
	if _, err := ReadRVMMap(strings.NewReader("zz nonsense line\n"), "x"); err == nil {
		t.Error("malformed map accepted")
	}
	// Comments and blank lines are fine.
	im, err := ReadRVMMap(strings.NewReader("# header\n\n0010 32 a.b.c\n"), "x")
	if err != nil || im.NumSymbols() != 1 {
		t.Errorf("comment handling: %v, %d symbols", err, im.NumSymbols())
	}
	// Overlapping entries rejected.
	if _, err := ReadRVMMap(strings.NewReader("0010 32 a\n0020 32 b\n"), "x"); err == nil {
		t.Error("overlapping map entries accepted")
	}
}
