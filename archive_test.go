package viprof

import (
	"os"
	"path/filepath"
	"testing"
)

func TestArchiveRoundTrip(t *testing.T) {
	out, err := ProfileBenchmark("fop", Options{Scale: 0.2, MissPeriod: 12_000})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := out.DumpProfile(dir); err != nil {
		t.Fatal(err)
	}
	// The archive must contain the pieces a standalone post-processor
	// needs.
	for _, want := range []string{
		"var/lib/oprofile/samples.log",
		"RVM.map",
		"viprof-manifest.txt",
		filepath.Join("images", "vmlinux.map"),
	} {
		if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(want))); err != nil {
			t.Errorf("archive missing %s: %v", want, err)
		}
	}

	rep, err := LoadArchivedReport(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The reloaded report must agree with the in-process one row for
	// row.
	if len(rep.Rows) != len(out.Report.Rows) {
		t.Fatalf("reloaded %d rows, original %d", len(rep.Rows), len(out.Report.Rows))
	}
	orig := map[string]uint64{}
	for _, r := range out.Report.Rows {
		orig[r.Image+"|"+r.Symbol] = r.Counts[EventCycles]
	}
	for _, r := range rep.Rows {
		if orig[r.Image+"|"+r.Symbol] != r.Counts[EventCycles] {
			t.Errorf("row %s/%s: reloaded %d, original %d",
				r.Image, r.Symbol, r.Counts[EventCycles], orig[r.Image+"|"+r.Symbol])
		}
	}
}

func TestLoadArchivedReportErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadArchivedReport(dir); err == nil {
		t.Error("empty archive accepted")
	}
	// A manifest without sample data loads — a daemon that crashed
	// before its first flush leaves exactly this shape — but the loss is
	// surfaced, never papered over.
	if err := os.WriteFile(filepath.Join(dir, "viprof-manifest.txt"),
		[]byte("event 0\nvm 3 jikesrvm\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := LoadArchivedReport(dir)
	if err != nil {
		t.Fatalf("archive without sample data: %v", err)
	}
	if rep.Integrity == nil || !rep.Integrity.SampleFileMissing {
		t.Error("missing sample file not flagged in Integrity")
	}
	if !rep.Integrity.Degraded() {
		t.Error("missing sample file did not degrade the report")
	}
	if len(rep.Rows) != 0 {
		t.Errorf("%d rows conjured from no sample data", len(rep.Rows))
	}
}

// TestArchiveManifestMalformedLine: both loaders read the manifest
// through one strict parser, so a malformed event or vm line fails
// each of them (the phase view used to skip such a line).
func TestArchiveManifestMalformedLine(t *testing.T) {
	out, err := ProfileBenchmark("fop", Options{Scale: 0.2, MissPeriod: 12_000})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := out.DumpProfile(dir); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, "viprof-manifest.txt")
	intact, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArchivedReport(dir); err != nil {
		t.Fatalf("intact archive: %v", err)
	}
	if _, err := LoadArchivedPhases(dir); err != nil {
		t.Fatalf("intact archive phases: %v", err)
	}
	for _, line := range []string{"event x", "event", "event 1 2", "vm x jikesrvm", "vm 3"} {
		man := append(append([]byte(nil), intact...), line+"\n"...)
		if err := os.WriteFile(manPath, man, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadArchivedReport(dir); err == nil {
			t.Errorf("LoadArchivedReport accepted manifest line %q", line)
		}
		if _, err := LoadArchivedPhases(dir); err == nil {
			t.Errorf("LoadArchivedPhases accepted manifest line %q", line)
		}
	}
}
