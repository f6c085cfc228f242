package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"viprof/internal/oprofile"
	"viprof/internal/workload"
)

// TestResolverPinnedOnRealChains pins the offline resolver on the code
// maps real profiled runs write (VIProf at 90K, scale 0.3, seed 1): the
// sha256 of the formatted report and its integrity section, the
// backward search's depth histogram, and the unresolved JIT count.
// The values were taken from the tree whose MapChain resolved through
// a flattened epoch index with a per-(epoch, page) cache, so they hold
// the backward scan that replaced it to the same answers and the same
// search depths. xalan (16 epochs, the deepest chain) runs outside
// -short only.
func TestResolverPinnedOnRealChains(t *testing.T) {
	for _, tc := range []struct {
		bench      string
		sha        string
		depths     map[int]uint64
		unresolved uint64
	}{
		{"antlr", "b4f4a5c9ed3bfa3574aa6e4bc226307508f5eee50d9e0a4c7459a414cd5c6535",
			map[int]uint64{1: 34, 2: 15, 3: 14}, 0},
		{"ps", "efb03d3d2ea6e0b76d72cf6b65dda82ad1bc01b15d355c6e235ded342edc2d2e",
			map[int]uint64{1: 76, 2: 21, 3: 23, 4: 20, 5: 13}, 0},
		{"xalan", "817e8ec3850b2394e032f09eec322ba3a22b2c48375e6f78b6e15220e6bfcca3",
			map[int]uint64{1: 126, 2: 32, 3: 36, 4: 35, 5: 32, 6: 36, 7: 39, 8: 41,
				9: 35, 10: 36, 11: 34, 12: 40, 13: 38, 14: 12}, 0},
	} {
		if testing.Short() && tc.bench == "xalan" {
			continue
		}
		spec, _ := workload.ByName(tc.bench)
		r, err := RunOnce(spec, RunConfig{Kind: ProfVIProf, Period: 90_000},
			Options{Scale: 0.3, Seed: 1, KeepSession: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.bench, err)
		}
		rep, res, err := r.Session.Report(r.Session.Images(r.VM), map[string]int{r.Proc.Name: r.Proc.PID})
		if err != nil {
			t.Fatalf("%s report: %v", tc.bench, err)
		}
		var b bytes.Buffer
		if err := oprofile.Format(&b, rep, 0); err != nil {
			t.Fatal(err)
		}
		if err := oprofile.FormatIntegrity(&b, rep.Integrity); err != nil {
			t.Fatal(err)
		}
		if sha := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); sha != tc.sha {
			t.Errorf("%s: report sha256 %s, want %s", tc.bench, sha, tc.sha)
		}
		if !reflect.DeepEqual(res.SearchDepths, tc.depths) {
			t.Errorf("%s: search depths %v, want %v", tc.bench, res.SearchDepths, tc.depths)
		}
		if un := res.Unresolved(); un != tc.unresolved {
			t.Errorf("%s: %d JIT samples unresolved, want %d", tc.bench, un, tc.unresolved)
		}
	}
}
