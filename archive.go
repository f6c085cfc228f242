package viprof

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"viprof/internal/core"
	"viprof/internal/hpc"
	"viprof/internal/image"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
)

// Profile archives. Like oparchive for real OProfile data, a profiled
// run can be dumped to a real directory — sample files, code maps,
// RVM.map, plus the image symbol tables and a manifest — and
// post-processed later by vipreport (or LoadArchivedReport) with no
// simulation state.

const (
	manifestPath = "viprof-manifest.txt"
	imageMapDir  = "images"
)

// DumpProfile archives the run's profile data under dir.
func (o *Outcome) DumpProfile(dir string) error {
	m := o.RawMachine()
	if m == nil {
		return fmt.Errorf("viprof: run kept no machine state")
	}
	disk := m.Kern.Disk()
	images := o.Images()
	names := make([]string, 0, len(images))
	for name := range images {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		disk.Append(imageMapDir+"/"+name+".map", image.AppendRVMMap(nil, images[name]))
	}
	var man bytes.Buffer
	for _, ev := range o.Events {
		fmt.Fprintf(&man, "event %d\n", int(ev))
	}
	if p := o.RawProcess(); p != nil {
		fmt.Fprintf(&man, "vm %d %s\n", p.PID, p.Name)
	}
	disk.Append(manifestPath, man.Bytes())
	return disk.DumpTo(dir)
}

// archiveManifest is what an archive's manifest names: the sampled
// events, and the VM processes by name, in manifest order, with their
// pids.
type archiveManifest struct {
	events []Event
	vms    []string
	vmPIDs map[string]int
}

// readManifest parses the manifest DumpProfile writes: `event <n>` and
// `vm <pid> <name>` lines. A malformed event or vm line fails the load;
// lines with any other keyword are skipped.
func readManifest(disk *kernel.Disk) (*archiveManifest, error) {
	//viplint:allow record-frame manifest is line-oriented plain text validated field-by-field by this parser
	data, err := disk.Read(manifestPath)
	if err != nil {
		return nil, fmt.Errorf("viprof: archive has no manifest: %v", err)
	}
	man := &archiveManifest{vmPIDs: make(map[string]int)}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "event" && fields[0] != "vm" {
			continue
		}
		vm := fields[0] == "vm"
		if vm && len(fields) < 3 || !vm && len(fields) != 2 {
			return nil, fmt.Errorf("viprof: bad manifest line %q", sc.Text())
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("viprof: bad manifest line %q: %v", sc.Text(), err)
		}
		if !vm {
			man.events = append(man.events, hpc.Event(n))
			continue
		}
		name := strings.Join(fields[2:], " ")
		if _, seen := man.vmPIDs[name]; !seen {
			man.vms = append(man.vms, name)
		}
		man.vmPIDs[name] = n
	}
	return man, nil
}

// LoadArchivedReport rebuilds the vertically integrated report from a
// directory written by DumpProfile.
func LoadArchivedReport(dir string) (*Report, error) {
	disk, err := kernel.LoadDiskFrom(dir)
	if err != nil {
		return nil, err
	}
	man, err := readManifest(disk)
	if err != nil {
		return nil, err
	}
	images := make(map[string]*image.Image)
	for _, p := range disk.List() {
		if !strings.HasPrefix(p, imageMapDir+"/") || !strings.HasSuffix(p, ".map") {
			continue
		}
		name := strings.TrimSuffix(strings.TrimPrefix(p, imageMapDir+"/"), ".map")
		//viplint:allow record-frame RVM.map is the legacy line-oriented text format; ReadRVMMap fails per-line, a torn tail loses at most trailing symbols
		data, err := disk.Read(p)
		if err != nil {
			return nil, err
		}
		im, err := image.ReadRVMMap(strings.NewReader(string(data)), name)
		if err != nil {
			return nil, fmt.Errorf("viprof: image map %s: %v", name, err)
		}
		images[name] = im
	}
	rep, _, err := core.Vipreport(disk, images, man.vmPIDs, man.events)
	return rep, err
}

// LoadArchivedPhases rebuilds the per-epoch phase timeline for the
// archive's first VM process: sample share and hottest method per GC
// execution epoch (the VIVA agenda's phase view, derived entirely from
// VIProf's epoch tags).
func LoadArchivedPhases(dir string) (string, error) {
	disk, err := kernel.LoadDiskFrom(dir)
	if err != nil {
		return "", err
	}
	man, err := readManifest(disk)
	if err != nil {
		return "", err
	}
	if len(man.vms) == 0 {
		return "", fmt.Errorf("viprof: archive manifest names no VM process")
	}
	data, err := disk.Read(oprofile.SampleFile)
	if err != nil {
		return "", err
	}
	counts, sal, err := oprofile.ReadCountsSalvage(data)
	if err != nil {
		return "", err
	}
	res, err := core.NewResolver(disk, nil, man.vmPIDs)
	if err != nil {
		return "", err
	}
	primary := EventCycles
	if len(man.events) > 0 {
		primary = man.events[0]
	}
	rows := core.PhaseBreakdown(counts, res, man.vms[0], primary)
	var buf bytes.Buffer
	if sal.Lossy() {
		fmt.Fprintf(&buf, "WARNING: sample file damaged — %d records dropped (%d bytes); timeline built from the %d that survived\n",
			sal.DroppedRecords, sal.DroppedBytes, sal.Records)
	}
	if err := core.FormatPhases(&buf, rows, primary); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// DiffArchives joins two archived reports on (image, symbol) and
// renders the biggest movers of the primary event's share.
func DiffArchives(beforeDir, afterDir string, maxRows int) (string, error) {
	before, err := LoadArchivedReport(beforeDir)
	if err != nil {
		return "", fmt.Errorf("viprof: before archive: %v", err)
	}
	after, err := LoadArchivedReport(afterDir)
	if err != nil {
		return "", fmt.Errorf("viprof: after archive: %v", err)
	}
	primary := EventCycles
	if len(before.Events) > 0 {
		primary = before.Events[0]
	}
	rows := core.DiffReports(before, after, primary)
	var buf bytes.Buffer
	if err := core.FormatDiff(&buf, rows, maxRows); err != nil {
		return "", err
	}
	return buf.String(), nil
}
